"""Building state graphs from signal transition graphs.

The construction follows Section 2 of the paper: exhaustively generate the
reachable markings of the STG's Petri net, then assign every marking the
binary code of its signal values.  Initial signal values are not given by
the ``.g`` format; they are *inferred* by propagating the consistency
constraints (``s+`` fires only from value 0, ``s-`` only from value 1,
other transitions leave the value unchanged) over the whole reachability
graph.  An STG admitting no such assignment is inconsistent and cannot be
synthesised.
"""

from __future__ import annotations

from repro import obs
from repro.petrinet.reachability import reachability_graph
from repro.stg.errors import StgValidationError
from repro.stategraph.graph import EPSILON, StateGraph
from repro.stategraph.quotient import quotient


class InconsistentStgError(StgValidationError):
    """The STG's rises and falls admit no consistent state assignment."""


def signal_codes(stg, graph):
    """Every reachable marking's signal code, from one pass over the edges.

    Bit ``j`` of a code is the value of ``stg.signals[j]``.  Walking
    ``graph.edges`` in discovery order, a newly reached marking gets its
    source's ``delta`` (the signals changed since the initial marking)
    with the fired signal's bit flipped; every other edge must agree
    with the delta already recorded.  An ``s+`` edge fixes the initial
    value of ``s`` so that ``s`` is 0 at its source, an ``s-`` edge so
    that it is 1.  The graph is connected from the initial marking, so a
    consistent assignment, when one exists, is this one.

    ``graph`` is a :class:`~repro.petrinet.reachability.ReachabilityGraph`
    as :func:`~repro.petrinet.reachability.reachability_graph` returns
    it: edges in discovery order, ``markings[0]`` the initial marking.
    Returns ``(codes, fired)``: ``codes[i]`` is the code of
    ``graph.markings[i]``, ``fired`` the mask of the signals some edge
    fires (a signal that never fires reads 0 everywhere).  Raises
    :class:`InconsistentStgError` when some signal would need both
    values in one marking: its transitions do not alternate.
    """
    signals = stg.signals
    bit = {signal: 1 << j for j, signal in enumerate(signals)}
    moves = {}  # transition -> (its signal's bit, the bit if it falls)
    for transition, label in stg.labels().items():
        flip = 0 if label.is_dummy else bit[label.signal]
        moves[transition] = flip, flip if label.is_fall else 0
    index = {marking: i for i, marking in enumerate(graph.markings)}
    delta = [0] + [None] * (len(graph.markings) - 1)
    initial = fixed = 0
    for source, transition, target in graph.edges:
        before = delta[index[source]]
        flip, fall = moves[transition]
        after = before ^ flip
        reached = index[target]
        known = delta[reached]
        if known is None:
            delta[reached] = after
        elif known != after:
            _contradiction(
                signals, known ^ after, "has contradictory values at", target
            )
        if flip:
            # The fired signal is 0 before a rise and 1 before a fall.
            value = (before ^ fall) & flip
            if not fixed & flip:
                initial |= value
                fixed |= flip
            elif initial & flip != value:
                _contradiction(
                    signals, flip, "is forced to both values in", source
                )
    return [initial ^ change for change in delta], fixed


def _contradiction(signals, mask, what, marking):
    signal = signals[(mask & -mask).bit_length() - 1]
    raise InconsistentStgError(
        f"signal {signal!r} {what} {marking!r}; transitions do not alternate"
    )


def _require_fired(signals, fired):
    """Raise for the first signal no edge of the graph fires."""
    for j, signal in enumerate(signals):
        if not fired >> j & 1:
            raise InconsistentStgError(
                f"signal {signal!r} never fires; its value is undetermined"
            )


def infer_signal_values(stg, graph):
    """Infer every signal's binary value in every reachable marking.

    Parameters
    ----------
    stg:
        The signal transition graph.
    graph:
        Its :class:`~repro.petrinet.reachability.ReachabilityGraph`.

    Returns
    -------
    dict
        ``values[marking][signal] -> 0 or 1``.

    Raises
    ------
    InconsistentStgError
        If some signal is forced to both 0 and 1 in the same marking, or
        some signal's value is not determined anywhere (a signal with no
        fired transition).
    """
    codes, fired = signal_codes(stg, graph)
    signals = stg.signals
    _require_fired(signals, fired)
    return {
        marking: {s: code >> j & 1 for j, s in enumerate(signals)}
        for marking, code in zip(graph.markings, codes)
    }


def build_state_graph(stg, contract_dummies=True, budget=None,
                      **explore_kwargs):
    """Derive the complete state graph Σ from an STG.

    Parameters
    ----------
    stg:
        The signal transition graph.
    contract_dummies:
        When true (default), states connected by dummy (ε) transitions are
        merged away, as in the classical ε-free automaton conversion the
        paper cites; the returned graph then has no ε edges.
    budget:
        Optional :class:`~repro.runtime.budget.Budget`; bounds the
        marking exploration (deadline and state cap) and is checked
        between the construction phases.
    explore_kwargs:
        Passed to :func:`repro.petrinet.reachability.reachability_graph`
        (``marking_limit``, ``token_bound``).

    Returns
    -------
    StateGraph
    """
    with obs.span("build_state_graph"):
        with obs.span("reachability"):
            reach = reachability_graph(
                stg.net, budget=budget, **explore_kwargs
            )
        if budget is not None:
            budget.checkpoint("state-graph")
        for marking in reach.markings:
            if not marking.is_safe():
                raise StgValidationError(
                    f"STG is not 1-safe: reachable marking {marking!r}"
                )
        signals = tuple(stg.signals)
        with obs.span("signal_values"):
            ints, fired = signal_codes(stg, reach)
            _require_fired(signals, fired)
        if budget is not None:
            budget.checkpoint("signal-values")

        codes = [tuple(code >> j & 1 for j in range(len(signals)))
                 for code in ints]
        labels = {
            transition: (
                EPSILON if label.is_dummy
                else (label.signal, label.direction)
            )
            for transition, label in stg.labels().items()
        }
        index = {marking: i for i, marking in enumerate(reach.markings)}
        edges = [
            (index[source], labels[transition], index[target])
            for source, transition, target in reach.edges
        ]

        graph = StateGraph(
            signals,
            codes,
            edges,
            non_inputs=stg.non_inputs,
            initial=0,
            markings=reach.markings,
        )
        if contract_dummies and any(
            label is EPSILON for _s, label, _t in edges
        ):
            graph = quotient(graph, hidden_signals=()).graph
        return graph
