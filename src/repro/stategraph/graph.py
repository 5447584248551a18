"""The state graph data structure.

States are dense integer ids.  Every state carries a binary code over an
ordered tuple of *code signals*; edges are labelled either with a signal
transition ``(signal, "+"/"-")`` or with :data:`EPSILON` (silent).

The structure is deliberately independent of Petri nets: modular state
graphs produced by ε-merging are state graphs too, with no markings
behind them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.logic.cover import pack_minterm
from repro.stg.model import FALL, RISE

#: Label of silent (ε) edges.
EPSILON = None


class ImpliedMasks(NamedTuple):
    """Chu's implied values of every state, packed into ints.

    ``codes[s]`` is state ``s``'s code, ``ones[s]`` has a signal's bit
    set when its implied value in ``s`` may be 1 and ``zeros[s]`` when
    it may be 0; ``index`` maps each signal to its bit, in the layout
    :mod:`repro.logic.cover` owns.  A plain state has exactly one of the
    two bits per signal; a merged (quotient) state carries every
    member's, so both bits set is an intrinsic conflict.
    """

    codes: list
    ones: list
    zeros: list
    index: dict


class StateGraph:
    """An edge-labelled automaton with per-state binary codes.

    Parameters
    ----------
    signals:
        Ordered iterable of code signal names; the i-th bit of every state
        code is the value of ``signals[i]``.
    codes:
        ``codes[s]`` is the binary code tuple of state ``s``.  The number
        of states is ``len(codes)``.
    edges:
        Iterable of ``(source, label, target)`` with ``label`` either
        ``(signal, "+"/"-")`` or :data:`EPSILON`.
    non_inputs:
        The non-input signals ``S_NI`` (subset of ``signals``).
    initial:
        Initial state id.
    markings:
        Optional list mapping state ids to the Petri net markings they
        were generated from (informational only).
    check:
        Validate every edge against the consistent-state-assignment rules.
        Constructors that build edges from an already validated graph (the
        ε-merging quotient, its incremental refinement) pass ``False``:
        their edges are projections of checked ones, and re-validation is
        pure overhead in the projection hot loop.
    """

    def __init__(
        self, signals, codes, edges, non_inputs, initial=0, markings=None,
        check=True,
    ):
        self.signals = tuple(signals)
        self._index = {s: i for i, s in enumerate(self.signals)}
        if len(self._index) != len(self.signals):
            raise ValueError("duplicate code signals")
        self.codes = [tuple(code) for code in codes]
        for state, code in enumerate(self.codes):
            if len(code) != len(self.signals):
                raise ValueError(
                    f"state {state} code has {len(code)} bits, expected "
                    f"{len(self.signals)}"
                )
        self.non_inputs = frozenset(non_inputs)
        unknown = self.non_inputs - set(self.signals)
        if unknown:
            raise ValueError(f"non-input signals not in code: {sorted(unknown)}")
        if self.codes and not 0 <= initial < len(self.codes):
            raise ValueError(f"initial state {initial} out of range")
        self.initial = initial
        self.markings = list(markings) if markings is not None else None

        self.edges = []
        self._out = [[] for _ in self.codes]
        self._in = [[] for _ in self.codes]
        self._drop_derived()
        for source, label, target in edges:
            if check:
                self._check_edge(source, label, target)
            self.edges.append((source, label, target))
            self._out[source].append((label, target))
            self._in[target].append((label, source))

    def _check_edge(self, source, label, target):
        n = len(self.codes)
        if not (0 <= source < n and 0 <= target < n):
            raise ValueError(f"edge ({source},{label},{target}) out of range")
        code, next_code = self.codes[source], self.codes[target]
        if label is EPSILON:
            if code != next_code:
                raise ValueError(
                    f"ε edge {source}->{target} changes the state code"
                )
            return
        signal, direction = label
        if signal not in self._index:
            raise ValueError(f"edge uses unknown signal {signal!r}")
        bit = self._index[signal]
        before, after = (0, 1) if direction == RISE else (1, 0)
        if direction not in (RISE, FALL):
            raise ValueError(f"bad edge direction {direction!r}")
        if code[bit] != before or next_code[bit] != after:
            raise ValueError(
                f"edge {signal}{direction} from {source} to {target} violates "
                "consistent state assignment"
            )
        if code[:bit] == next_code[:bit] and (
            code[bit + 1:] == next_code[bit + 1:]
        ):
            return
        for i, (a, b) in enumerate(zip(code, next_code)):
            if i != bit and a != b:
                raise ValueError(
                    f"edge {signal}{direction} from {source} to {target} "
                    f"changes unrelated signal {self.signals[i]!r}"
                )

    def _drop_derived(self):
        """Reset the caches derived from the edges; rebuilt lazily."""
        self._excitation_cache = [None] * len(self.codes)
        self._by_signal = None
        self._masks = None

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("_excitation_cache", "_by_signal", "_masks"):
            state.pop(name, None)
        return state

    def __setstate__(self, state):
        # Records pickled with their caches (any layout) load too: the
        # caches are dropped and derived again on first use.
        self.__dict__.update(state)
        self._drop_derived()

    # -- basic views --------------------------------------------------------

    @property
    def num_states(self):
        return len(self.codes)

    @property
    def num_edges(self):
        return len(self.edges)

    def states(self):
        return range(len(self.codes))

    def code_of(self, state):
        return self.codes[state]

    def out_edges(self, state):
        """Outgoing ``(label, target)`` pairs."""
        return list(self._out[state])

    def in_edges(self, state):
        """Incoming ``(label, source)`` pairs."""
        return list(self._in[state])

    def edges_by_signal(self, signal):
        """Edges ``(source, label, target)`` labelled by ``signal``.

        Pass :data:`EPSILON` for the silent edges.  The index is built
        lazily on first use and shared by every later call, so union
        passes over a handful of hidden signals no longer scan the whole
        edge list.  Unknown signals return an empty tuple (a hidden-set
        union pass may name signals this graph never fires).
        """
        if self._by_signal is None:
            index = {}
            for edge in self.edges:
                label = edge[1]
                key = EPSILON if label is EPSILON else label[0]
                index.setdefault(key, []).append(edge)
            self._by_signal = {
                key: tuple(edges) for key, edges in index.items()
            }
        return self._by_signal.get(signal, ())

    def value(self, state, signal):
        """Binary value of a code signal in a state."""
        return self.codes[state][self._index[signal]]

    def signal_index(self, signal):
        return self._index[signal]

    # -- excitation and implied values ---------------------------------------

    def excitation(self, state):
        """Mapping signal -> direction for signals enabled in ``state``.

        Cached: graphs are immutable once built and excitation is queried
        heavily by the CSC analysis.
        """
        cached = self._excitation_cache[state]
        if cached is not None:
            return cached
        result = {}
        for label, _target in self._out[state]:
            if label is not EPSILON:
                signal, direction = label
                previous = result.get(signal)
                if previous is not None and previous != direction:
                    raise ValueError(
                        f"state {state} enables both {signal}+ and {signal}-"
                    )
                result[signal] = direction
        self._excitation_cache[state] = result
        return result

    def implied_masks(self):
        """Every state's implied values as :class:`ImpliedMasks`.

        The implied value of a signal is the value of the logic function
        implementing it: the target value while the signal is excited,
        the current code bit while it is stable (Chu's rule).  Packed,
        that is ``ones = (code & ~excited) | rising`` and ``zeros =
        full ^ ones``, derived in one pass over the out-edges and cached
        (graphs are immutable once built).  Bit ``i`` is ``signals[i]``.
        """
        if self._masks is None:
            bit = {s: 1 << i for i, s in enumerate(self.signals)}
            full = (1 << len(self.signals)) - 1
            codes, ones = [], []
            for state, (code, out) in enumerate(zip(self.codes, self._out)):
                packed = pack_minterm(code)
                rising = falling = 0
                for label, _target in out:
                    if label is not EPSILON:
                        signal, direction = label
                        if direction == RISE:
                            rising |= bit[signal]
                        else:
                            falling |= bit[signal]
                if rising & falling:
                    self.excitation(state)  # raises: both s+ and s-
                codes.append(packed)
                ones.append(packed & ~(rising | falling) | rising)
            self._masks = ImpliedMasks(
                codes, ones, [full ^ one for one in ones], dict(self._index)
            )
        return self._masks

    def implied_value(self, state, signal):
        """The next-state value (0/1) of ``signal`` in ``state``."""
        return self.implied_masks().ones[state] >> self._index[signal] & 1

    def implied_values(self, state, signal):
        """Implied value as a frozenset, for interface parity with quotients."""
        return frozenset((self.implied_value(state, signal),))

    # -- whole-graph checks -----------------------------------------------------

    def concurrent_transition_count(self):
        """Number of states enabling two or more transitions (``N_ct``)."""
        return sum(1 for s in self.states() if len(self._out[s]) >= 2)

    def check_deterministic(self):
        """Raise if some state has two same-labelled outgoing edges."""
        for state in self.states():
            seen = set()
            for label, _target in self._out[state]:
                if label is EPSILON:
                    continue
                if label in seen:
                    raise ValueError(
                        f"state {state} has two edges labelled {label}"
                    )
                seen.add(label)

    def to_networkx(self):
        """The state graph as a :class:`networkx.MultiDiGraph`.

        State nodes carry their ``code``; edges carry ``signal`` and
        ``direction`` (ε edges carry ``signal=None``).  A live, 1-safe
        specification's graph is strongly connected, which networkx can
        confirm directly.
        """
        import networkx as nx

        graph = nx.MultiDiGraph()
        for state in self.states():
            graph.add_node(state, code=self.codes[state])
        for source, label, target in self.edges:
            if label is EPSILON:
                graph.add_edge(source, target, signal=None, direction=None)
            else:
                graph.add_edge(
                    source, target, signal=label[0], direction=label[1]
                )
        return graph

    def __repr__(self):
        return (
            f"StateGraph(states={self.num_states}, edges={self.num_edges}, "
            f"signals={len(self.signals)})"
        )
