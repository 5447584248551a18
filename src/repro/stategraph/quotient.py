"""ε-merging quotients of state graphs.

The paper's modular state graph Σ_oi is obtained from the complete state
graph Σ by labelling the transitions of unneeded signals as silent ε
transitions and merging the states they connect (Section 3.3) -- the
classical conversion of an automaton with ε transitions into one without.
This module implements that merge as a quotient: the result keeps a *cover
map* from every state of Σ to the macro state that covers it, which is
exactly the ``cover()`` relation used by the propagation step (Section
3.4).
"""

from __future__ import annotations

from repro import obs
from repro.stategraph.graph import EPSILON, ImpliedMasks, StateGraph

#: ``frozenset`` of implied values by ``(one bit << 1) | zero bit``.
_VALUE_SETS = (
    frozenset(), frozenset((0,)), frozenset((1,)), frozenset((0, 1)),
)


class QuotientGraph:
    """A state graph quotient together with its cover map.

    Attributes
    ----------
    base:
        The original :class:`StateGraph` (typically the complete graph Σ).
    graph:
        The merged :class:`StateGraph` (the modular graph Σ_oi).
    cover:
        ``cover[base_state] -> macro_state`` (the paper's cover relation).
    blocks:
        ``blocks[macro_state]`` is the sorted tuple of base states merged
        into that macro state.
    hidden:
        The signals whose transitions were ε-labelled and merged away.
    """

    def __init__(self, base, graph, cover, blocks, hidden):
        self.base = base
        self.graph = graph
        self.cover = cover
        self.blocks = blocks
        self.hidden = frozenset(hidden)
        self._masks = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_masks", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._masks = None

    # Analysis interface shared with StateGraph ----------------------------

    @property
    def signals(self):
        return self.graph.signals

    @property
    def non_inputs(self):
        return self.graph.non_inputs

    @property
    def num_states(self):
        return self.graph.num_states

    @property
    def edges(self):
        return self.graph.edges

    def states(self):
        return self.graph.states()

    def excitation(self, macro_state):
        return self.graph.excitation(macro_state)

    def code_of(self, macro_state):
        return self.graph.code_of(macro_state)

    def implied_masks(self):
        """:class:`~repro.stategraph.graph.ImpliedMasks` of the macro states.

        In the *base* graph's bit layout: a macro state's ``ones`` and
        ``zeros`` are the OR of its members', and its code is its first
        member's base code masked to the kept signals (the quotient
        invariant makes every member agree there), so equal codes here
        are equal codes of :attr:`graph`.  Cached, like the base's.
        """
        if self._masks is None:
            base = self.base.implied_masks()
            kept = 0
            for signal in self.graph.signals:
                kept |= 1 << base.index[signal]
            base_ones, base_zeros = base.ones, base.zeros
            codes, ones, zeros = [], [], []
            for members in self.blocks:
                one = zero = 0
                for state in members:
                    one |= base_ones[state]
                    zero |= base_zeros[state]
                codes.append(base.codes[members[0]] & kept)
                ones.append(one)
                zeros.append(zero)
            self._masks = ImpliedMasks(codes, ones, zeros, base.index)
        return self._masks

    def implied_values(self, macro_state, signal):
        """Implied values of ``signal`` across the covered base states.

        A singleton means the merged state still determines the signal's
        logic function; two values mean the merge lost that information
        (an *intrinsic* conflict -- the situation the greedy input-set
        derivation must avoid creating).
        """
        masks = self.implied_masks()
        bit = masks.index[signal]
        return _VALUE_SETS[
            (masks.ones[macro_state] >> bit & 1) << 1
            | masks.zeros[macro_state] >> bit & 1
        ]

    def is_ambiguous(self, macro_state, signal):
        return len(self.implied_values(macro_state, signal)) > 1

    def __repr__(self):
        return (
            f"QuotientGraph(base={self.base.num_states} states -> "
            f"{self.graph.num_states} macro states, hidden={sorted(self.hidden)})"
        )


def quotient(base, hidden_signals):
    """Merge away ε edges and all transitions of ``hidden_signals``.

    Parameters
    ----------
    base:
        The complete state graph Σ.
    hidden_signals:
        Signals whose transitions become ε and are merged.  May be empty,
        in which case only pre-existing ε edges are contracted.

    Returns
    -------
    QuotientGraph
    """
    hidden = frozenset(hidden_signals)
    unknown = hidden - set(base.signals)
    if unknown:
        raise ValueError(f"cannot hide unknown signals: {sorted(unknown)}")

    cover, blocks = _merge_blocks(base, hidden)

    kept = [s for s in base.signals if s not in hidden]
    kept_idx = [base.signal_index(s) for s in kept]
    codes = _projected_codes(base, blocks, kept_idx)

    macro_edges = set()
    for signal in kept:
        for source, label, target in base.edges_by_signal(signal):
            macro_edges.add((cover[source], label, cover[target]))

    graph = StateGraph(
        kept,
        codes,
        sorted(macro_edges, key=_edge_sort_key),
        non_inputs=base.non_inputs - hidden,
        initial=cover[base.initial],
        check=False,
    )
    # The quotient is called inside tight derivation loops; counters only,
    # no span of its own (the callers open "project"/"input_set" spans).
    if obs.enabled():
        obs.add("quotients")
        obs.add("eps_merges", base.num_states - len(blocks))
        obs.add("cover_map_size", len(cover))
    return QuotientGraph(base, graph, cover, blocks, hidden)


def refine(prior, extra_hidden):
    """Hide ``extra_hidden`` on top of an existing quotient, incrementally.

    Observably identical to ``quotient(prior.base, prior.hidden |
    extra_hidden)`` -- same macro state numbering, codes, cover map,
    blocks and edges -- but computed on the (much smaller) merged graph
    of ``prior`` and composed through its cover map, instead of
    re-merging the complete base graph.  This is what makes the greedy
    input-set loop incremental: every trial is a superset
    ``hidden ∪ {s}`` of the current hidden set, so each one is a single
    refinement step away from the projection already in hand.

    The equivalence rests on two invariants of :func:`quotient`: macro
    ids are numbered by smallest member (so composing two
    smallest-member orderings yields a smallest-member ordering), and
    macro edges are the label-preserving images of base edges (so images
    of images are images of the composition).

    Counted as ``quotient_refines`` in :mod:`repro.obs`, *not* as
    ``quotients``: the ``quotients`` counter measures from-scratch
    merges of a base graph, the expensive operation this function
    exists to avoid.

    Parameters
    ----------
    prior:
        A :class:`QuotientGraph` to refine.
    extra_hidden:
        Additional signals to hide; signals already hidden are ignored.

    Returns
    -------
    QuotientGraph
        Over ``prior.base`` (not over ``prior.graph``).
    """
    extra = frozenset(extra_hidden) - prior.hidden
    if not extra:
        return prior
    inner = prior.graph
    unknown = extra - set(inner.signals)
    if unknown:
        raise ValueError(f"cannot hide unknown signals: {sorted(unknown)}")
    hidden = prior.hidden | extra

    inner_cover, inner_blocks = _merge_blocks(inner, extra)

    # Compose covers and blocks back onto the base graph.  Macro ids of
    # ``prior`` increase with their smallest base member, so ordering the
    # composed blocks by smallest *inner* member (what _merge_blocks did)
    # equals ordering by smallest base member -- the numbering
    # :func:`quotient` would have produced from scratch.
    blocks = [
        tuple(sorted(
            state
            for inner_macro in members
            for state in prior.blocks[inner_macro]
        ))
        for members in inner_blocks
    ]
    cover = [inner_cover[prior.cover[s]] for s in range(len(prior.cover))]

    kept = [s for s in inner.signals if s not in extra]
    kept_idx = [inner.signal_index(s) for s in kept]
    codes = _projected_codes(inner, inner_blocks, kept_idx)

    macro_edges = set()
    for signal in kept:
        for source, label, target in inner.edges_by_signal(signal):
            macro_edges.add(
                (inner_cover[source], label, inner_cover[target])
            )

    graph = StateGraph(
        kept,
        codes,
        sorted(macro_edges, key=_edge_sort_key),
        non_inputs=inner.non_inputs - extra,
        initial=inner_cover[inner.initial],
        check=False,
    )
    if obs.enabled():
        obs.add("quotient_refines")
        obs.add("eps_merges", inner.num_states - len(inner_blocks))
        obs.add("cover_map_size", len(cover))
    return QuotientGraph(prior.base, graph, cover, blocks, hidden)


def _merge_blocks(graph, hidden):
    """Union-find partition of ``graph`` under ε and ``hidden`` edges.

    Returns ``(cover, blocks)`` with blocks numbered in order of their
    smallest member, so macro state ids are stable across runs (and
    across the from-scratch / incremental construction paths).
    """
    parent = list(range(graph.num_states))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for source, _label, target in graph.edges_by_signal(EPSILON):
        union(source, target)
    for signal in hidden:
        for source, _label, target in graph.edges_by_signal(signal):
            union(source, target)

    roots = {}
    for state in graph.states():
        roots.setdefault(find(state), []).append(state)
    blocks = [tuple(sorted(members)) for members in roots.values()]
    blocks.sort(key=lambda members: members[0])
    cover = [0] * graph.num_states
    for macro, members in enumerate(blocks):
        for state in members:
            cover[state] = macro
    return cover, blocks


def _projected_codes(graph, blocks, kept_idx):
    """Per-block codes projected onto the kept signal indices."""
    codes = []
    for members in blocks:
        projected = {
            tuple(graph.code_of(m)[i] for i in kept_idx) for m in members
        }
        if len(projected) != 1:
            raise AssertionError(
                "merged states disagree on kept signals; quotient invariant "
                "violated"
            )
        codes.append(projected.pop())
    return codes


def _edge_sort_key(edge):
    source, label, target = edge
    return (source, label if label is not EPSILON else ("", ""), target)
