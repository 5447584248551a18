"""Reachability graph construction.

The state graph of an STG is "derived by exhaustively generating all
possible markings" (paper, Section 2).  This module provides that
exhaustive generation for any bounded Petri net, with explicit bounds so
that unbounded specifications fail loudly instead of looping forever.
"""

from __future__ import annotations

from repro import obs
from repro.petrinet.errors import UnboundedNetError
from repro.petrinet.marking import Marking
from repro.runtime.faults import should_fire as _fault_fires

#: Default cap on the number of reachable markings explored before the net
#: is declared (practically) unbounded.  The largest graph in the paper has
#: a few hundred states; the cap is generous.
DEFAULT_MARKING_LIMIT = 200_000

#: Default per-place token bound.  STGs are expected to be 1-safe, but the
#: checker tolerates any finite bound so the safety *check* itself can run.
DEFAULT_TOKEN_BOUND = 8


class ReachabilityGraph:
    """The reachable markings of a net and the firings between them.

    Attributes
    ----------
    initial:
        The initial marking.
    markings:
        List of reachable markings in BFS discovery order.
    edges:
        List of ``(marking, transition, marking')`` triples.
    """

    def __init__(self, initial, markings, edges):
        self.initial = initial
        self.markings = markings
        self.edges = edges
        self._links = None

    def _adjacency(self):
        """``(successors, predecessors)`` maps, built on first use."""
        if self._links is None:
            successors = {m: [] for m in self.markings}
            predecessors = {m: [] for m in self.markings}
            for source, transition, target in self.edges:
                successors[source].append((transition, target))
                predecessors[target].append((transition, source))
            self._links = successors, predecessors
        return self._links

    def __len__(self):
        return len(self.markings)

    def __contains__(self, marking):
        return marking in self._adjacency()[0]

    def successors(self, marking):
        """``(transition, marking')`` pairs firable from ``marking``."""
        return list(self._adjacency()[0][marking])

    def predecessors(self, marking):
        """``(transition, marking)`` pairs leading into ``marking``."""
        return list(self._adjacency()[1][marking])

    def deadlocks(self):
        """Markings with no enabled transition."""
        successors = self._adjacency()[0]
        return [m for m in self.markings if not successors[m]]

    def fired_transitions(self):
        """The set of transitions that fire somewhere in the graph."""
        return {transition for _s, transition, _t in self.edges}


#: Markings processed between cooperative budget checkpoints.
_CHECKPOINT_STRIDE = 256


def reachability_graph(
    net,
    marking_limit=DEFAULT_MARKING_LIMIT,
    token_bound=DEFAULT_TOKEN_BOUND,
    budget=None,
):
    """Breadth-first exploration of the reachable markings of ``net``.

    The exploration runs on markings packed into one int (see
    :class:`_Packing`); each reachable marking becomes a
    :class:`~repro.petrinet.marking.Marking` once, at the end.
    Transitions are tried in sorted name order, so markings are numbered
    in BFS discovery order and every marking's discovering edge precedes
    its own out-edges in ``edges``.

    Parameters
    ----------
    net:
        The :class:`~repro.petrinet.net.PetriNet` to explore.
    marking_limit:
        Abort with :class:`UnboundedNetError` once more than this many
        distinct markings have been discovered.
    token_bound:
        Abort with :class:`UnboundedNetError` as soon as any place carries
        more than this many tokens.
    budget:
        Optional :class:`~repro.runtime.budget.Budget`; its wall-clock
        deadline is checked every :data:`_CHECKPOINT_STRIDE` markings and
        its state cap bounds the exploration alongside ``marking_limit``
        (raising :class:`~repro.runtime.budget.BudgetExhaustedError`
        rather than declaring the net unbounded).

    Returns
    -------
    ReachabilityGraph
    """
    if _fault_fires("reachability-overflow"):
        raise UnboundedNetError(
            "injected fault: reachability overflow", markings_seen=0
        )
    initial = net.initial_marking
    _check_token_bound(initial, token_bound)
    packing = _Packing(net, token_bound)
    guards, over = packing.guards, packing.over
    firings = packing.firings
    start = packing.pack(initial)
    seen = {start: 0}
    order = [start]
    edges = []
    processed = 0
    while processed < len(order):
        source = processed
        marking = order[processed]
        processed += 1
        if budget is not None and processed % _CHECKPOINT_STRIDE == 0:
            budget.checkpoint("reachability")
        guarded = marking | guards
        for transition, pre, change, guard in firings:
            if (guarded - pre) & guard != guard:
                continue  # some preset field was 0 and borrowed its guard
            successor = marking + change
            if (successor + over) & guards:
                _check_token_bound(packing.unpack(successor), token_bound)
            target = seen.get(successor)
            if target is None:
                if budget is not None:
                    budget.check_states(len(seen) + 1, point="reachability")
                if len(seen) >= marking_limit:
                    raise UnboundedNetError(
                        f"more than {marking_limit} reachable markings; "
                        "net is unbounded or the limit is too small",
                        markings_seen=len(seen),
                    )
                target = len(order)
                seen[successor] = target
                order.append(successor)
            edges.append((source, transition, target))
    markings = [initial]
    markings.extend(packing.unpack(packed) for packed in order[1:])
    # Counters land on the enclosing span (the builder's "reachability"
    # phase); recorded once at the end, never inside the BFS loop.
    obs.add("states_explored", len(markings))
    obs.add("edges_explored", len(edges))
    return ReachabilityGraph(
        initial,
        markings,
        [(markings[s], t, markings[d]) for s, t, d in edges],
    )


class _Packing:
    """A net's markings as ints: one fixed-width field per place.

    Places take fields in sorted name order.  A field has ``V =
    (token_bound + 1).bit_length()`` value bits and one guard bit above
    them, always 0 in a packed marking; ``guards`` has every guard bit
    set.  Per transition ``t`` (in sorted name order) ``firings`` holds
    ``(t, PRE, POST - PRE, GPRE)``: a 1 in the lowest bit of each preset
    (``PRE``) or postset (``POST``) field, and the guard bits of the
    preset fields (``GPRE``).  All three tests are exact field by field:

    * ``t`` is enabled in ``m`` iff ``((m | guards) - PRE) & GPRE ==
      GPRE``: subtracting 1 from a field holding 0 borrows from that
      field's own guard bit, which stops the borrow there;
    * firing gives ``m + (POST - PRE)``: no field borrows (``t`` is
      enabled) and none carries, since a field holds at most
      ``token_bound + 1 < 2**V``;
    * the bound is broken iff ``(m' + over) & guards``, where ``over``
      holds ``2**V - 1 - token_bound`` in every field: a field exceeds
      ``token_bound`` exactly when adding that sets its guard bit.
    """

    def __init__(self, net, token_bound):
        value_bits = (token_bound + 1).bit_length()
        self.places = sorted(net.places)
        self.width = value_bits + 1
        self.values = (1 << value_bits) - 1
        self.shift = {
            place: i * self.width for i, place in enumerate(self.places)
        }
        ones = sum(1 << shift for shift in self.shift.values())
        self.guards = ones << value_bits
        self.over = ones * (self.values - token_bound)
        self.firings = []
        for transition in sorted(net.transitions):
            pre = sum(1 << self.shift[p] for p in net.preset(transition))
            post = sum(1 << self.shift[p] for p in net.postset(transition))
            self.firings.append(
                (transition, pre, post - pre, pre << value_bits)
            )

    def pack(self, marking):
        return sum(
            count << self.shift[place] for place, count in marking.items()
        )

    def unpack(self, packed):
        """The :class:`Marking` of a packed marking."""
        items = []
        width, places, values = self.width, self.places, self.values
        while packed:
            field = ((packed & -packed).bit_length() - 1) // width
            shift = field * width
            count = (packed >> shift) & values
            items.append((places[field], count))
            packed ^= count << shift
        return Marking.from_sorted_items(tuple(items))


def _check_token_bound(marking, token_bound):
    for place, count in marking.items():
        if count > token_bound:
            raise UnboundedNetError(
                f"place {place!r} holds {count} tokens, exceeding the "
                f"bound {token_bound}; net is not {token_bound}-bounded"
            )
