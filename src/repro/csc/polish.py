"""Post-SAT assignment polishing: shrink excitation regions.

A satisfying SAT assignment is free to mark large swaths of states as
``Up``/``Down``; every excited state splits in two during expansion, so
sprawling excitation regions inflate the final state count and -- because
every split adds a fresh minterm pattern -- the two-level covers.  The
solver has no objective function, so this pass supplies the missing
quality: it walks the excited states and re-stabilises each one (``Up``
to 0 or 1, ``Down`` to 1 or 0) whenever the change provably keeps the
solution correct.

Correctness is the ground-truth acceptance test :func:`_accepts`: the
assignment stays edge-compatible and realisable, and the *expanded*
graph stays CSC-clean and persistent.  Re-expanding the whole graph per
candidate flip dominated synthesis time, so the walk keeps the expanded
graph live instead (:class:`_ExpandedModel`) and re-derives only the part
a flip can change; every verdict equals :func:`_accepts` on the trial
assignment.  Regions therefore shrink from their boundaries inward until
only the genuinely required transition states stay excited.
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.errors import SynthesisError
from repro.csc.insertion import expand
from repro.csc.values import ALLOWED_EDGE_PAIRS, Value
from repro.stategraph.csc import csc_conflicts, persistence_violations
from repro.stategraph.graph import EPSILON

_MAX_PASSES = 4

#: Int code of each value: bit 0 the current value, bit 1 excited.
_CODE = {value: value.cur | value.excited << 1 for value in Value}
_VALUE = {code: value for value, code in _CODE.items()}

#: Int-coded ``(before, after)`` pairs allowed along an edge.
_COMPATIBLE = frozenset((_CODE[a], _CODE[b]) for a, b in ALLOWED_EDGE_PAIRS)

#: Int-coded pairs that fire a state signal before an *input* edge
#: (see :meth:`Assignment.check_input_realizability`).
_SERIALISED = frozenset(
    (_CODE[a], _CODE[b])
    for a in Value for b in Value
    if a.excited and not b.excited and a.cur != b.cur
)

#: Stable replacement candidates per excited value, in preference order:
#: push the transition later (keep the pre-transition value) first.
_CANDIDATES = {
    _CODE[Value.UP]: (_CODE[Value.ZERO], _CODE[Value.ONE]),
    _CODE[Value.DOWN]: (_CODE[Value.ONE], _CODE[Value.ZERO]),
}


def polish_assignment(graph, assignment):
    """Return an equivalent assignment with fewer excited states.

    The result satisfies the same acceptance criterion as the input
    (:func:`_accepts`); if the input does not satisfy it, it is returned
    unchanged.  Records ``polish_trials`` (flips judged after the
    edge-compatibility pre-filter) and ``polish_flips`` (flips kept).
    """
    if assignment.num_signals == 0:
        return assignment
    if not _accepts(graph, assignment):
        return assignment

    model = _ExpandedModel(graph, assignment)
    for _pass in range(_MAX_PASSES):
        changed = False
        for state in graph.states():
            row = model.rows[state]
            for k in range(len(row)):
                for candidate in _CANDIDATES.get(row[k], ()):
                    if model.flip(state, k, candidate):
                        changed = True
                        break
        if not changed:
            break
    obs.add("polish_trials", model.trials)
    obs.add("polish_flips", model.flips)
    return model.assignment()


class _ExpandedModel:
    """The expanded graph of an accepted assignment, kept live under flips.

    ``expand`` splits Σ state ``s`` once per excited column, so ``s``
    stands for ``2**e`` expanded *copies*, one per ``post`` mask (the
    excited columns whose state signal already fired).  A copy's code is
    Σ's code plus the columns' current bits with the ``post`` ones
    inverted; it excites the state signals still in their pre phase, and
    a non-input Σ edge ``s -> t`` unless some column excited at ``s`` and
    stable at ``t`` is not yet in ``post``.  The same edge joins copy
    ``post`` of ``s`` to copy ``post & exc(t)`` of ``t``.

    The model keeps every copy's ``(code, signature)`` in ``code ->
    {signature: count}`` buckets -- ``conflicts`` counts the codes with
    two signatures, i.e. ``csc_conflicts(expanded)`` is non-empty -- and
    per labelled Σ edge the number of its copies that drop a non-input
    excitation (``violations``: ``persistence_violations``).  Inserted
    signals need no persistence count: along any compatible edge they
    stay excited until they fire.

    A copy's code and excitation read only the rows of its Σ state and
    that state's successors, so a flip at ``s`` re-derives the copies of
    ``s`` and of the states with a non-input edge into ``s``, and
    re-counts the labelled edges touching them.
    """

    def __init__(self, graph, assignment):
        self.names = assignment.names
        self.rows = [[_CODE[v] for v in row] for row in assignment.values]
        self.trials = 0
        self.flips = 0
        width = assignment.num_signals
        self._width = width
        bit = {signal: 1 << i for i, signal in enumerate(graph.signals)}
        states = range(graph.num_states)
        self._base = [
            sum(b << i for i, b in enumerate(code)) << width
            for code in graph.codes
        ]
        self._drives = [[] for _ in states]     # (target, signal bit)
        self._predecessors = [set() for _ in states]
        self._labelled = [[] for _ in states]   # (source, target)
        self._inputs = [[] for _ in states]
        self._silent = [[] for _ in states]
        self._touching = [[] for _ in states]   # indices into _edges
        self._edges = []                        # (source, target, bit)
        for source, label, target in graph.edges:
            pair = (source, target)
            if label is EPSILON:
                self._silent[source].append(pair)
                self._silent[target].append(pair)
                continue
            self._labelled[source].append(pair)
            self._labelled[target].append(pair)
            if label[0] in graph.non_inputs:
                self._drives[source].append((target, bit[label[0]]))
                self._predecessors[target].add(source)
            else:
                self._inputs[source].append(pair)
                self._inputs[target].append(pair)
            self._touching[source].append(len(self._edges))
            self._touching[target].append(len(self._edges))
            self._edges.append((source, target, bit[label[0]]))

        self._exc = [0] * len(self.rows)
        self._cur = [0] * len(self.rows)
        self._copies = [{} for _ in states]     # post mask -> Σ excitation
        self._keys = [[] for _ in states]       # (code, signature) per copy
        self._buckets = {}
        self.conflicts = 0
        self._counts = [0] * len(self._edges)
        self.violations = 0
        self._rederive(states, range(len(self._edges)))

    def assignment(self):
        """The current rows as an :class:`Assignment`."""
        return Assignment(
            self.names,
            [tuple(_VALUE[code] for code in row) for row in self.rows],
        )

    def flip(self, state, k, value):
        """Set column ``k`` of ``state`` to ``value`` if that is accepted.

        Requires the current assignment to pass :func:`_accepts`; returns
        what ``_accepts`` returns on the trial assignment, keeping the
        flip when it is True and restoring the model when it is False.
        """
        row = self.rows[state]
        old = row[k]
        row[k] = value
        rows = self.rows
        if not all(
            (rows[a][k], rows[b][k]) in _COMPATIBLE
            for a, b in self._labelled[state]
        ):
            row[k] = old
            return False
        self.trials += 1
        # ``expand`` also rejects an incompatible ε edge.
        if not all(
            (rows[a][k], rows[b][k]) in _COMPATIBLE
            for a, b in self._silent[state]
        ) or any(
            (rows[a][k], rows[b][k]) in _SERIALISED
            for a, b in self._inputs[state]
        ):
            row[k] = old
            return False
        touched = self._predecessors[state] | {state}
        edges = {i for z in touched for i in self._touching[z]}
        self._rederive(touched, edges)
        if not self.conflicts and not self.violations:
            self.flips += 1
            return True
        row[k] = old
        self._rederive(touched, edges)
        return False

    # -- the delta ------------------------------------------------------------

    def _rederive(self, states, edges):
        """Re-derive the copies of ``states`` and recount ``edges``."""
        for state in states:
            for key in self._keys[state]:
                self._remove(key)
        for i in edges:
            self.violations -= self._counts[i]
        for state in states:
            exc = cur = 0
            for k, code in enumerate(self.rows[state]):
                exc |= (code >> 1) << k
                cur |= (code & 1) << k
            self._exc[state] = exc
            self._cur[state] = cur
        for state in states:
            self._derive(state)
        for i in edges:
            count = self._persistence(*self._edges[i])
            self._counts[i] = count
            self.violations += count

    def _derive(self, state):
        exc = self._exc[state]
        code = self._base[state] | self._cur[state]
        drives = [(self._exc[t], bit) for t, bit in self._drives[state]]
        copies = {}
        keys = []
        for post in _subsets(exc):
            excited = 0
            for target_exc, bit in drives:
                if not exc & ~target_exc & ~post:
                    excited |= bit
            copies[post] = excited
            keys.append(
                (code ^ post, excited << self._width | exc & ~post)
            )
        self._copies[state] = copies
        self._keys[state] = keys
        for key in keys:
            self._add(key)

    def _persistence(self, source, target, fired):
        """Copies of ``source -> target`` that drop a non-input excitation."""
        need = self._exc[source] & ~self._exc[target]
        keep = self._exc[target]
        after = self._copies[target]
        count = 0
        for post, excited in self._copies[source].items():
            if not need & ~post and excited & ~fired & ~after[post & keep]:
                count += 1
        return count

    def _add(self, key):
        code, signature = key
        bucket = self._buckets.setdefault(code, {})
        if signature in bucket:
            bucket[signature] += 1
            return
        bucket[signature] = 1
        if len(bucket) == 2:
            self.conflicts += 1

    def _remove(self, key):
        code, signature = key
        bucket = self._buckets[code]
        if bucket[signature] > 1:
            bucket[signature] -= 1
            return
        del bucket[signature]
        if len(bucket) == 1:
            self.conflicts -= 1
        elif not bucket:
            del self._buckets[code]


def _subsets(mask):
    """Every sub-mask of ``mask``."""
    subsets = [mask]
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        subsets.append(sub)
    return subsets


def _accepts(graph, assignment):
    """Ground truth: realisable, expansion succeeds, CSC satisfied."""
    if assignment.check_edge_compatibility(graph):
        return False
    if assignment.check_input_realizability(graph):
        return False
    try:
        expanded = expand(graph, assignment)
    except SynthesisError:
        return False
    if csc_conflicts(expanded):
        return False
    return not persistence_violations(expanded)
