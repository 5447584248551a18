"""Expansion of a state graph with state-signal transitions.

Once the SAT solution assigns every state a four-valued value per state
signal, the graph is *expanded* (Section 3.5): every state with an excited
value (``Up``/``Down``) splits into a pre-transition and a post-transition
state joined by the state signal's own edge.  The expanded graph is an
ordinary state graph whose code includes the state signals; Table 1's
"final no. of states" column counts its states.

A run builds that graph once, for the final assignment.  Before that,
the repair rounds and the polish pass ask of each candidate assignment
only what its expansion would answer -- is it CSC-clean, which Σ
states collide, is it persistent -- and :class:`ExpandedModel` answers
from int codes without building the graph.
"""

from __future__ import annotations

from repro.csc.assignment import Assignment
from repro.csc.errors import SynthesisError
from repro.csc.values import ALLOWED_EDGE_PAIRS, Value, edge_compatible
from repro.stategraph.graph import EPSILON, StateGraph
from repro.stg.model import FALL, RISE

#: Int code of each value: bit 0 the current value, bit 1 excited.
CODE = {value: value.cur | value.excited << 1 for value in Value}
_VALUE = {code: value for value, code in CODE.items()}

#: Int-coded ``(before, after)`` pairs allowed along an edge.
_COMPATIBLE = frozenset((CODE[a], CODE[b]) for a, b in ALLOWED_EDGE_PAIRS)

#: Int-coded pairs that fire a state signal before an *input* edge
#: (see :meth:`Assignment.check_input_realizability`).
_SERIALISED = frozenset(
    (CODE[a], CODE[b])
    for a in Value for b in Value
    if a.excited and not b.excited and a.cur != b.cur
)


def expand(graph, assignment):
    """Expand ``graph`` with the state signals of ``assignment``.

    Parameters
    ----------
    graph:
        The complete state graph Σ.
    assignment:
        An edge-compatible :class:`~repro.csc.assignment.Assignment` over
        its states; :class:`~repro.csc.errors.SynthesisError` otherwise.

    Returns
    -------
    StateGraph
        A graph over ``graph.signals + assignment.names`` in which every
        state signal is an ordinary (internal, non-input) signal.  With
        no state signals that graph is ``graph`` itself.
    """
    if not assignment.names:
        return graph
    _check_compatible(graph, assignment)

    signals = list(graph.signals)
    non_inputs = set(graph.non_inputs)
    codes = [list(code) for code in graph.codes]
    edges = list(graph.edges)
    initial = graph.initial
    # Remaining four-valued columns, re-indexed as states split.
    columns = [assignment.column(name) for name in assignment.names]

    for index, name in enumerate(assignment.names):
        values = columns[index]
        codes, edges, initial, state_map = _expand_one(
            codes, edges, initial, values, name
        )
        signals.append(name)
        non_inputs.add(name)
        # Re-index later columns: splits inherit from the old state.
        for later in range(index + 1, len(columns)):
            old = columns[later]
            new = [None] * len(codes)
            for old_state, new_states in enumerate(state_map):
                for new_state in new_states:
                    new[new_state] = old[old_state]
            columns[later] = new

    return StateGraph(
        signals,
        [tuple(code) for code in codes],
        edges,
        non_inputs=non_inputs,
        initial=initial,
    )


def _check_compatible(graph, assignment):
    """Raise :class:`SynthesisError` unless every value pair along every
    edge of ``graph`` is allowed, ε edges included."""
    problems = assignment.check_edge_compatibility(graph)
    if problems:
        source, target, name = problems[0]
        raise SynthesisError(
            f"assignment of {name!r} is not edge-compatible along "
            f"{source}->{target} (plus {len(problems) - 1} more)"
        )
    for k, name in enumerate(assignment.names):
        for source, _label, target in graph.edges_by_signal(EPSILON):
            x = assignment.values[source][k]
            y = assignment.values[target][k]
            if not edge_compatible(x, y):
                raise SynthesisError(
                    f"values {x} -> {y} of {name!r} are incompatible "
                    f"along edge {source}->{target}"
                )


def _expand_one(codes, edges, initial, values, name):
    """Split the states excited for one state signal.

    Returns ``(codes, edges, initial, state_map)`` where ``state_map[old]``
    lists the new ids for each old state (one entry for stable states,
    ``[pre, post]`` for excited ones).
    """
    new_codes = []
    state_map = []
    pre_of = {}
    post_of = {}
    for state, code in enumerate(codes):
        value = values[state]
        if value.excited:
            pre_bit, post_bit = (0, 1) if value is Value.UP else (1, 0)
            pre = len(new_codes)
            new_codes.append(code + [pre_bit])
            post = len(new_codes)
            new_codes.append(code + [post_bit])
            pre_of[state] = pre
            post_of[state] = post
            state_map.append([pre, post])
        else:
            only = len(new_codes)
            new_codes.append(code + [value.cur])
            pre_of[state] = only
            post_of[state] = only
            state_map.append([only])

    new_edges = []
    # The state signal's own transitions.
    for state, value in enumerate(values):
        if value is Value.UP:
            new_edges.append((pre_of[state], (name, RISE), post_of[state]))
        elif value is Value.DOWN:
            new_edges.append((pre_of[state], (name, FALL), post_of[state]))

    for source, label, target in edges:
        x, y = values[source], values[target]
        if x == y:
            # Stable-stable copies once; excited-excited copies both sides
            # (the other signal's firing commutes with this one's).
            new_edges.append((pre_of[source], label, pre_of[target]))
            if x.excited:
                new_edges.append((post_of[source], label, post_of[target]))
        elif not x.excited and y.excited:
            # 0 -> Up or 1 -> Down: enter the target's pre-transition half.
            new_edges.append((pre_of[source], label, pre_of[target]))
        else:
            # Up -> 1 or Down -> 0: the signal fired inside the source.
            new_edges.append((post_of[source], label, pre_of[target]))

    return new_codes, new_edges, pre_of[initial], state_map


class ExpandedModel:
    """The expansion of an edge-compatible assignment, int-coded and live.

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
    excitation (``violations``, the expansion's persistence breaks).
    Inserted signals need no persistence count: along any compatible
    edge they stay excited until they fire.

    A copy's code and excitation read only the rows of its Σ state and
    that state's successors, so a flip at ``s`` re-derives the copies of
    ``s`` and of the states with a non-input edge into ``s``, and
    re-counts the labelled edges touching them.

    Building the model raises the :class:`SynthesisError` that ``expand``
    raises on an assignment that is not edge-compatible (ε edges
    included), and :meth:`flip` keeps no flip that breaks compatibility.
    """

    def __init__(self, graph, assignment):
        self.names = assignment.names
        self.rows = [[CODE[v] for v in row] for row in assignment.values]
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
        self._input_edges = []
        pairs = []                              # every edge, ε included
        for source, label, target in graph.edges:
            pair = (source, target)
            pairs.append(pair)
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
                self._input_edges.append(pair)
            self._touching[source].append(len(self._edges))
            self._touching[target].append(len(self._edges))
            self._edges.append((source, target, bit[label[0]]))

        rows = self.rows
        if not all(
            pair in _COMPATIBLE
            for a, b in pairs
            for pair in zip(rows[a], rows[b])
        ):
            _check_compatible(graph, assignment)  # names the edge

        self._exc = [0] * len(rows)
        self._cur = [0] * len(rows)
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

    def realisable(self):
        """No state signal fires before an input edge (the model's
        :meth:`Assignment.check_input_realizability`)."""
        rows = self.rows
        return not any(
            pair in _SERIALISED
            for a, b in self._input_edges
            for pair in zip(rows[a], rows[b])
        )

    def conflict_pairs(self):
        """The Σ state pairs behind the expansion's CSC conflicts.

        Copies of one Σ state never share a code, so a code class of
        the expansion holds each Σ state at most once: ``(a, b)`` with
        ``a < b`` is a pair exactly when copies of ``a`` and ``b`` share
        a code but not a signature -- the pairs of ``csc_conflicts`` on
        the expanded graph, each mapped to the Σ states it was split
        from.
        """
        classes = {}
        for state, keys in enumerate(self._keys):
            for code, signature in keys:
                if len(self._buckets[code]) > 1:
                    classes.setdefault(code, []).append((state, signature))
        pairs = set()
        for members in classes.values():
            for i, (a, signature) in enumerate(members):
                for b, other in members[i + 1:]:
                    if signature != other:
                        pairs.add((a, b))
        return pairs

    def flip(self, state, k, value):
        """Set column ``k`` of ``state`` to ``value`` if that is accepted.

        Requires the current assignment to be accepted: realisable, with
        no conflict and no violation.  Returns whether the trial
        assignment is accepted too, keeping the flip when it is and
        restoring the model when it is not.
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
