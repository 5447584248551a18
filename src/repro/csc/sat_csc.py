"""The SAT-CSC encoding (Section 2.1 of the paper).

Each state ``M_i`` of the target graph gets ``m`` four-valued state
variables; each variable is encoded with two boolean variables
``(a, b) = (current_value, excited)`` (see :mod:`repro.csc.values`).  The
formula asserts three constraint families:

1. **Edge compatibility** (consistent state assignment + semi-modularity):
   along every edge the four-valued value may stay put or advance one step
   on the cycle ``0 -> Up -> 1 -> Down -> 0``.  In the two-bit encoding the
   allowed successor set collapses per source value, costing six clauses
   per edge per state signal.
2. **CSC distinction**: every conflicting pair of states must be *stably*
   separated by at least one new state signal: one state holds 0, the
   other holds 1, and neither is excited.  (Stability matters: an excited
   state splits into both a 0-half and a 1-half during expansion, so an
   excited "difference" does not separate the split products.)
3. **USC implied-value consistency**: a pair of equal-code states that is
   not a conflict must not *become* one through the new signals
   themselves.  After expansion, the split products of the two states
   collide exactly when every signal's code spans overlap; a collision is
   harmful when some signal's implied values disagree on the overlap --
   the combinations (Up,0), (Down,1), (Up,Down) and mirrors.  The clause
   set therefore requires: *some* signal separates the pair stably, or
   *no* signal carries a disagreeing combination.

Satisfying assignments decode into four-valued
:class:`~repro.csc.assignment.Assignment` columns.

The encoder reads its input graph exclusively through the
:class:`~repro.stategraph.view.StateGraphView` protocol (``states``,
``edges``, ``code_of``, ``excitation``, ``implied_values``, ``signals``,
``non_inputs``), which is why it works unchanged on the complete state
graph Σ and on the macro graphs the modular method projects from it.
"""

from __future__ import annotations

from itertools import count

from repro.csc.errors import IntrinsicConflictError
from repro.csc.values import Value
from repro.sat.cnf import Cnf
from repro.sat.incremental import IncrementalSolver
from repro.stategraph.csc import code_classes, csc_conflicts
from repro.stategraph.graph import EPSILON


class CscFormula:
    """A built SAT-CSC instance.

    Attributes
    ----------
    cnf:
        The CNF formula.
    graph:
        The state graph it encodes (complete or modular).
    m:
        Number of new state signals.
    conflict_pairs / match_pairs:
        The CSC pairs forced apart and the USC pairs kept consistent.
    """

    def __init__(self, cnf, graph, m, a_vars, b_vars, conflict_pairs,
                 match_pairs):
        self.cnf = cnf
        self.graph = graph
        self.m = m
        self._a = a_vars
        self._b = b_vars
        self.conflict_pairs = conflict_pairs
        self.match_pairs = match_pairs

    @property
    def num_vars(self):
        return self.cnf.num_vars

    @property
    def num_clauses(self):
        return self.cnf.num_clauses

    def decode(self, model):
        """Decode a SAT model into per-state tuples of :class:`Value`."""
        rows = []
        for state in self.graph.states():
            row = tuple(
                Value.from_bits(
                    1 if model[self._a[state][k]] else 0,
                    1 if model[self._b[state][k]] else 0,
                )
                for k in range(self.m)
            )
            rows.append(row)
        return rows


def build_csc_formula(graph, m, outputs=None, extra_codes=None,
                      extra_implied=None, conflict_pairs=None,
                      allow_serialisation=True):
    """Build the SAT-CSC formula for inserting ``m`` new state signals.

    Parameters
    ----------
    graph:
        The target :class:`~repro.stategraph.graph.StateGraph` (for the
        modular method, the macro graph of a quotient).
    m:
        Number of new state signals (``m >= 1``; with zero conflicts no
        formula is needed).
    outputs:
        Signals whose implied values define conflicts (defaults to the
        graph's non-inputs).
    extra_codes:
        Per-state current-value bits of already-inserted state signals.
    extra_implied:
        Per-state implied bits of already-inserted state signals (used by
        whole-graph repair, where old state signals are outputs too).
    conflict_pairs:
        Precomputed conflict pairs; computed from the graph when omitted.
    allow_serialisation:
        Whether a new state signal may fire strictly *before* an excited
        output (value pair (Up, 1)/(Down, 0) across a non-input edge).
        Allowing it is sometimes necessary (tight cycles) but makes the
        delayed output's logic depend on the new signal, growing its
        cover; the solve loop therefore tries the banned variant first.

    Raises
    ------
    IntrinsicConflictError
        If some conflict pair is intrinsic (``(s, s)``): no coding fixes it.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if conflict_pairs is None:
        conflict_pairs = csc_conflicts(
            graph, outputs=outputs, extra_codes=extra_codes,
            extra_implied=extra_implied,
        )
    intrinsic = [pair for pair in conflict_pairs if pair[0] == pair[1]]
    if intrinsic:
        raise IntrinsicConflictError(
            f"states {sorted({a for a, _ in intrinsic})} have ambiguous "
            "implied values; no state-signal insertion can satisfy CSC"
        )

    cnf = Cnf()
    a_vars = [
        [cnf.new_var(f"a[{state}][{k}]") for k in range(m)]
        for state in graph.states()
    ]
    b_vars = [
        [cnf.new_var(f"b[{state}][{k}]") for k in range(m)]
        for state in graph.states()
    ]
    # Optimising engines (the BDD solver of the follow-up paper [19])
    # minimise the number of excited states: each split costs area.
    for state_vars in b_vars:
        for var in state_vars:
            cnf.set_weight(var, 1)

    _add_edge_compatibility(cnf, graph, m, a_vars, b_vars)
    if not allow_serialisation:
        _ban_serialisation(cnf, graph, m, a_vars, b_vars)
    for i, j in conflict_pairs:
        _add_distinction(cnf, m, a_vars, b_vars, i, j)

    conflict_set = set(conflict_pairs)
    match_pairs = []
    for states in code_classes(graph, extra_codes).values():
        for x, i in enumerate(states):
            for j in states[x + 1:]:
                if (i, j) not in conflict_set:
                    match_pairs.append((i, j))
    if allow_serialisation:
        serial_flags, serial_terms = _add_serialisation_flags(
            cnf, graph, m, a_vars, b_vars
        )
        _add_output_persistence(cnf, graph, m, serial_terms)
    else:
        serial_flags = {}
    for i, j in match_pairs:
        _add_implied_consistency(
            cnf, m, a_vars, b_vars, i, j, serial_flags
        )

    return CscFormula(cnf, graph, m, a_vars, b_vars, conflict_pairs,
                      match_pairs)


def _add_edge_compatibility(cnf, graph, m, a_vars, b_vars):
    """Six clauses per (edge, state signal); see the module docstring.

    With ``u`` the source and ``v`` the target value bits:

    * from 0  ``(a=0,b=0)``: next must have a'=0
    * from Up ``(a=0,b=1)``: next must have a' xor b' = 1 (Up or 1)
    * from 1  ``(a=1,b=0)``: next must have a'=1
    * from Dn ``(a=1,b=1)``: next must have a' = b' (Down or 0)

    """
    non_inputs = graph.non_inputs
    for source, label, target in graph.edges:
        if label is EPSILON:
            continue
        input_edge = label[0] not in non_inputs
        for k in range(m):
            au, bu = a_vars[source][k], b_vars[source][k]
            av, bv = a_vars[target][k], b_vars[target][k]
            # from 0: not a'
            cnf.add_clause([au, bu, -av])
            # from Up: a' xor b'
            cnf.add_clause([au, -bu, av, bv])
            cnf.add_clause([au, -bu, -av, -bv])
            # from 1: a'
            cnf.add_clause([-au, bu, av])
            # from Down: a' == b'
            cnf.add_clause([-au, -bu, -av, bv])
            cnf.add_clause([-au, -bu, av, -bv])
            if input_edge:
                # A state signal can never fire strictly *before* an
                # input: the environment does not wait for internal
                # gates, so the ordering is unrealisable (the gate-level
                # conformance checker exposes it as a hazard/race).
                # Forbid (Up, 1) and (Down, 0) across input edges.
                cnf.add_clause([au, -bu, -av, bv])
                cnf.add_clause([-au, -bu, av, bv])


def _add_distinction(cnf, m, a_vars, b_vars, i, j):
    """Some new signal must separate i and j *stably*.

    ``d_k`` implies (a_i xor a_j) and both states unexcited on signal k;
    at least one ``d_k`` must hold.  Only the forward implication is
    needed: the disjunction forces some ``d_k`` true, which forces a real
    stable difference.
    """
    selectors = []
    for k in range(m):
        ai, aj = a_vars[i][k], a_vars[j][k]
        bi, bj = b_vars[i][k], b_vars[j][k]
        d = cnf.new_var()
        cnf.add_clause([-d, ai, aj])
        cnf.add_clause([-d, -ai, -aj])
        cnf.add_clause([-d, -bi])
        cnf.add_clause([-d, -bj])
        selectors.append(d)
    cnf.add_clause(selectors)


#: Value combinations whose expansion code spans overlap while the
#: implied values disagree.  Bits are (a_i, b_i, a_j, b_j).
_INCONSISTENT_COMBOS = (
    (0, 1, 0, 0),  # (Up, 0):   both can show code 0, implied 1 vs 0
    (0, 0, 0, 1),  # (0, Up)
    (1, 1, 1, 0),  # (Down, 1): both can show code 1, implied 0 vs 1
    (1, 0, 1, 1),  # (1, Down)
    (0, 1, 1, 1),  # (Up, Down): spans fully overlap, implied 1 vs 0
    (1, 1, 0, 1),  # (Down, Up)
)

#: The same combinations as literal signs of (a_i, b_i, a_j, b_j): a
#: clause excluding a combination negates each variable set in it.
_INCONSISTENT_SIGNS = tuple(
    tuple(-1 if bit else 1 for bit in combo) for combo in _INCONSISTENT_COMBOS
)


def _ban_serialisation(cnf, graph, m, a_vars, b_vars):
    """Forbid (Up, 1) and (Down, 0) across every non-input edge."""
    non_inputs = graph.non_inputs
    for source, label, target in graph.edges:
        if label is EPSILON or label[0] not in non_inputs:
            continue
        for k in range(m):
            au, bu = a_vars[source][k], b_vars[source][k]
            av, bv = a_vars[target][k], b_vars[target][k]
            # (Up, 1): bits (0,1) -> (1,0)
            cnf.add_clause([au, -bu, -av, bv])
            # (Down, 0): bits (1,1) -> (0,0)
            cnf.add_clause([-au, -bu, av, bv])


def _add_serialisation_flags(cnf, graph, m, a_vars, b_vars):
    """Serialisation indicators: "a new signal fires before an output".

    For every edge ``s --o--> w`` labelled by a non-input ``o`` and every
    state signal ``k``, two term variables hold iff the signal takes the
    value pair (Up, 1) resp. (Down, 0) across the edge -- the orderings
    that strip ``o``'s excitation from the pre-transition half of the
    split state.  Returns:

    * ``flags``: per-state aggregate ``S_s`` ("serialises *some* output"),
      consumed by :func:`_add_implied_consistency` -- harmless between
      equal-code partners that serialise alike, dangerous when exactly
      one side does;
    * ``terms``: ``(state, output, k) -> (up_term, down_term)``, consumed
      by :func:`_add_output_persistence`.

    Both directions of each equivalence are encoded: the variables occur
    with both polarities downstream.
    """
    flags = {}
    terms = {}
    non_inputs = graph.non_inputs
    by_source = {}
    for source, label, target in graph.edges:
        if label is EPSILON or label[0] not in non_inputs:
            continue
        by_source.setdefault(source, []).append((label[0], target))
    for source, out_edges in by_source.items():
        state_terms = []
        for output, target in out_edges:
            for k in range(m):
                au, bu = a_vars[source][k], b_vars[source][k]
                av, bv = a_vars[target][k], b_vars[target][k]
                up_one = cnf.new_var()
                # up_one <-> (Up at source, 1 at target): bits (0,1,1,0).
                cnf.add_clause([-up_one, -au])
                cnf.add_clause([-up_one, bu])
                cnf.add_clause([-up_one, av])
                cnf.add_clause([-up_one, -bv])
                cnf.add_clause([up_one, au, -bu, -av, bv])
                down_zero = cnf.new_var()
                # down_zero <-> (Down at source, 0 at target): (1,1,0,0).
                cnf.add_clause([-down_zero, au])
                cnf.add_clause([-down_zero, bu])
                cnf.add_clause([-down_zero, -av])
                cnf.add_clause([-down_zero, -bv])
                cnf.add_clause([down_zero, -au, -bu, av, bv])
                terms[(source, output, k)] = (up_one, down_zero)
                state_terms.extend((up_one, down_zero))
        flag = cnf.new_var()
        for term in state_terms:
            cnf.add_clause([-term, flag])
        cnf.add_clause([-flag] + state_terms)
        flags[source] = flag
    return flags, terms


def _add_output_persistence(cnf, graph, m, serial_terms):
    """Serialisation must propagate backwards through excitation regions.

    If state ``s`` serialises a state signal before output ``o`` on
    signal ``k``, the pre-transition half ``s_pre`` does not excite
    ``o``.  Every expansion predecessor that *does* excite ``o`` would
    then watch ``o`` lose its excitation without firing -- a glitch in
    some delay assignment.  The remedy: along every edge ``u -> s`` where
    both endpoints excite ``o``, serialisation at ``s`` implies
    serialisation at ``u`` (on the same signal ``k``), pushing the state
    signal's firing back to before ``o`` became excited.
    """
    for source, label, target in graph.edges:
        if label is EPSILON:
            continue
        fired = label[0]
        source_excited = graph.excitation(source)
        target_excited = graph.excitation(target)
        for output in target_excited:
            if output == fired or output not in source_excited:
                continue
            for k in range(m):
                down_terms = serial_terms.get((target, output, k))
                up_terms = serial_terms.get((source, output, k))
                if down_terms is None or up_terms is None:
                    continue
                t_up, t_down = down_terms
                u_up, u_down = up_terms
                cnf.add_clause([-t_up, u_up, u_down])
                cnf.add_clause([-t_down, u_up, u_down])


def _add_implied_consistency(cnf, m, a_vars, b_vars, i, j, serial_flags):
    """Keep every signal's implied value well-defined across i and j.

    The exact condition: the split products of the two states collide
    only when every new signal's code spans overlap, and a collision is
    harmful when some signal's implied values disagree on it -- either a
    new signal's own (the ``g_k`` flags) or an original output's, which
    can only diverge when exactly one of the states serialises a new
    signal before that output (the ``S`` flags; symmetric serialisation
    strips the same excitation from both sides).  Encoded with per-signal
    stable-separation selectors ``d_k``:

    * ``(d_1 | ... | d_m | -g_k)`` for every ``k``;
    * ``(d_1 | ... | d_m | -S_i | S_j)`` and the mirror image.
    """
    separators = []
    disagreements = []
    for k in range(m):
        ai, aj = a_vars[i][k], a_vars[j][k]
        bi, bj = b_vars[i][k], b_vars[j][k]
        d = cnf.new_var()
        cnf.add_clause([-d, ai, aj])
        cnf.add_clause([-d, -ai, -aj])
        cnf.add_clause([-d, -bi])
        cnf.add_clause([-d, -bj])
        separators.append(d)
        g = cnf.new_var()
        # combo -> g; only this direction is needed because g occurs
        # negatively in the final clauses (a spurious g merely
        # strengthens them, and g is free to be False otherwise).
        for combo in _INCONSISTENT_COMBOS:
            clause = [g]
            for var, bit in zip((ai, bi, aj, bj), combo):
                clause.append(-var if bit else var)
            cnf.add_clause(clause)
        disagreements.append(g)
    for g in disagreements:
        cnf.add_clause(separators + [-g])
    flag_i = serial_flags.get(i)
    flag_j = serial_flags.get(j)
    if flag_i is not None and flag_j is not None:
        cnf.add_clause(separators + [-flag_i, flag_j])
        cnf.add_clause(separators + [flag_i, -flag_j])
    elif flag_i is not None:
        cnf.add_clause(separators + [-flag_i])
    elif flag_j is not None:
        cnf.add_clause(separators + [-flag_j])


def formula_stats(formula):
    """``(num_vars, num_clauses)`` of a built formula."""
    return (formula.num_vars, formula.num_clauses)


class IncrementalCscFormula:
    """The SAT-CSC formula family of one grow-``m`` loop, *monotone*.

    :func:`build_csc_formula` produces one frozen CNF per ``(m,
    allow_serialisation)`` attempt; every attempt of a module's grow-m
    loop therefore starts a cold solver.  This class restates the same
    three constraint families so that attempts **compose**: clauses are
    only ever added, and each attempt is the current clause database
    decided under *assumptions* -- so one
    :class:`~repro.sat.incremental.IncrementalSolver` serves the whole
    loop and its learned clauses (including the refutation that proved
    ``m`` infeasible) carry forward into ``m + 1``.

    The guard scheme:

    ``e_k`` (column enable, one per state signal)
        Every clause that constrains column ``k``'s value bits -- edge
        compatibility, the input-edge bans -- is written as
        ``e_k -> clause``, and a column's distinction/separator
        selectors imply ``e_k``.  The ``m``-attempt assumes
        ``e_1 .. e_m``; a column beyond ``m`` (none exist today, because
        columns grow lazily, but the encoding does not depend on that)
        is switched off wholesale by leaving its enable free.

    ``noserial`` (serialisation guard, one per formula)
        The ban-serialisation family is written ``noserial -> clause``.
        The banned variant assumes ``noserial``, the permissive variant
        assumes ``-noserial`` -- the two variants of one ``m`` are two
        assumption sets over one shared clause database.  Under
        ``noserial`` every serialisation term is forced false, which
        satisfies the (always present) flag and persistence machinery,
        so the banned variant is equisatisfiable with the dedicated
        banned formula of the one-shot path.

    ``act_m`` (attempt activation, one per tried ``m``)
        The clauses that are *stronger* for smaller ``m`` -- "some of
        the first ``m`` selectors holds" (distinction), "``m``-column
        separation or no disagreement" (implied consistency) -- are
        written ``act_m -> clause``.  Attempt ``m`` assumes ``act_m``;
        once the loop grows past ``m``, ``act_m`` is left free and the
        obsolete stronger clauses are inert (their learned consequences
        all carry ``-act_m`` and stay sound).

    Serialisation flags, whose one-shot form aggregates terms over all
    ``m`` columns in one biconditional, become per-state *chains*:
    ``F^k <-> F^(k-1) or (column-k terms)``, so column growth appends
    clauses instead of rewriting the aggregate; the ``m``-attempt's
    consistency clauses reference ``F^m``.

    On an UNSAT attempt the solver's failed-assumption core refines the
    loop: a banned-variant core that does not contain ``noserial``
    proves the permissive variant of the same ``m`` unsatisfiable too,
    so the loop skips it outright.

    Optimisation weights (the BDD engine's minimum-excitation models)
    are *not* carried over: incremental solving is only used with the
    search engines, which ignore weights.
    """

    def __init__(self, graph, outputs=None, extra_codes=None,
                 extra_implied=None, conflict_pairs=None,
                 solver=None):
        if conflict_pairs is None:
            conflict_pairs = csc_conflicts(
                graph, outputs=outputs, extra_codes=extra_codes,
                extra_implied=extra_implied,
            )
        intrinsic = [pair for pair in conflict_pairs if pair[0] == pair[1]]
        if intrinsic:
            raise IntrinsicConflictError(
                f"states {sorted({a for a, _ in intrinsic})} have ambiguous "
                "implied values; no state-signal insertion can satisfy CSC"
            )
        self.graph = graph
        self.m = 0
        self.conflict_pairs = list(conflict_pairs)
        conflict_set = set(self.conflict_pairs)
        self.match_pairs = []
        for states in code_classes(graph, extra_codes).values():
            for x, i in enumerate(states):
                for j in states[x + 1:]:
                    if (i, j) not in conflict_set:
                        self.match_pairs.append((i, j))

        self.solver = solver if solver is not None else IncrementalSolver()
        self.noserial = self.solver.new_var()
        self._a = [[] for _ in graph.states()]
        self._b = [[] for _ in graph.states()]
        self._enables = []
        self._acts = {}  # m -> activation literal
        # Distinction selectors per conflict pair, separator/disagreement
        # selectors per match pair; one entry per grown column.
        self._dist = {pair: [] for pair in self.conflict_pairs}
        self._seps = {pair: [] for pair in self.match_pairs}
        self._disagrees = {pair: [] for pair in self.match_pairs}
        # The non-ε edges, split by whether an output labels them.
        self._edges = [
            (source, label, target)
            for source, label, target in graph.edges
            if label is not EPSILON
        ]
        non_inputs = graph.non_inputs
        self._output_edges = {}  # source -> [(output, target)], edge order
        for source, label, target in self._edges:
            if label[0] in non_inputs:
                self._output_edges.setdefault(source, []).append(
                    (label[0], target)
                )
        #: serialisation chain flags: state -> [F^1, F^2, ...]
        self._chains = {source: [] for source in self._output_edges}
        self._terms = {}  # (source, output, k) -> (up_one, down_zero)

    @property
    def num_vars(self):
        return self.solver.num_vars

    @property
    def num_clauses(self):
        return self.solver.num_clauses

    def ensure_m(self, m):
        """Grow the clause database to support the ``m``-attempt."""
        while self.m < m:
            self._grow_column()
        if m not in self._acts:
            self._add_activation(m)

    def assumptions(self, m, allow_serialisation):
        """The assumption set selecting one ``(m, variant)`` attempt."""
        if self.m < m or m not in self._acts:
            raise ValueError(f"ensure_m({m}) has not been called")
        guard = -self.noserial if allow_serialisation else self.noserial
        return self._enables[:m] + [self._acts[m], guard]

    def solve(self, m, allow_serialisation, limits=None):
        """Decide one attempt; see :meth:`IncrementalSolver.solve`."""
        self.ensure_m(m)
        return self.solver.solve(
            assumptions=self.assumptions(m, allow_serialisation),
            limits=limits,
        )

    def decode(self, model, m):
        """Decode a SAT model into per-state tuples of :class:`Value`."""
        rows = []
        for state in self.graph.states():
            row = tuple(
                Value.from_bits(
                    1 if model[self._a[state][k]] else 0,
                    1 if model[self._b[state][k]] else 0,
                )
                for k in range(m)
            )
            rows.append(row)
        return rows

    # -- column growth -----------------------------------------------------

    def _grow_column(self):
        """Add state-signal column ``k = self.m`` (monotone: no clause
        touching existing columns is revisited).

        The column's variables are numbered in the order the families
        below first use them and allocated in one call; the families'
        clauses are gathered in order and loaded in one batch.
        """
        k = self.m
        solver = self.solver
        graph = self.graph
        a, b = self._a, self._b
        fresh = count(solver.num_vars + 1)
        for state in graph.states():
            a[state].append(next(fresh))
        for state in graph.states():
            b[state].append(next(fresh))
        enable = next(fresh)
        self._enables.append(enable)
        off = -enable
        serial = -self.noserial
        non_inputs = graph.non_inputs
        clauses = []

        for source, label, target in self._edges:
            au, bu = a[source][k], b[source][k]
            av, bv = a[target][k], b[target][k]
            # The six successor clauses of _add_edge_compatibility,
            # guarded by the column enable.
            clauses += (
                [off, au, bu, -av],
                [off, au, -bu, av, bv],
                [off, au, -bu, -av, -bv],
                [off, -au, bu, av],
                [off, -au, -bu, -av, bv],
                [off, -au, -bu, av, -bv],
            )
            if label[0] not in non_inputs:
                # Input edges: never fire before the environment.
                clauses += ([off, au, -bu, -av, bv], [off, -au, -bu, av, bv])
            else:
                # Output edges: the same two orderings are *optionally*
                # banned, guarded by the serialisation guard.
                clauses += (
                    [off, serial, au, -bu, -av, bv],
                    [off, serial, -au, -bu, av, bv],
                )

        def separator(i, j):
            """A fresh selector implying column ``k`` separates states
            ``i`` and ``j`` stably."""
            ai, aj = a[i][k], a[j][k]
            d = next(fresh)
            clauses.extend((
                [-d, enable],  # a disabled column separates nothing
                [-d, ai, aj],
                [-d, -ai, -aj],
                [-d, -b[i][k]],
                [-d, -b[j][k]],
            ))
            return d

        for pair in self.conflict_pairs:
            self._dist[pair].append(separator(*pair))
        for pair in self.match_pairs:
            self._seps[pair].append(separator(*pair))
            i, j = pair
            ai, bi, aj, bj = a[i][k], b[i][k], a[j][k], b[j][k]
            g = next(fresh)
            clauses += (
                [g, sa * ai, sb * bi, sc * aj, sd * bj]
                for sa, sb, sc, sd in _INCONSISTENT_SIGNS
            )
            self._disagrees[pair].append(g)

        for source, out_edges in self._output_edges.items():
            column_terms = []
            au, bu = a[source][k], b[source][k]
            for output, target in out_edges:
                av, bv = a[target][k], b[target][k]
                up_one = next(fresh)
                down_zero = next(fresh)
                clauses += (
                    [-up_one, -au],
                    [-up_one, bu],
                    [-up_one, av],
                    [-up_one, -bv],
                    [up_one, au, -bu, -av, bv],
                    [-down_zero, au],
                    [-down_zero, bu],
                    [-down_zero, -av],
                    [-down_zero, -bv],
                    [down_zero, -au, -bu, av, bv],
                )
                self._terms[(source, output, k)] = (up_one, down_zero)
                column_terms += (up_one, down_zero)
            # Chain link: F^k <-> F^(k-1) or (this column's terms).
            chain = self._chains[source]
            flag = next(fresh)
            links = chain[-1:] + column_terms
            clauses += ([-term, flag] for term in links)
            clauses.append([-flag] + links)
            chain.append(flag)

        for source, label, target in self._edges:
            fired = label[0]
            source_excited = graph.excitation(source)
            for output in graph.excitation(target):
                if output == fired or output not in source_excited:
                    continue
                down_terms = self._terms.get((target, output, k))
                up_terms = self._terms.get((source, output, k))
                if down_terms is None or up_terms is None:
                    continue
                t_up, t_down = down_terms
                u_up, u_down = up_terms
                clauses += ([-t_up, u_up, u_down], [-t_down, u_up, u_down])

        solver.add_vars(next(fresh) - 1 - solver.num_vars)
        solver.add_clauses(clauses)
        self.m = k + 1

    def _add_activation(self, m):
        """Add the per-``m`` clause family under a fresh ``act_m``."""
        if self.m < m:
            raise ValueError(f"cannot activate m={m} with {self.m} columns")
        act = self.solver.new_var()
        inactive = -act
        clauses = [
            [inactive] + self._dist[pair][:m] for pair in self.conflict_pairs
        ]
        for pair in self.match_pairs:
            separators = [inactive] + self._seps[pair][:m]
            clauses += (separators + [-g] for g in self._disagrees[pair][:m])
            i, j = pair
            chain_i = self._chains.get(i)
            chain_j = self._chains.get(j)
            flag_i = chain_i[m - 1] if chain_i else None
            flag_j = chain_j[m - 1] if chain_j else None
            if flag_i is not None and flag_j is not None:
                clauses += (
                    separators + [-flag_i, flag_j],
                    separators + [flag_i, -flag_j],
                )
            elif flag_i is not None:
                clauses.append(separators + [-flag_i])
            elif flag_j is not None:
                clauses.append(separators + [-flag_j])
        self.solver.add_clauses(clauses)
        self._acts[m] = act
