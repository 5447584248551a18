# The incremental solver as it stood before its literal-coded rewrite,
# kept verbatim as the oracle of tests/sat/test_incremental_oracle.py:
# the rewrite must make the same decisions, propagations, conflicts,
# learned clauses, models and cores on every clause stream.
"""Assumption-based incremental CDCL solving for formula *sequences*.

The grow-``m`` loop (:mod:`repro.csc.solve`) decides a sequence of
closely related SAT-CSC formulas per module: the ``m``-signal attempt,
its two serialisation variants, then the ``m+1``-signal re-encoding when
``m`` proved infeasible.  The one-shot engines rebuild the CNF and start
a cold search for every member of that sequence, throwing away all
learned clauses -- including the refutation that just proved ``m``
infeasible, which is exactly the work the ``m+1`` attempt repeats.

:class:`IncrementalSolver` is the standard modern remedy (the MiniSat
``solve(assumptions)`` interface): one persistent solver accepts clauses
monotonically (:meth:`add_clause` / :meth:`add_clauses`) and decides the
formula *under assumptions* -- temporary unit hypotheses that activate
or deactivate guarded clause families without touching the clause
database.  Between calls everything expensive survives:

* **learned clauses**, tagged with their LBD (literal block distance)
  and periodically reduced -- low-LBD "glue" clauses and clauses locked
  as propagation reasons are never dropped;
* **variable activities and saved phases**, so the search resumes where
  the previous attempt's heuristic state left off;
* the **watch lists** themselves, with blocking literals so a clause
  already satisfied by its cached blocker is skipped without touching
  the clause.

Branching is VSIDS over an indexed max-heap (:class:`_VarHeap`) --
``O(log n)`` per decision instead of an ``O(num_vars)`` scan for the
most active free variable -- with ties broken towards the lowest
variable index, so two runs over the same clause stream make
identical decisions and the determinism contract of
``docs/parallelism.md`` survives.  Restarts follow the Luby sequence.

On UNSAT under assumptions the solver extracts the **failed-assumption
core**: the subset of assumptions that the refutation actually used
(``result.failed_assumptions``).  An empty core means the formula is
unsatisfiable regardless of assumptions; a core that omits a guard
literal proves every variant not assuming that guard unsatisfiable too,
which is how the solve loop skips the second serialisation variant for
free.

The same class decides every one-shot ``"cdcl"`` solve of
:func:`repro.sat.solve_with`: a fresh solver loaded with the whole CNF
(:meth:`IncrementalSolver.from_cnf`) and decided under no assumptions.

The ``Limits`` budget applies per :meth:`solve` call --
``max_backtracks`` counts that call's conflicts, keeping the paper's
"SAT backtrack limit" abort semantics meaningful -- and the wall-clock
budget is checked on every conflict *and* on a decision stride, so a
long conflict-free propagation stretch cannot blow through a deadline.
"""

from __future__ import annotations

from repro.obs import Counters, Stopwatch
from repro.sat.solver import (
    LIMIT, SAT, UNSAT, Limits, SolveResult, _TIME_CHECK_STRIDE,
)

_ACTIVITY_DECAY = 0.95
_RESCALE_LIMIT = 1e100
#: Luby restart base: restart after ``luby(i) * unit`` conflicts.
_LUBY_UNIT = 100
#: Learned clauses with LBD at or below this survive every reduction.
_DB_KEEP_LBD = 2


def luby(i):
    """The ``i``-th (1-based) element of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _Clause:
    """One clause: literal list plus learned-database metadata."""

    __slots__ = ("lits", "learned", "lbd", "seq", "deleted")

    def __init__(self, lits, learned=False, lbd=0, seq=0):
        self.lits = lits
        self.learned = learned
        self.lbd = lbd
        self.seq = seq
        self.deleted = False

    def __repr__(self):
        kind = "learned" if self.learned else "original"
        return f"_Clause({self.lits}, {kind}, lbd={self.lbd})"


class _VarHeap:
    """Indexed max-heap over variables, keyed by VSIDS activity.

    Priority order is (higher activity, then *lower* variable index):
    the index tie-break makes every decision deterministic, so equal
    activity profiles -- e.g. the all-zero start -- branch identically
    on every run and in every worker process.
    """

    __slots__ = ("activity", "heap", "pos")

    def __init__(self, activity):
        self.activity = activity  # shared 1-based list, owned by solver
        self.heap = []
        self.pos = [-1]  # 1-based: pos[var] = heap index, -1 = absent

    def _before(self, u, v):
        """True when ``u`` has priority over ``v``."""
        au, av = self.activity[u], self.activity[v]
        return au > av or (au == av and u < v)

    def _sift_up(self, i):
        heap, pos = self.heap, self.pos
        var = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if not self._before(var, heap[parent]):
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i):
        heap, pos = self.heap, self.pos
        size = len(heap)
        var = heap[i]
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and self._before(heap[right], heap[left]):
                best = right
            if not self._before(heap[best], var):
                break
            heap[i] = heap[best]
            pos[heap[i]] = i
            i = best
        heap[i] = var
        pos[var] = i

    def grow(self):
        """Register one more variable (appended to the pos table)."""
        self.pos.append(-1)

    def push(self, var):
        """Insert ``var`` unless already present."""
        if self.pos[var] >= 0:
            return
        self.heap.append(var)
        self._sift_up(len(self.heap) - 1)

    def pop(self):
        """Remove and return the highest-priority variable."""
        heap, pos = self.heap, self.pos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._sift_down(0)
        return top

    def update(self, var):
        """Restore heap order after ``var``'s activity increased."""
        if self.pos[var] >= 0:
            self._sift_up(self.pos[var])

    def __len__(self):
        return len(self.heap)


class IncrementalSolver:
    """A persistent assumption-based CDCL solver.

    Parameters
    ----------
    limits:
        Default per-:meth:`solve` budget (overridable per call).
    reduce_base / reduce_inc:
        Learned-database reduction schedule: a reduction pass runs when
        the database exceeds ``reduce_base + reduce_inc * reductions``
        clauses.  The defaults never trigger on the paper's modular
        instances; tests inject tiny values to exercise the pass.

    Usage::

        solver = IncrementalSolver()
        x, y = solver.new_var(), solver.new_var()
        solver.add_clauses([[x, y], [-x, y]])
        result = solver.solve(assumptions=[-y])
        result.status                 # "unsat"
        result.failed_assumptions     # (-y,)
        solver.solve().status         # "sat" -- clauses persist
    """

    def __init__(self, limits=None, reduce_base=2000, reduce_inc=1000):
        self.limits = limits if limits is not None else Limits()
        self.reduce_base = reduce_base
        self.reduce_inc = reduce_inc
        self.num_vars = 0
        self.value = [0]  # 1-based: 0 unassigned, 1 true, -1 false
        self.level = [0]
        self.reason = [None]
        self.saved_phase = [False]
        self.activity = [0.0]
        self.heap = _VarHeap(self.activity)
        self.watches = {}  # literal -> list of [clause, blocking literal]
        self.clauses = []  # problem clauses (never removed)
        self.learned = []  # learned clauses (reduction target)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.bump = 1.0
        self.root_conflict = False
        self._seq = 0
        #: lifetime statistics (per-call numbers ride on SolveResult)
        self.solves = 0
        self.total_conflicts = 0
        self.total_reductions = 0

    # -- formula growth ----------------------------------------------------

    @classmethod
    def from_cnf(cnf_class, cnf, limits=None, **kwargs):
        """A solver preloaded with an existing :class:`~repro.sat.cnf.Cnf`."""
        solver = cnf_class(limits=limits, **kwargs)
        solver.add_vars(cnf.num_vars)
        solver.add_clauses(cnf.clauses)
        return solver

    def new_var(self):
        """Allocate a fresh variable; returns its (positive) index."""
        self.num_vars += 1
        self.value.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.saved_phase.append(False)
        self.activity.append(0.0)
        self.heap.grow()
        self.heap.push(self.num_vars)
        return self.num_vars

    def add_vars(self, count):
        """Allocate ``count`` variables; returns the last index."""
        last = self.num_vars
        for _ in range(count):
            last = self.new_var()
        return last

    def add_clause(self, literals):
        """Add one clause; only legal between :meth:`solve` calls.

        The clause is simplified against the root-level assignments:
        literals already false at level 0 are dropped, and a clause with
        a root-true literal is discarded as satisfied (level-0
        assignments are permanent).  Tautologies are dropped, duplicate
        literals deduplicated; an empty (or fully falsified) clause
        marks the whole formula unsatisfiable.
        """
        if self.trail_lim:
            raise RuntimeError("add_clause during an active solve")
        seen = set()
        clause = []
        for literal in literals:
            literal = int(literal)
            var = literal if literal > 0 else -literal
            if var == 0 or var > self.num_vars:
                raise ValueError(f"literal {literal} uses unknown variable")
            if -literal in seen:
                return  # tautology
            if literal in seen:
                continue
            value = self.value[var]
            if value != 0:  # root-level assignment
                if (value > 0) == (literal > 0):
                    return  # already satisfied forever
                continue  # already falsified forever
            seen.add(literal)
            clause.append(literal)
        if not clause:
            self.root_conflict = True
            return
        if len(clause) == 1:
            self._assign(clause[0], None)
            return
        record = _Clause(list(clause), seq=self._next_seq())
        self.clauses.append(record)
        self._watch(record)

    def add_clauses(self, clauses):
        """Add every clause of an iterable (the plural of ``add_clause``)."""
        for clause in clauses:
            self.add_clause(clause)

    @property
    def num_clauses(self):
        """Problem clauses currently stored (learned ones not counted)."""
        return len(self.clauses)

    def _next_seq(self):
        self._seq += 1
        return self._seq

    def _watch(self, record):
        lits = record.lits
        self.watches.setdefault(lits[0], []).append([record, lits[1]])
        self.watches.setdefault(lits[1], []).append([record, lits[0]])

    # -- assignment / trail ------------------------------------------------

    def _lit_value(self, literal):
        value = self.value[literal if literal > 0 else -literal]
        if value == 0:
            return 0
        return value if literal > 0 else -value

    def _assign(self, literal, reason):
        var = literal if literal > 0 else -literal
        self.value[var] = 1 if literal > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.saved_phase[var] = literal > 0
        self.trail.append(literal)

    def _cancel_until(self, target_level):
        if len(self.trail_lim) <= target_level:
            return
        limit = self.trail_lim[target_level]
        value, reason, push = self.value, self.reason, self.heap.push
        for literal in self.trail[limit:]:
            var = literal if literal > 0 else -literal
            value[var] = 0
            reason[var] = None
            push(var)
        del self.trail[limit:]
        del self.trail_lim[target_level:]
        self.qhead = limit

    def _bump_var(self, var):
        self.activity[var] += self.bump
        if self.activity[var] > _RESCALE_LIMIT:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.bump *= 1e-100
        self.heap.update(var)

    # -- propagation -------------------------------------------------------

    def _propagate(self):
        """Exhaust the propagation queue; returns a conflict clause or
        ``None``.  Watch entries carry a blocking literal: when the
        cached blocker is already true the clause is skipped without
        being touched (the dominant case on re-visited clauses)."""
        value = self.value
        watches = self.watches
        propagated = 0
        conflict = None
        while self.qhead < len(self.trail):
            literal = self.trail[self.qhead]
            self.qhead += 1
            falsified = -literal
            watchers = watches.get(falsified)
            if not watchers:
                continue
            i = keep = 0
            count = len(watchers)
            while i < count:
                entry = watchers[i]
                i += 1
                blocker = entry[1]
                bval = value[blocker if blocker > 0 else -blocker]
                if (bval > 0) == (blocker > 0) and bval != 0:
                    watchers[keep] = entry
                    keep += 1
                    continue
                record = entry[0]
                if record.deleted:
                    continue  # lazily drop watchers of reduced clauses
                lits = record.lits
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                fval = value[first if first > 0 else -first]
                if fval != 0 and (fval > 0) == (first > 0):
                    entry[1] = first
                    watchers[keep] = entry
                    keep += 1
                    continue
                moved = False
                for j in range(2, len(lits)):
                    other = lits[j]
                    oval = value[other if other > 0 else -other]
                    if oval == 0 or (oval > 0) == (other > 0):
                        lits[1], lits[j] = lits[j], lits[1]
                        entry[1] = first
                        watches.setdefault(lits[1], []).append(entry)
                        moved = True
                        break
                if moved:
                    continue
                watchers[keep] = entry
                keep += 1
                if fval != 0:  # first is false: conflict
                    while i < count:
                        watchers[keep] = watchers[i]
                        keep += 1
                        i += 1
                    conflict = record
                    break
                self._assign(first, record)
                propagated += 1
            del watchers[keep:]
            if conflict is not None:
                break
        self.propagations += propagated
        return conflict

    # -- conflict analysis -------------------------------------------------

    def _analyze(self, conflict):
        """First-UIP analysis.

        Returns ``(learned literals, backjump level, lbd)``; the
        asserting literal is placed *last* (the attach step moves it to
        watch slot 0).
        """
        learned = []
        seen = bytearray(self.num_vars + 1)
        touched = []
        counter = 0
        pivot = None
        index = len(self.trail) - 1
        current = len(self.trail_lim)
        record = conflict
        level = self.level

        while True:
            lits = record.lits
            for q in (lits[1:] if pivot is not None else lits):
                var = q if q > 0 else -q
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = 1
                touched.append(var)
                self._bump_var(var)
                if level[var] == current:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[abs(self.trail[index])]:
                index -= 1
            pivot = self.trail[index]
            var = abs(pivot)
            record = self.reason[var]
            seen[var] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learned.append(-pivot)

        if len(learned) == 1:
            backjump = 0
        else:
            backjump = max(level[abs(q)] for q in learned[:-1])
        lbd = len({level[abs(q)] for q in learned})
        return learned, backjump, lbd

    def _analyze_final(self, failed_literal, assumptions):
        """The failed-assumption core behind a falsified assumption.

        Walks the implication graph backwards from ``failed_literal``
        (an assumption found false while being established) and
        collects every assumption *decision* the refutation rests on.
        Returns the core in assumption-list order -- a subset such that
        the formula is already unsatisfiable under it alone.
        """
        core = {failed_literal}
        if not self.trail_lim:
            return tuple(a for a in assumptions if a in core)
        seen = bytearray(self.num_vars + 1)
        seen[abs(failed_literal)] = 1
        level = self.level
        for index in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            literal = self.trail[index]
            var = abs(literal)
            if not seen[var]:
                continue
            record = self.reason[var]
            if record is None:
                if level[var] > 0:
                    core.add(literal)
            else:
                for q in record.lits:
                    if level[abs(q)] > 0:
                        seen[abs(q)] = 1
            seen[var] = 0
        picked = []
        for assumption in assumptions:
            if assumption in core and assumption not in picked:
                picked.append(assumption)
        return tuple(picked)

    def _attach_learned(self, learned, lbd):
        """Store a learned clause, watch it, assert its literal."""
        learned = list(learned)
        learned[0], learned[-1] = learned[-1], learned[0]
        if len(learned) == 1:
            self._assign(learned[0], None)
            return
        if len(learned) > 2:
            deepest = max(
                range(1, len(learned)),
                key=lambda i: self.level[abs(learned[i])],
            )
            learned[1], learned[deepest] = learned[deepest], learned[1]
        record = _Clause(learned, learned=True, lbd=lbd,
                         seq=self._next_seq())
        self.learned.append(record)
        self._watch(record)
        self._assign(learned[0], record)

    # -- learned-database reduction ----------------------------------------

    def _locked(self, record):
        """Is this clause the propagation reason of an assigned var?"""
        first = record.lits[0]
        return self.reason[first if first > 0 else -first] is record

    def _reduce_db(self):
        """Drop the worse half of the disposable learned clauses.

        Kept unconditionally: glue clauses (LBD <= ``_DB_KEEP_LBD``),
        binary clauses and clauses locked as propagation reasons.  The
        rest are ranked by (LBD, newest first) and the worse half is
        deleted -- marked and purged from the watch lists, so the trail
        and all reasons stay untouched and the reduction is safe at any
        decision level.
        """
        candidates = []
        for record in self.learned:
            if (record.lbd <= _DB_KEEP_LBD or len(record.lits) <= 2
                    or self._locked(record)):
                continue
            candidates.append(record)
        candidates.sort(key=lambda r: (r.lbd, -r.seq))
        for record in candidates[len(candidates) // 2:]:
            record.deleted = True
        self.learned = [r for r in self.learned if not r.deleted]
        for watchers in self.watches.values():
            watchers[:] = [e for e in watchers if not e[0].deleted]
        self.total_reductions += 1

    # -- branching ---------------------------------------------------------

    def _pick_branch(self):
        heap = self.heap
        value = self.value
        while len(heap):
            var = heap.pop()
            if value[var] == 0:
                return var if self.saved_phase[var] else -var
        return None

    # -- the solve loop ----------------------------------------------------

    def solve(self, assumptions=(), limits=None):
        """Decide the accumulated formula under ``assumptions``.

        Returns a :class:`~repro.sat.solver.SolveResult` whose
        ``metrics`` additionally carry ``incremental_solves``,
        ``learned_kept`` (learned clauses carried in from earlier
        calls), ``db_reductions`` and ``assumption_cores``.  On UNSAT,
        ``result.failed_assumptions`` holds the extracted core (a tuple
        of assumption literals; empty when the formula is unsatisfiable
        under *no* assumptions); otherwise it is ``None``.
        """
        limits = self.limits if limits is None else limits
        watch = Stopwatch()
        self.solves += 1
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        reductions_before = self.total_reductions
        learned_kept = len(self.learned)
        assumptions = [int(a) for a in assumptions]

        failed = None

        def result(status, assignment=None):
            metrics = Counters(
                decisions=self.decisions,
                propagations=self.propagations,
                backtracks=self.conflicts,
                seconds=watch.elapsed(),
                incremental_solves=1,
                learned_kept=learned_kept,
                db_reductions=self.total_reductions - reductions_before,
                assumption_cores=1 if failed else 0,
            )
            outcome = SolveResult(status, assignment, 0, 0, 0, 0.0,
                                  metrics=metrics)
            outcome.failed_assumptions = (
                failed if status == UNSAT else None
            )
            return outcome

        self._cancel_until(0)
        if self.root_conflict:
            failed = ()
            return result(UNSAT)
        for literal in assumptions:
            var = abs(literal)
            if not 1 <= var <= self.num_vars:
                raise ValueError(
                    f"assumption {literal} uses unknown variable"
                )

        restart_index = 1
        restart_budget = _LUBY_UNIT * luby(restart_index)
        conflicts_since_restart = 0
        time_check = _TIME_CHECK_STRIDE
        max_seconds = limits.max_seconds

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                self.total_conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    # Conflict with no decisions: UNSAT outright (the
                    # empty core -- no assumption was even in play).
                    self.root_conflict = True
                    failed = ()
                    return result(UNSAT)
                if (limits.max_backtracks is not None
                        and self.conflicts >= limits.max_backtracks):
                    self._cancel_until(0)
                    return result(LIMIT)
                if watch.exceeded(max_seconds):
                    self._cancel_until(0)
                    return result(LIMIT)
                learned, backjump, lbd = self._analyze(conflict)
                self._cancel_until(backjump)
                self._attach_learned(learned, lbd)
                self.bump /= _ACTIVITY_DECAY
                if (len(self.learned)
                        >= self.reduce_base
                        + self.reduce_inc * self.total_reductions):
                    self._reduce_db()
                if conflicts_since_restart >= restart_budget:
                    conflicts_since_restart = 0
                    restart_index += 1
                    restart_budget = _LUBY_UNIT * luby(restart_index)
                    self._cancel_until(0)
                continue

            # No conflict: establish assumptions, then branch.
            branch = None
            while len(self.trail_lim) < len(assumptions):
                literal = assumptions[len(self.trail_lim)]
                value = self._lit_value(literal)
                if value == 1:
                    # Already satisfied: push an empty pseudo-level so
                    # assumption i always lives at decision level i+1.
                    self.trail_lim.append(len(self.trail))
                elif value == -1:
                    failed = self._analyze_final(literal, assumptions)
                    self._cancel_until(0)
                    return result(UNSAT)
                else:
                    branch = literal
                    break
            if branch is None:
                branch = self._pick_branch()
                if branch is None:
                    assignment = {
                        v: self.value[v] == 1
                        for v in range(1, self.num_vars + 1)
                    }
                    self._cancel_until(0)
                    return result(SAT, assignment)
                self.decisions += 1
                time_check -= 1
                if time_check <= 0:
                    time_check = _TIME_CHECK_STRIDE
                    if watch.exceeded(max_seconds):
                        self._cancel_until(0)
                        return result(LIMIT)
            self.trail_lim.append(len(self.trail))
            self._assign(branch, None)

    def __repr__(self):
        return (
            f"IncrementalSolver(vars={self.num_vars}, "
            f"clauses={len(self.clauses)}, learned={len(self.learned)}, "
            f"solves={self.solves})"
        )
