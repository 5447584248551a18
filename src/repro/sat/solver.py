"""DPLL branch-and-bound with two-watched-literal propagation.

This mirrors the solver class the paper relied on (Stephan/Brayton's SIS
SAT program): depth-first search with unit propagation and *chronological*
backtracking -- no clause learning, no restarts.  The ``Limits`` budget is
the paper's "backtrack limit": Table 1's large direct formulas abort with
:data:`LIMIT` instead of completing.
"""

from __future__ import annotations

from repro.obs import Counters, Stopwatch

SAT = "sat"
UNSAT = "unsat"
#: Returned when the search gave up because a budget was exhausted.
LIMIT = "limit"

#: Decisions between wall-clock checks.  Conflicts always check the
#: deadline, but a long conflict-free decide/propagate stretch must not
#: be allowed to sail past ``Limits.max_seconds`` unchecked.
_TIME_CHECK_STRIDE = 64


class Limits:
    """Search budgets.

    Parameters
    ----------
    max_backtracks:
        Maximum number of conflicts repaired by backtracking before the
        search aborts (``None`` = unlimited).
    max_seconds:
        Wall-clock budget (``None`` = unlimited).
    """

    def __init__(self, max_backtracks=None, max_seconds=None):
        self.max_backtracks = max_backtracks
        self.max_seconds = max_seconds


class SolveResult:
    """Outcome of a solver run.

    Attributes
    ----------
    status:
        :data:`SAT`, :data:`UNSAT` or :data:`LIMIT`.
    assignment:
        dict ``var -> bool`` when satisfiable, else ``None``.
    metrics:
        A :class:`~repro.obs.metrics.Counters` bag holding the search
        statistics (``decisions``, ``propagations``, ``backtracks``,
        ``seconds``, plus engine-specific counters such as
        ``bdd_nodes``).  ``backtracks``, the budget charge, is also a
        property reading from it.
    failed_assumptions:
        The assumption core of an UNSAT decided under assumptions by
        :meth:`~repro.sat.incremental.IncrementalSolver.solve`, else
        ``None``.
    """

    def __init__(self, status, assignment, decisions, propagations,
                 backtracks, seconds, metrics=None):
        self.status = status
        self.assignment = assignment
        if metrics is None:
            metrics = Counters(
                decisions=decisions, propagations=propagations,
                backtracks=backtracks, seconds=seconds,
            )
        self.metrics = metrics
        self.failed_assumptions = None
        #: ``(engine, status)`` rungs when the fallback ladder ran
        #: (:func:`repro.sat.solve_with`), else ``None``.
        self.escalations = None

    @property
    def backtracks(self):
        return self.metrics["backtracks"]

    def __repr__(self):
        metrics = self.metrics
        return (
            f"SolveResult({self.status}, decisions={metrics['decisions']}, "
            f"backtracks={metrics['backtracks']}, "
            f"{metrics['seconds']:.3f}s)"
        )


def solve(cnf, limits=None):
    """Decide satisfiability of ``cnf`` under optional ``limits``."""
    return _Search(cnf, limits or Limits()).run()


class _Search:
    def __init__(self, cnf, limits):
        self.cnf = cnf
        self.limits = limits
        self.num_vars = cnf.num_vars
        self.clauses = [list(clause) for clause in cnf.clauses]
        # value[v]: 0 unassigned, 1 true, -1 false (1-based vars).
        self.value = [0] * (self.num_vars + 1)
        self.trail = []  # (literal, is_decision, tried_both)
        self.watches = {}  # literal -> list of clause indices watching it
        self.decisions = 0
        self.propagations = 0
        self.backtracks = 0
        # Static branching order: variables by descending literal frequency,
        # preferred phase = the more frequent literal (a MOMs-style, 1990s
        # heuristic).
        counts = {}
        for clause in self.clauses:
            for literal in clause:
                counts[literal] = counts.get(literal, 0) + 1
        self.order = sorted(
            range(1, self.num_vars + 1),
            key=lambda v: -(counts.get(v, 0) + counts.get(-v, 0)),
        )
        self.phase = [
            counts.get(v, 0) >= counts.get(-v, 0)
            for v in range(self.num_vars + 1)
        ]
        self.next_order_pos = 0
        self.order_pos_stack = []

    # -- literal values --------------------------------------------------------

    def _lit_value(self, literal):
        value = self.value[abs(literal)]
        if value == 0:
            return 0
        return value if literal > 0 else -value

    # -- setup ------------------------------------------------------------------

    def _init_watches(self):
        """Returns False if an empty clause makes the formula UNSAT."""
        units = []
        for index, clause in enumerate(self.clauses):
            if not clause:
                return None
            if len(clause) == 1:
                units.append(clause[0])
                continue
            for literal in clause[:2]:
                self.watches.setdefault(literal, []).append(index)
        return units

    # -- propagation --------------------------------------------------------------

    def _assign(self, literal, is_decision):
        self.value[abs(literal)] = 1 if literal > 0 else -1
        self.trail.append([literal, is_decision, False])

    def _propagate(self, queue):
        """Unit-propagate; returns True on success, False on conflict."""
        head = 0
        while head < len(queue):
            literal = queue[head]
            head += 1
            falsified = -literal
            watchers = self.watches.get(falsified, [])
            i = 0
            while i < len(watchers):
                index = watchers[i]
                clause = self.clauses[index]
                # Make sure the falsified literal is in slot 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._lit_value(other) == 1:
                    i += 1
                    continue
                # Look for a replacement watch.
                replacement = None
                for j in range(2, len(clause)):
                    if self._lit_value(clause[j]) != -1:
                        replacement = j
                        break
                if replacement is not None:
                    clause[1], clause[replacement] = (
                        clause[replacement], clause[1],
                    )
                    watchers[i] = watchers[-1]
                    watchers.pop()
                    self.watches.setdefault(clause[1], []).append(index)
                    continue
                # No replacement: clause is unit or conflicting.
                other_value = self._lit_value(other)
                if other_value == -1:
                    return False  # conflict
                if other_value == 0:
                    self._assign(other, is_decision=False)
                    self.propagations += 1
                    queue.append(other)
                i += 1
        return True

    # -- backtracking -------------------------------------------------------------

    def _backtrack(self):
        """Undo to the most recent decision not yet tried both ways.

        Returns the literal to try next (the flipped decision), or None if
        the search space is exhausted.
        """
        self.backtracks += 1
        while self.trail:
            literal, is_decision, tried_both = self.trail[-1]
            if is_decision and not tried_both:
                # Flip this decision in place; it is no longer a decision
                # (both phases will then have been explored).
                self.trail.pop()
                self.value[abs(literal)] = 0
                self.next_order_pos = self.order_pos_stack.pop()
                flipped = -literal
                self._assign(flipped, is_decision=False)
                return flipped
            self.trail.pop()
            self.value[abs(literal)] = 0
            if is_decision:
                self.next_order_pos = self.order_pos_stack.pop()
        return None

    def _pick_branch(self):
        while self.next_order_pos < len(self.order):
            var = self.order[self.next_order_pos]
            if self.value[var] == 0:
                return var if self.phase[var] else -var
            self.next_order_pos += 1
        return None

    # -- main loop ---------------------------------------------------------------

    def run(self):
        watch = Stopwatch()

        def result(status):
            assignment = None
            if status == SAT:
                assignment = {
                    v: self.value[v] == 1 for v in range(1, self.num_vars + 1)
                }
            return SolveResult(
                status, assignment, self.decisions, self.propagations,
                self.backtracks, watch.elapsed(),
            )

        units = self._init_watches()
        if units is None:
            return result(UNSAT)
        queue = []
        for literal in units:
            value = self._lit_value(literal)
            if value == -1:
                return result(UNSAT)
            if value == 0:
                self._assign(literal, is_decision=False)
                queue.append(literal)
        if not self._propagate(queue):
            return result(UNSAT)

        while True:
            branch = self._pick_branch()
            if branch is None:
                return result(SAT)
            self.decisions += 1
            if (
                self.decisions % _TIME_CHECK_STRIDE == 0
                and watch.exceeded(self.limits.max_seconds)
            ):
                return result(LIMIT)
            self.order_pos_stack.append(self.next_order_pos)
            self._assign(branch, is_decision=True)
            self.trail[-1][1] = True  # mark decision
            queue = [branch]
            while not self._propagate(queue):
                if (
                    self.limits.max_backtracks is not None
                    and self.backtracks >= self.limits.max_backtracks
                ):
                    return result(LIMIT)
                if watch.exceeded(self.limits.max_seconds):
                    return result(LIMIT)
                flipped = self._backtrack()
                if flipped is None:
                    return result(UNSAT)
                queue = [flipped]
