"""The shared solve loop: grow ``m`` until the SAT-CSC formula satisfies.

Both the direct method and the modular method follow the same schema
(Figure 4's inner loop): start from the lower bound on state signals,
derive the boolean constraint formula, search for a truth assignment, and
add one more state signal whenever the formula is unsatisfiable.
"""

from __future__ import annotations

from functools import partial

from repro import obs
from repro.csc.errors import BacktrackLimitError, SynthesisError
from repro.csc.sat_csc import IncrementalCscFormula, build_csc_formula
from repro.obs import Counters, Stopwatch
from repro.runtime.faults import should_fire as _fault_fires
from repro.sat import solve_with
from repro.sat.solver import LIMIT, SAT, SolveResult
from repro.stategraph.csc import csc_conflicts, csc_lower_bound

#: Safety cap: no benchmark needs anywhere near this many state signals.
DEFAULT_MAX_SIGNALS = 12

#: Engines the incremental SAT core may replace.  ``"dpll"`` stays the
#: era-faithful chronological search (the Table-1 abort regime) and
#: ``"bdd"`` returns minimum-weight models; neither behaviour exists in
#: the incremental solver, so those engines always solve one-shot.
INCREMENTAL_ENGINES = ("hybrid", "cdcl")


class AttemptStats:
    """Statistics of one formula build + solve attempt.

    ``metrics`` is the attempt's :class:`~repro.obs.metrics.Counters`
    bag -- the solver's counters plus the formula size -- shared with
    the trace span that timed the attempt; the formula size is also
    readable as properties.
    """

    def __init__(self, m, num_vars, num_clauses, result):
        self.m = m
        self.status = result.status
        self.metrics = Counters(
            num_vars=num_vars, num_clauses=num_clauses
        ).merge(result.metrics)
        #: ``(engine, status)`` rungs when the fallback ladder escalated
        #: this attempt, else ``()``.
        self.escalations = tuple(getattr(result, "escalations", None) or ())

    @property
    def num_vars(self):
        return self.metrics["num_vars"]

    @property
    def num_clauses(self):
        return self.metrics["num_clauses"]

    @property
    def escalated(self):
        return len(self.escalations) > 1

    def __repr__(self):
        return (
            f"AttemptStats(m={self.m}, vars={self.num_vars}, "
            f"clauses={self.num_clauses}, {self.status})"
        )


class SolveOutcome:
    """Result of the grow-``m`` loop.

    Attributes
    ----------
    rows:
        Per-state tuples of :class:`~repro.csc.values.Value`, one entry
        per new state signal (empty tuples when none were needed).
    m:
        Number of state signals inserted.
    attempts:
        :class:`AttemptStats` for every formula tried (including the
        unsatisfiable ones).
    seconds:
        Total wall-clock time of the loop.
    """

    def __init__(self, rows, m, attempts, seconds):
        self.rows = rows
        self.m = m
        self.attempts = attempts
        self.seconds = seconds


def solve_state_signals(graph, outputs=None, extra_codes=None,
                        extra_implied=None, limits=None,
                        max_signals=DEFAULT_MAX_SIGNALS,
                        extra_conflict_pairs=(), engine="hybrid",
                        on_limit="raise", conflict_pairs=None,
                        extra_excited=None, budget=None, fallback=False,
                        sat_mode="incremental"):
    """Insert the fewest state signals the SAT search finds satisfiable.

    Parameters
    ----------
    graph:
        Target state graph (complete for the direct method, the modular
        macro graph for the paper's method).
    outputs / extra_codes / extra_implied:
        Conflict definition; see
        :func:`repro.stategraph.csc.csc_conflicts`.
    limits:
        :class:`repro.sat.solver.Limits` budget per solve.
    max_signals:
        Hard cap on ``m`` (malformed inputs would otherwise loop).
    on_limit:
        What to do when a solve exhausts its budget: ``"raise"`` aborts
        with :class:`BacktrackLimitError` (the direct method's Table-1
        behaviour), ``"skip"`` treats the attempt as unsatisfiable and
        moves on to ``m + 1`` (the modular passes prefer trying a larger
        or less aggressive instance over giving up).
    budget / fallback:
        Optional run-wide :class:`~repro.runtime.budget.Budget` (clips
        every per-solve budget, pools backtracks, and adds a checkpoint
        before each attempt) and the engine-fallback ladder switch,
        both forwarded to :func:`repro.sat.solve_with`.
    sat_mode:
        ``"incremental"`` (default) holds one assumption-based
        :class:`~repro.sat.incremental.IncrementalSolver` for the whole
        grow-``m`` loop: learned clauses carry across attempts, the two
        serialisation variants of one ``m`` share a clause database,
        and a banned-variant UNSAT core that never used the
        serialisation guard skips the permissive re-solve outright.
        ``"oneshot"`` rebuilds the CNF and starts a cold engine per
        attempt -- the paper-faithful baseline.  The mode only applies
        to the :data:`INCREMENTAL_ENGINES`; ``"dpll"``/``"bdd"`` keep
        their one-shot semantics regardless.  An incremental attempt
        that exhausts its budget is retried one-shot through
        :func:`~repro.sat.solve_with` (and its escalation ladder when
        ``fallback`` is set) before the ``on_limit`` policy applies --
        the retry is journalled as an ``oneshot_fallback`` event, never
        silent.

    Raises
    ------
    BacktrackLimitError
        When the SAT search exhausts its budget and ``on_limit="raise"``.
    SynthesisError
        When ``max_signals`` is reached without a satisfiable formula.
    IntrinsicConflictError
        When a conflict is intrinsic to a merged state (no coding exists).
    """
    watch = Stopwatch()
    if conflict_pairs is not None:
        # Caller-selected subset (e.g. the sequential baseline resolves
        # one conflict class per round).
        conflicts = list(conflict_pairs)
    else:
        conflicts = csc_conflicts(
            graph, outputs=outputs, extra_codes=extra_codes,
            extra_implied=extra_implied,
        )

    def stably_separated(i, j):
        """True if the pair's split products can never share a code.

        The original signals never split, so any original-code difference
        separates; an existing state signal separates only when its
        values are stable (unexcited) on *both* sides and differ -- an
        excited side spans both code values after expansion.
        """
        if graph.code_of(i) != graph.code_of(j):
            return True
        if extra_codes is None:
            return False
        for k in range(len(extra_codes[i])):
            if extra_codes[i][k] == extra_codes[j][k]:
                continue
            if extra_excited is None:
                continue  # cannot prove stability; keep the pair
            if not extra_excited[i][k] and not extra_excited[j][k]:
                return True
        return False

    for pair in extra_conflict_pairs:
        # Pairs already stably told apart need no new work.
        if not stably_separated(*pair):
            if pair not in conflicts:
                conflicts.append(pair)
    if not conflicts:
        rows = [() for _ in graph.states()]
        return SolveOutcome(rows, 0, [], watch.elapsed())

    if conflict_pairs is not None:
        m = 1  # the subset's own lower bound is not precomputed
    else:
        m = max(
            1,
            _finite(csc_lower_bound(
                graph, outputs=outputs, extra_codes=extra_codes,
                extra_implied=extra_implied,
            )),
        )
    # Under the skip policy (the modular passes), each m first tries the
    # serialisation-free variant: its solutions keep the original outputs'
    # logic independent of the new signals (smaller covers).  Under the
    # abort policy (the direct baseline) only the permissive formula is
    # solved -- one formula per m, as in the original monolithic method,
    # so a budget exhaustion is attributable to *the* formula.
    variants = (False, True) if on_limit == "skip" else (True,)
    incremental = None
    if sat_mode == "incremental" and engine in INCREMENTAL_ENGINES:
        incremental = IncrementalCscFormula(
            graph, outputs=outputs, extra_codes=extra_codes,
            extra_implied=extra_implied, conflict_pairs=conflicts,
        )
    mode = {} if incremental is None else {"sat_mode": "incremental"}

    def solve_oneshot(formula):
        """A cold solve of one built formula: ``(result, row decoder)``."""
        result = solve_with(
            formula.cnf, limits, engine=engine, fallback=fallback,
            budget=budget,
        )
        return result, formula.decode

    attempts = []
    while m <= max_signals:
        skip_permissive = False
        for allow_serialisation in variants:
            if allow_serialisation and skip_permissive:
                # The banned-variant core proved this variant UNSAT.
                obs.add("variant_skips")
                continue
            if budget is not None:
                budget.checkpoint("solve-state-signals")
            build = partial(
                build_csc_formula, graph, m, outputs=outputs,
                extra_codes=extra_codes, extra_implied=extra_implied,
                conflict_pairs=conflicts,
                allow_serialisation=allow_serialisation,
            )
            with obs.span("encode", m=m) as encode_span:
                if incremental is None:
                    formula = build()
                else:
                    formula = incremental
                    formula.ensure_m(m)
                encode_span.add("num_clauses", formula.num_clauses)
                encode_span.add("num_vars", formula.num_vars)
            with obs.span("sat_attempt", m=m, engine=engine,
                          **mode) as attempt_span:
                if incremental is None:
                    result, rows_of = solve_oneshot(formula)
                else:
                    result = _solve_incremental(
                        incremental, m, allow_serialisation, limits,
                        budget, engine,
                    )
                    rows_of = partial(incremental.decode, m=m)
                    if result.status == LIMIT:
                        obs.add("oneshot_fallbacks")
                        obs.event(
                            "oneshot_fallback", m=m, engine=engine,
                            variant=("permissive" if allow_serialisation
                                     else "banned"),
                        )
                        result, rows_of = solve_oneshot(build())
                attempt_span.set("status", result.status)
                attempt_span.add("sat_attempts")
                attempt_span.add("num_clauses", formula.num_clauses)
                attempt_span.add("num_vars", formula.num_vars)
                attempt_span.merge(result.metrics)
            if budget is not None:
                budget.charge_backtracks(result.backtracks)
            attempts.append(
                AttemptStats(
                    m, formula.num_vars, formula.num_clauses, result
                )
            )
            if result.status == LIMIT and on_limit != "skip":
                raise BacktrackLimitError(
                    f"SAT backtrack limit reached with m={m} "
                    f"({formula.num_clauses} clauses, "
                    f"{formula.num_vars} vars)",
                    backtracks=result.backtracks,
                    seconds=watch.elapsed(),
                )
            if result.status == SAT:
                rows = rows_of(result.assignment)
                return SolveOutcome(rows, m, attempts, watch.elapsed())
            core = result.failed_assumptions
            if (not allow_serialisation and core is not None
                    and incremental.noserial not in core):
                skip_permissive = True
        m += 1
    raise SynthesisError(
        f"no satisfiable formula up to m={max_signals} state signals"
    )


def _solve_incremental(formula, m, allow_serialisation, limits, budget,
                       engine):
    """One attempt on the shared :class:`IncrementalCscFormula`."""
    if budget is not None:
        limits = budget.sub_limits(limits)
    if _fault_fires("solver-limit", detail=engine):
        return SolveResult(LIMIT, None, 0, 0, 0, 0.0)
    return formula.solve(m, allow_serialisation, limits)


def _finite(bound):
    """Map an infinite lower bound to a loud failure."""
    if bound == float("inf"):
        from repro.csc.errors import IntrinsicConflictError

        raise IntrinsicConflictError(
            "graph has an intrinsically ambiguous merged state"
        )
    return int(bound)
