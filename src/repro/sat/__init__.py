"""SAT solving: CNF building and three interchangeable engines.

The paper solves its CSC constraint formulas with "an efficient
implementation of a branch and bound algorithm" (the SAT program shipped
with SIS, Stephan et al. 1992).  This package provides:

* :mod:`repro.sat.cnf` -- a CNF builder with named variables and
  optional optimisation weights;
* :mod:`repro.sat.solver` -- the era-faithful chronological DPLL with
  two-watched-literal propagation (its "backtrack limit" produces the
  Table-1 aborts);
* :mod:`repro.sat.incremental` -- the one conflict-driven solver (1UIP
  learning, VSIDS, Luby restarts, assumptions).  The grow-``m`` loop
  keeps one across its attempts; a one-shot ``"cdcl"`` solve is a fresh
  one loaded with the CNF and decided under no assumptions;
* :mod:`repro.sat.bdd_engine` -- decision by BDD construction returning
  *minimum-weight* models (the follow-up paper's area-driven approach);
* :func:`solve_with` -- engine dispatch, defaulting to a DPLL-then-CDCL
  hybrid, with an optional fallback ladder that escalates engines on a
  ``LIMIT`` outcome.
"""

from repro import obs
from repro.runtime.faults import should_fire as _fault_fires
from repro.sat.cnf import Cnf
from repro.sat.bdd_engine import solve_bdd
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import (
    LIMIT,
    SAT,
    UNSAT,
    Limits,
    SolveResult,
    solve,
)

#: The engine names :func:`solve_with` accepts; options, the request
#: API and the command line all validate against this tuple.
ENGINES = ("hybrid", "dpll", "cdcl", "bdd")

#: The SAT modes of a grow-``m`` loop (see ``SynthesisOptions.sat_mode``);
#: options, the request API and the command line validate against this.
SAT_MODES = ("incremental", "oneshot")


#: Budget for the DPLL pass of the hybrid engine.  It is counted in
#: backtracks only, so which engine decides a formula does not depend
#: on machine speed; a caller's ``limits`` still clip it.
_HYBRID_DPLL_LIMITS = Limits(max_backtracks=50_000)

#: Budget multipliers for the ladder's enlarged CDCL retry.
_LADDER_BACKTRACK_FACTOR = 4
_LADDER_SECONDS_FACTOR = 2.0


def solve_with(cnf, limits=None, engine="hybrid", fallback=False,
               budget=None):
    """Solve with a named engine.

    * ``"dpll"`` -- the chronological branch-and-bound search matching
      the solver class the paper used.
    * ``"cdcl"`` -- clause learning, backjumping, restarts: a fresh
      :class:`IncrementalSolver` decides the CNF under no assumptions.
    * ``"bdd"`` -- decide by BDD construction and return the model
      minimising the CNF's variable weights (the follow-up paper's
      area-driven approach); on a node/time blow-up the instance falls
      back to CDCL (losing only the optimality, not the decision).
    * ``"hybrid"`` (default) -- a budgeted DPLL pass first, CDCL on
      limit.  DPLL's static variable order sweeps the state graph like a
      wavefront and tends to produce *compact* state-signal excitation
      regions (smaller covers); CDCL guarantees the instance still gets
      decided when DPLL thrashes.

    All engines honour the same :class:`Limits` budget.

    With ``fallback=True`` a ``LIMIT`` outcome climbs the escalation
    ladder -- the requested engine, then CDCL with an enlarged budget,
    then the BDD engine alone (its CDCL rescue would repeat the rung
    before it) -- and the trail of ``(engine, status)`` rungs is
    recorded on ``result.escalations``.  ``budget`` (a
    :class:`~repro.runtime.budget.Budget`) additionally clips every rung
    to the run's remaining global allowance, so the ladder can never
    climb past the run deadline.
    """
    if budget is not None:
        limits = budget.sub_limits(limits)
    result = _solve_once(cnf, limits, engine)
    if result.status != LIMIT or not fallback:
        return result
    trail = [(engine, result.status)]
    for rung_engine, rung_limits in _ladder(engine, limits, budget):
        obs.add("escalations")
        obs.event("escalate", engine=rung_engine)
        result = _solve_once(cnf, rung_limits, rung_engine, rescue=False)
        trail.append((rung_engine, result.status))
        if result.status != LIMIT:
            break
    result.escalations = trail
    return result


def _solve_once(cnf, limits, engine, rescue=True):
    """One rung: dispatch to a single engine.

    ``"hybrid"`` and ``"bdd"`` hand a ``LIMIT`` to CDCL unless
    ``rescue`` is off.
    """
    if _fault_fires("solver-limit", detail=engine):
        return SolveResult(LIMIT, None, 0, 0, 0, 0.0)
    if engine == "cdcl":
        return _oneshot_cdcl(cnf, limits)
    if engine == "dpll":
        return solve(cnf, limits)
    if engine == "bdd":
        result = solve_bdd(cnf, limits)
    elif engine == "hybrid":
        first = _HYBRID_DPLL_LIMITS
        if limits is not None:
            first = Limits(
                max_backtracks=_min_opt(
                    limits.max_backtracks, first.max_backtracks
                ),
                max_seconds=_min_opt(limits.max_seconds, first.max_seconds),
            )
        result = solve(cnf, first)
    else:
        raise ValueError(f"unknown SAT engine {engine!r}")
    if result.status != LIMIT or not rescue:
        return result
    return _oneshot_cdcl(cnf, limits)


def _oneshot_cdcl(cnf, limits):
    """One-shot CDCL: a fresh :class:`IncrementalSolver`, no assumptions.

    Only the search statistics are passed on.  The result carries no
    assumption core and none of the incremental counters, so a one-shot
    UNSAT never reads as a core-based refutation and never counts as an
    incremental solve.
    """
    found = IncrementalSolver.from_cnf(cnf).solve(limits=limits)
    stats = found.metrics
    return SolveResult(
        found.status, found.assignment, stats["decisions"],
        stats["propagations"], stats["backtracks"], stats["seconds"],
    )


def _ladder(engine, limits, budget):
    """Escalation rungs after ``engine`` exhausted ``limits``.

    CDCL gets an enlarged budget (learning needs room the first attempt
    did not have); the BDD rung is the last resort because its cost is
    structural, not search-bound.  Every rung is clipped to the global
    budget so escalation never outlives the run deadline.
    """
    enlarged = None
    if limits is not None:
        enlarged = Limits(
            max_backtracks=_scale_opt(
                limits.max_backtracks, _LADDER_BACKTRACK_FACTOR
            ),
            max_seconds=_scale_opt(
                limits.max_seconds, _LADDER_SECONDS_FACTOR
            ),
        )
    rungs = [("cdcl", enlarged)]
    if engine != "bdd":
        rungs.append(("bdd", enlarged))
    for rung_engine, rung_limits in rungs:
        if budget is not None:
            rung_limits = budget.sub_limits(rung_limits)
        yield rung_engine, rung_limits


def _scale_opt(value, factor):
    if value is None:
        return None
    scaled = value * factor
    return type(value)(scaled) if isinstance(value, int) else scaled


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


__all__ = [
    "Cnf",
    "ENGINES",
    "IncrementalSolver",
    "LIMIT",
    "Limits",
    "SAT",
    "SAT_MODES",
    "SolveResult",
    "UNSAT",
    "solve",
    "solve_bdd",
    "solve_with",
]
