"""Every engine honours a tiny budget with a prompt LIMIT -- no hangs.

The adversarial instance is the pigeonhole principle PHP(n+1, n): provably
exponential for resolution-based search, and its conjunction BDD blows
through a small node table.  Under a near-zero budget all four engines
must *return* ``LIMIT`` -- not raise, not run away.
"""

import time

import pytest

from repro.sat import LIMIT, UNSAT, Cnf, Limits, solve_bdd, solve_with
from repro.sat.bdd_engine import nodes_for_limits, DEFAULT_MAX_NODES


def pigeonhole(holes):
    """CNF of PHP(holes+1, holes): unsatisfiable, resolution-hard."""
    cnf = Cnf()
    var = {}
    for pigeon in range(holes + 1):
        for hole in range(holes):
            var[pigeon, hole] = cnf.new_var(f"p{pigeon}h{hole}")
    for pigeon in range(holes + 1):
        cnf.add_clause([var[pigeon, hole] for hole in range(holes)])
    for hole in range(holes):
        for first in range(holes + 1):
            for second in range(first + 1, holes + 1):
                cnf.add_clause(
                    [-var[first, hole], -var[second, hole]]
                )
    return cnf


TINY = Limits(max_backtracks=2, max_seconds=0.5)


@pytest.mark.parametrize("engine", ["dpll", "cdcl", "bdd", "hybrid"])
def test_every_engine_limits_under_tiny_budget(engine):
    cnf = pigeonhole(8)
    started = time.perf_counter()
    result = solve_with(cnf, TINY, engine=engine)
    elapsed = time.perf_counter() - started
    assert result.status == LIMIT, engine
    assert elapsed < 5.0, f"{engine} did not stop promptly"


#: Per requested engine under ``Limits(max_backtracks=5)``: the
#: ``escalations`` trail and every engine run in order, as
#: ``(engine, max_backtracks)``.  The ladder's CDCL rung runs at the
#: enlarged budget (20) exactly once: its BDD rung runs BDD alone.
LADDER = {
    "dpll": (
        [("dpll", LIMIT), ("cdcl", LIMIT), ("bdd", LIMIT)],
        [("dpll", 5), ("cdcl", 20), ("bdd", 20)],
    ),
    "cdcl": (
        [("cdcl", LIMIT), ("cdcl", LIMIT), ("bdd", LIMIT)],
        [("cdcl", 5), ("cdcl", 20), ("bdd", 20)],
    ),
    "bdd": (
        [("bdd", LIMIT), ("cdcl", LIMIT)],
        [("bdd", 5), ("cdcl", 5), ("cdcl", 20)],
    ),
    "hybrid": (
        [("hybrid", LIMIT), ("cdcl", LIMIT), ("bdd", LIMIT)],
        [("dpll", 5), ("cdcl", 5), ("cdcl", 20), ("bdd", 20)],
    ),
}


@pytest.mark.parametrize("engine", sorted(LADDER))
def test_fallback_ladder_runs_each_rung_once(monkeypatch, engine):
    import repro.sat
    from repro.sat.incremental import IncrementalSolver

    runs = []

    def spy(name, original):
        def run(cnf, limits=None):
            runs.append((name, limits.max_backtracks))
            return original(cnf, limits)
        return run

    monkeypatch.setattr(repro.sat, "solve", spy("dpll", repro.sat.solve))
    monkeypatch.setattr(
        repro.sat, "solve_bdd", spy("bdd", repro.sat.solve_bdd)
    )
    cdcl_solve = IncrementalSolver.solve

    def cdcl(self, assumptions=(), limits=None):
        runs.append(("cdcl", limits.max_backtracks))
        return cdcl_solve(self, assumptions, limits)

    monkeypatch.setattr(IncrementalSolver, "solve", cdcl)
    result = solve_with(
        pigeonhole(8), Limits(max_backtracks=5), engine=engine,
        fallback=True,
    )
    trail, expected_runs = LADDER[engine]
    assert result.status == LIMIT
    assert result.escalations == trail
    assert runs == expected_runs


def test_hybrid_dpll_pass_is_not_wall_clock_bound(monkeypatch):
    # On a machine slow enough to read a huge elapsed time, the hybrid
    # engine's DPLL pass must still run to its backtrack cap: which
    # engine decides a formula may not depend on machine speed.
    import repro.sat
    from repro.obs import Stopwatch

    class SlowMachine(Stopwatch):
        def elapsed(self):
            return 1e9

    def no_rescue(cnf, limits):
        raise AssertionError("the DPLL pass handed the formula to CDCL")

    monkeypatch.setattr("repro.sat.solver.Stopwatch", SlowMachine)
    monkeypatch.setattr(repro.sat, "_oneshot_cdcl", no_rescue)
    result = solve_with(pigeonhole(2), None, engine="hybrid")
    assert result.status == UNSAT
    assert result.metrics["backtracks"] > 0


def test_bdd_engine_maps_backtracks_onto_nodes():
    # The mapping keeps generous budgets at the full table ...
    assert nodes_for_limits(None) == DEFAULT_MAX_NODES
    assert nodes_for_limits(Limits()) == DEFAULT_MAX_NODES
    assert (
        nodes_for_limits(Limits(max_backtracks=100_000))
        == DEFAULT_MAX_NODES
    )
    # ... and shrinks it for tiny ones (clamped to a workable floor).
    assert nodes_for_limits(Limits(max_backtracks=2)) == 64
    assert nodes_for_limits(Limits(max_backtracks=100)) == 800


def test_solve_bdd_limits_on_node_budget_alone():
    # No deadline: only the mapped node budget can stop it.
    result = solve_bdd(pigeonhole(8), Limits(max_backtracks=2))
    assert result.status == LIMIT


def test_solve_bdd_still_decides_small_instances_under_floor_budget():
    cnf = Cnf()
    a, b = cnf.new_var("a"), cnf.new_var("b")
    cnf.add_clause([a, b])
    cnf.add_clause([-a, b])
    result = solve_bdd(cnf, Limits(max_backtracks=1))
    assert result.status == "sat"
