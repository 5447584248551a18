"""Every named fault-injection point degrades its site, never crashes it."""

import pytest

from repro.csc import modular_synthesis
from repro.csc.errors import SynthesisError
from repro.petrinet.errors import UnboundedNetError
from repro.runtime import faults
from repro.sat import LIMIT, SAT, Cnf, solve_bdd, solve_with
from repro.stg import parse_g
from repro.stg.errors import GFormatError
from repro.stategraph import build_state_graph
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import CSC_CONFLICT


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


def _tiny_cnf():
    cnf = Cnf()
    a, b = cnf.new_var("a"), cnf.new_var("b")
    cnf.add_clause([a, b])
    cnf.add_clause([-a, b])
    return cnf


def test_unknown_point_rejected():
    with pytest.raises(ValueError):
        faults.inject("no-such-point")


def test_shots_are_bounded_and_counted():
    spec = faults.inject("solver-limit", times=2)
    assert faults.should_fire("solver-limit")
    assert faults.should_fire("solver-limit")
    assert not faults.should_fire("solver-limit")
    assert spec.fired == 2


def test_injected_context_manager_disarms():
    # Membership, not emptiness: the CI fault matrix may have armed
    # unrelated points through REPRO_FAULTS.
    with faults.injected("parse-error"):
        assert "parse-error" in faults.active()
    assert "parse-error" not in faults.active()


def test_solver_limit_point_forces_limit():
    with faults.injected("solver-limit"):
        result = solve_with(_tiny_cnf(), engine="hybrid")
    assert result.status == LIMIT


def test_solver_limit_point_can_target_one_engine():
    # Only the dpll rung is faulted; the hybrid dispatch is untouched.
    with faults.injected(
        "solver-limit", times=None, match=lambda engine: engine == "dpll"
    ):
        assert solve_with(_tiny_cnf(), engine="dpll").status == LIMIT
        assert solve_with(_tiny_cnf(), engine="hybrid").status == SAT


def test_fallback_ladder_recovers_from_injected_limit():
    with faults.injected("solver-limit"):
        result = solve_with(_tiny_cnf(), engine="hybrid", fallback=True)
    assert result.status == SAT
    assert result.escalations[0] == ("hybrid", LIMIT)
    assert result.escalations[-1][1] == SAT


def test_reachability_overflow_point():
    stg = parse_g(CSC_CONFLICT)
    with faults.injected("reachability-overflow"):
        with pytest.raises(UnboundedNetError):
            build_state_graph(stg)


def test_bdd_blowup_point_reports_limit():
    with faults.injected("bdd-blowup"):
        assert solve_bdd(_tiny_cnf()).status == LIMIT
    # ... and the "bdd" engine's built-in rescue still decides it.
    with faults.injected("bdd-blowup"):
        assert solve_with(_tiny_cnf(), engine="bdd").status == SAT


def test_parse_error_point():
    with faults.injected("parse-error"):
        with pytest.raises(GFormatError):
            parse_g(CSC_CONFLICT)


def test_module_solve_point_raises_synthesis_error():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    with faults.injected("module-solve"):
        with pytest.raises(SynthesisError):
            modular_synthesis(graph)


def test_module_solve_point_degrades_when_allowed():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    with faults.injected("module-solve", match=lambda output: output == "c"):
        result = modular_synthesis(
            graph, options=SynthesisOptions(degrade=True)
        )
    entry = result.report.module("c")
    assert entry.status == "degraded"
    assert result.report.status == "degraded"
    # The degraded run still satisfies CSC.
    from repro.stategraph import csc_conflicts

    assert csc_conflicts(result.expanded) == []


# -- environment arming (the CI fault matrix) -------------------------------

@pytest.fixture
def _clean_env_registry():
    yield
    faults.clear(env=True)


def test_load_env_parses_points_and_shot_counts(_clean_env_registry):
    handles = faults.load_env("module-solve:2, cache-corrupt-record")
    assert [h.point for h in handles] == [
        "module-solve", "cache-corrupt-record",
    ]
    assert handles[0].remaining == 2
    assert handles[1].remaining is None  # unlimited
    assert faults.should_fire("module-solve")
    assert faults.should_fire("cache-corrupt-record")


def test_load_env_rejects_unknown_point_and_bad_count():
    with pytest.raises(ValueError):
        faults.load_env("no-such-point")
    with pytest.raises(ValueError):
        faults.load_env("module-solve:many")


def test_env_faults_survive_plain_clear(_clean_env_registry):
    faults.load_env("cache-io-error")
    faults.clear()  # what every test fixture does
    assert faults.should_fire("cache-io-error", detail="get")
    faults.clear(env=True)
    assert not faults.should_fire("cache-io-error", detail="get")


def test_test_armed_fault_shadows_env_fault(_clean_env_registry):
    env_spec, = faults.load_env("module-solve")
    spec = faults.inject("module-solve", times=1)
    assert faults.active()["module-solve"] is spec
    assert faults.should_fire("module-solve")
    assert spec.fired == 1  # the test-armed spec took the shot
    assert env_spec.fired == 0
    # The spent test spec no longer shadows; the env fault shows again.
    assert faults.active()["module-solve"] is env_spec


def test_load_env_empty_spec_arms_nothing(_clean_env_registry):
    assert faults.load_env("") == []
    assert not faults.active()


def test_cache_points_are_registered():
    for point in ("cache-corrupt-record", "cache-io-error"):
        assert point in faults.POINTS
