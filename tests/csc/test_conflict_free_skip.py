"""Outputs without a CSC conflict skip their modular pass, exactly.

The module loop skips an output when the conflict pass finds it
conflict-free on Σ's ε-only projection, under the state signals
inserted so far.  The oracle re-runs the full pass the loop skipped --
input-set derivation, then ``partition_sat`` -- on the same inputs: it
must add no signal and make no SAT attempt.
"""

import pytest

from repro import obs
from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import synthesis
from repro.csc.input_set import determine_input_set
from repro.csc.modular import partition_sat
from repro.perf import ProjectionCache
from repro.runtime.options import SynthesisOptions
from repro.runtime.run import run_synthesis
from repro.stg import parse_g
from repro.stg.generate import generate_stg
from repro.stategraph import build_state_graph

from tests.example_stgs import (
    ALL,
    CHOICE,
    CONCURRENT,
    HANDSHAKE,
    generated_corpus,
)


@pytest.fixture
def skips(monkeypatch):
    """Run the full pass behind every skip; collect ``(output, detail)``."""
    seen = []
    solve_module = synthesis._solve_module

    def checked(graph, output, assignment, modules, report, *, clean=None,
                **kwargs):
        if clean is not None:
            cache = ProjectionCache(graph)
            input_set = determine_input_set(
                graph, output, assignment, cache=cache
            )
            partition = partition_sat(
                graph, output, input_set, assignment,
                limits=kwargs["limits"], max_signals=kwargs["max_signals"],
                name_start=assignment.num_signals,
                signal_prefix=kwargs["signal_prefix"],
                engine=kwargs["engine"], cache=cache,
                sat_mode=kwargs["sat_mode"],
            )
            assert partition.signals_added == 0, output
            assert partition.outcome.attempts == [], output
            seen.append((output, clean))
        return solve_module(
            graph, output, assignment, modules, report, clean=clean, **kwargs
        )

    monkeypatch.setattr(synthesis, "_solve_module", checked)
    return seen


def _synthesise(stg):
    return synthesis.modular_synthesis(
        build_state_graph(stg), options=SynthesisOptions(minimize=False)
    )


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_skips_match_the_full_pass(name, skips):
    result = _synthesise(load_benchmark(name))
    skipped = {output for output, _detail in skips}
    for module in result.modules:
        assert (module.input_set is None) == (module.output in skipped)


@pytest.mark.parametrize(
    "stg",
    [parse_g(text) for _name, text in sorted(ALL.items())]
    + [g.stg for g in generated_corpus()],
    ids=sorted(ALL) + [g.name for g in generated_corpus()],
)
def test_example_skips_match_the_full_pass(stg, skips):
    _synthesise(stg)
    assert skips


def test_table1_skip_totals(skips):
    # 40 of the 91 outputs are conflict-free on Σ; 8 more are by the time
    # the loop reaches them, after earlier modules inserted signals.
    outputs = 0
    for name in benchmark_names():
        outputs += len(_synthesise(load_benchmark(name)).modules)
    details = [detail for _output, detail in skips]
    assert outputs == 91
    assert details.count(synthesis.CLEAN_ON_SIGMA) == 40
    assert details.count(synthesis.CLEAN_WITH_SIGNALS) == 8


@pytest.mark.parametrize(
    "stg",
    [parse_g(HANDSHAKE), parse_g(CONCURRENT), parse_g(CHOICE),
     generate_stg(16, 4, 0.0, seed=1).stg],
    ids=["handshake", "concurrent", "choice", "gen-s16-w4-1"],
)
def test_conflict_free_run_reports_every_output_once(stg):
    with obs.tracing() as tracer:
        report = run_synthesis(stg)
    assert report.status == "ok"
    assert report.exit_code == 0
    outputs = sorted(build_state_graph(stg).non_inputs)
    assert sorted(m.output for m in report.modules) == outputs
    for entry in report.modules:
        assert entry.status == "ok"
        assert entry.signals_added == 0
        assert entry.detail == synthesis.CLEAN_ON_SIGMA
    for module in report.result.modules:
        assert module.input_set is None and module.partition is None
        assert (module.num_macro_states, module.attempts) == (0, [])
    stats = tracer.stats_dict()
    assert "input_set" not in stats
    assert "project" not in stats
    assert tracer.counter_totals()["modules_conflict_free"] == len(outputs)
