"""Differential cross-checks: every synthesis method, one contract.

The three methods (modular, direct, lavagno) and the modular method's
execution variants (one-shot SAT, warm result cache) differ only in
*how* they reach a result.  One harness pins what they must all agree
on, for benchmark STGs and Hypothesis-generated controllers alike:

* the expanded graph satisfies CSC;
* collapsing the inserted state signals recovers the original state
  graph (behaviour preservation);
* the gate-level closed loop conforms to the specification and is
  hazard-free (:func:`repro.verify.verify_result` at ``hazards``).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines import lavagno_synthesis
from repro.bench import benchmark_names, load_benchmark
from repro.csc import direct_synthesis, modular_synthesis
from repro.runtime.options import SynthesisOptions
from repro.stategraph import build_state_graph, csc_conflicts, quotient
from repro.stg import parse_g
from repro.verify import verify_result

from tests.example_stgs import ALL, controller, generated_corpus, well_formed
from tests.verify.test_conformance import SMALL_BENCHMARKS


def _synthesise_modular(graph):
    return modular_synthesis(graph, options=SynthesisOptions(minimize=True))


def _synthesise_modular_cached(graph, tmp_path):
    options = SynthesisOptions(minimize=True, cache_dir=str(tmp_path))
    modular_synthesis(graph, options=options)  # prime
    return modular_synthesis(graph, options=options)  # warm


def _synthesise_modular_oneshot(graph):
    return modular_synthesis(
        graph, options=SynthesisOptions(minimize=True, sat_mode="oneshot")
    )


def _synthesise_direct(graph):
    return direct_synthesis(graph, options=SynthesisOptions(minimize=True))


def _synthesise_lavagno(graph):
    return lavagno_synthesis(graph, options=SynthesisOptions(minimize=True))


METHODS = {
    "modular": _synthesise_modular,
    "modular-oneshot": _synthesise_modular_oneshot,
    "direct": _synthesise_direct,
    "lavagno": _synthesise_lavagno,
}


def check_synthesis(stg, graph, result):
    """The behavioural contract every method must satisfy."""
    assert csc_conflicts(result.expanded) == [], (
        "expanded graph still has CSC conflicts"
    )
    if result.assignment.names:
        collapsed = quotient(
            result.expanded, hidden_signals=result.assignment.names
        ).graph
        assert sorted(collapsed.codes) == sorted(graph.codes), (
            "collapsing the inserted signals does not recover the "
            "original state graph"
        )
    report = verify_result(result, stg, level="hazards")
    assert report.ok, report.violations


DIFFERENTIAL_BENCHMARKS = SMALL_BENCHMARKS[:6]


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name", DIFFERENTIAL_BENCHMARKS)
def test_benchmarks_differential(name, method):
    stg = load_benchmark(name)
    graph = build_state_graph(stg)
    check_synthesis(stg, graph, METHODS[method](graph))


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name", sorted(ALL))
def test_examples_differential(name, method):
    stg = parse_g(ALL[name])
    graph = build_state_graph(stg)
    check_synthesis(stg, graph, METHODS[method](graph))


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize(
    "name", sorted(g.name for g in generated_corpus())
)
def test_generated_differential(name, method):
    # The seeded generated corpus (fixed seeds, capped signal count)
    # runs the same cross-method contract beyond the hand-written
    # examples: CSC, behaviour preservation, and closed-loop
    # conformance for every method variant.
    generated = {g.name: g for g in generated_corpus()}[name]
    graph = build_state_graph(generated.stg)
    check_synthesis(generated.stg, graph, METHODS[method](graph))


def test_warm_cache_differential(tmp_path):
    # The cached variant hits the filesystem, so it gets its own (non-
    # parametrized) pass over a benchmark and an example.
    for source in (load_benchmark("vbe-ex1"), parse_g(ALL["handshake"])):
        graph = build_state_graph(source)
        result = _synthesise_modular_cached(graph, tmp_path)
        check_synthesis(source, graph, result)


@pytest.mark.parametrize("name", benchmark_names())
def test_sat_modes_agree(name):
    # The incremental solver must be a pure accelerant: on every Table-1
    # spec, the same final state-signal count as the cold one-shot loop,
    # and rows that pass the full behavioural contract.
    stg = load_benchmark(name)
    graph = build_state_graph(stg)
    per_mode = {}
    for mode in ("incremental", "oneshot"):
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=True, sat_mode=mode)
        )
        check_synthesis(stg, graph, result)
        per_mode[mode] = result
    assert (
        len(per_mode["incremental"].assignment.names)
        == len(per_mode["oneshot"].assignment.names)
    ), "sat modes disagree on the number of inserted state signals"


@settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(controller())
def test_fuzzed_controllers_differential(text):
    stg = well_formed(text)
    if stg is None:
        return
    graph = build_state_graph(stg)
    signals = {}
    for method in ("modular", "modular-oneshot", "direct"):
        result = METHODS[method](graph)
        check_synthesis(stg, graph, result)
        signals[method] = len(result.assignment.names)
    assert signals["modular"] == signals["modular-oneshot"], (
        "sat modes disagree on the number of inserted state signals"
    )
