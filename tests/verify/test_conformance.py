"""Closed-loop conformance tests: synthesised circuits against their STGs.

Every synthesised circuit must pass the checker at ``hazards``: CSC,
conformance and excitation persistency.
"""

import pytest

from repro.baselines import lavagno_synthesis
from repro.bench import load_benchmark
from repro.csc import direct_synthesis, modular_synthesis
from repro.logic.cover import Cover
from repro.stategraph import build_state_graph
from repro.stg import parse_g
from repro.verify import Circuit, check_circuit, verify_result

from tests.example_stgs import ALL, HANDSHAKE

SMALL_BENCHMARKS = [
    "vbe-ex1", "sendr-done", "nousc-ser", "nouse", "fifo", "wrdata",
    "sbuf-read-ctl", "atod", "alloc-outbound", "alex-nonfc",
]


@pytest.mark.parametrize("name", sorted(ALL))
def test_modular_circuits_conform(name):
    stg = parse_g(ALL[name])
    report = verify_result(modular_synthesis(stg), stg, level="hazards")
    assert report.ok, report.violations


@pytest.mark.parametrize("name", sorted(ALL))
def test_direct_circuits_conform(name):
    stg = parse_g(ALL[name])
    report = verify_result(direct_synthesis(stg), stg, level="hazards")
    assert report.ok, report.violations


@pytest.mark.parametrize("name", SMALL_BENCHMARKS)
def test_benchmark_circuits_conform(name):
    stg = load_benchmark(name)
    graph = build_state_graph(stg)
    report = verify_result(modular_synthesis(graph), stg, level="hazards")
    assert report.ok, report.violations


@pytest.mark.parametrize("name", SMALL_BENCHMARKS[:4])
def test_lavagno_circuits_conform(name):
    stg = load_benchmark(name)
    graph = build_state_graph(stg)
    report = verify_result(lavagno_synthesis(graph), stg, level="hazards")
    assert report.ok, report.violations


class TestViolationDetection:
    def test_broken_cover_is_caught(self):
        # Invert grant's function: the circuit immediately misbehaves.
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        graph = result.expanded
        bad_covers = dict(result.covers)
        bad_covers["b"] = Cover.from_strings(len(graph.signals), ["0-"])
        circuit = Circuit(graph.signals, stg.inputs, bad_covers)
        report = check_circuit(circuit, result.graph)
        assert report.verdict is False
        kinds = {v.kind for v in report.violations}
        assert "unexpected-output" in kinds or "missing-output" in kinds

    def test_constant_cover_misses_outputs(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        graph = result.expanded
        dead_covers = dict(result.covers)
        dead_covers["b"] = Cover(len(graph.signals))  # constant 0
        circuit = Circuit(graph.signals, stg.inputs, dead_covers)
        report = check_circuit(circuit, result.graph)
        assert any(
            v.kind == "missing-output" and v.signal == "b"
            for v in report.violations
        )

    def test_violation_has_trace(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        graph = result.expanded
        bad_covers = dict(result.covers)
        bad_covers["b"] = Cover.from_strings(len(graph.signals), ["--"])
        circuit = Circuit(graph.signals, stg.inputs, bad_covers)
        report = check_circuit(circuit, result.graph)
        assert report.verdict is False
        violation = report.violations[0]
        assert isinstance(violation.trace, tuple)
        assert "Counterexample" in repr(violation)

    def test_spec_signals_must_be_subset(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        circuit = Circuit(("a",), ["a"], {})
        with pytest.raises(ValueError):
            check_circuit(circuit, result.graph)
