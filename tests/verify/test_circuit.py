"""Unit tests for the gate-level circuit model."""

from collections import deque

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.logic.cover import Cover
from repro.stg import parse_g
from repro.verify import Circuit
from repro.verify.checker import ClosedLoop
from repro.verify.mutate import mutant_circuit, mutate_result
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import HANDSHAKE


def simple_circuit():
    """b = a over the vector (a, b)."""
    return Circuit(
        signals=("a", "b"),
        inputs=["a"],
        covers={"b": Cover.from_strings(2, ["1-"])},
    )


class TestConstruction:
    def test_unknown_input_rejected(self):
        with pytest.raises(ValueError):
            Circuit(("a",), ["zz"], {"a": Cover(1)})

    def test_missing_cover_rejected(self):
        with pytest.raises(ValueError):
            Circuit(("a", "b"), ["a"], {})

    def test_cover_width_checked(self):
        with pytest.raises(ValueError):
            Circuit(
                ("a", "b"), ["a"], {"b": Cover.from_strings(3, ["1--"])}
            )

    def test_from_synthesis(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(stg)
        circuit = Circuit.from_synthesis(result, stg.inputs)
        assert circuit.signals == result.expanded.signals
        assert set(circuit.inputs) == {"a"}

    def test_from_synthesis_needs_covers(self):
        stg = parse_g(HANDSHAKE)
        result = modular_synthesis(
            stg, options=SynthesisOptions(minimize=False)
        )
        with pytest.raises(ValueError):
            Circuit.from_synthesis(result, stg.inputs)


class TestEvaluation:
    def test_next_value(self):
        circuit = simple_circuit()
        assert circuit.next_value("b", (1, 0)) == 1
        assert circuit.next_value("b", (0, 1)) == 0

    def test_excited(self):
        circuit = simple_circuit()
        assert circuit.excited((1, 0)) == ["b"]
        assert circuit.excited((1, 1)) == []
        assert circuit.excited((0, 1)) == ["b"]

    def test_fire_toggles(self):
        circuit = simple_circuit()
        assert circuit.fire((1, 0), "b") == (1, 1)
        assert circuit.fire((1, 1), "a") == (0, 1)


# -- the oracle: gates evaluated by ``Cover.evaluate`` ----------------------


def _visited_vectors(circuit, graph, initial_vector):
    """Every circuit vector of the closed loop reachable from reset."""
    loop = ClosedLoop(circuit, graph)
    start = loop.initial(initial_vector)
    seen = {start}
    queue = deque([start])
    while queue:
        for _fired, successor in loop.moves(queue.popleft())[0]:
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return {vector for vector, _spec_state in seen}


@pytest.mark.parametrize("name", benchmark_names())
def test_int_gates_match_cover_evaluate(name):
    # The original circuit and each of its mutants, on every vector its
    # closed loop visits.
    stg = load_benchmark(name)
    result = modular_synthesis(stg)
    circuits = [(
        Circuit.from_synthesis(result, stg.inputs),
        result.expanded.code_of(result.expanded.initial),
    )]
    mutants = mutate_result(result)
    assert mutants
    circuits += [mutant_circuit(result, stg.inputs, m) for m in mutants]
    for circuit, initial_vector in circuits:
        for vector in _visited_vectors(circuit, result.graph, initial_vector):
            outputs = {
                signal: circuit.covers[signal].evaluate(vector)
                for signal in circuit.non_inputs
            }
            assert circuit.excited(vector) == [
                signal for signal in circuit.non_inputs
                if outputs[signal] != vector[circuit.index(signal)]
            ]
            for signal, output in outputs.items():
                assert circuit.next_value(signal, vector) == output
