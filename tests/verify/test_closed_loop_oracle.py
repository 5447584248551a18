"""The packed closed loop against the tuple-vector loop it replaces.

``_ReferenceLoop`` and ``reference_check_circuit`` are ``ClosedLoop``
and ``check_circuit`` as they were before vectors were packed into ints
and each vector's gates memoised, kept verbatim apart from one line:
the persistency check visits the disabled gates in signal order (the
excited list) instead of the order of a ``set`` of their names, which
depended on the string hash seed.  Gate outputs come from
``Circuit.next_value``, one gate at a time.

The two must give equal ``VerifyReport.as_dict()`` documents: verdict,
states explored, truncation, and every counterexample's kind, signal,
trace, vector and detail, in order.  Every counterexample the packed
loop records must replay.
"""

import functools
import importlib.util
import os
from collections import deque

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.stategraph import build_state_graph
from repro.stg.generate import generate_stg
from repro.verify import (
    Circuit,
    check_circuit,
    mutant_circuit,
    mutate_result,
    replay_counterexample,
    replay_trace,
    verify_result,
)
from repro.verify.checker import (
    _CHECK_EVERY,
    ClosedLoop,
    Counterexample,
    VerifyReport,
    reset_vector,
)

from tests.example_stgs import ALL, generated_corpus


def _excited(circuit, vector):
    return [
        signal for signal in circuit.non_inputs
        if circuit.next_value(signal, vector) != vector[circuit.index(signal)]
    ]


def _fire(circuit, vector, signal):
    i = circuit.index(signal)
    return vector[:i] + (1 - vector[i],) + vector[i + 1:]


class _ReferenceLoop:
    def __init__(self, circuit, graph):
        spec_signals = set(graph.signals)
        unknown = spec_signals - set(circuit.signals)
        if unknown:
            raise ValueError(
                f"specification signals missing from circuit: "
                f"{sorted(unknown)}"
            )
        self.circuit = circuit
        self.graph = graph
        self.spec_signals = frozenset(spec_signals)
        self.state_signals = tuple(
            s for s in circuit.signals if s not in spec_signals
        )

    def initial(self, initial_vector=None):
        if initial_vector is None:
            initial_vector = reset_vector(self.circuit, self.graph)
        else:
            initial_vector = tuple(initial_vector)
            if len(initial_vector) != len(self.circuit.signals):
                raise ValueError("initial vector length mismatch")
        return (initial_vector, self.graph.initial)

    def spec_enabled(self, spec_state):
        return {
            label[0]: target
            for label, target in self.graph.out_edges(spec_state)
        }

    def moves(self, state):
        vector, spec_state = state
        circuit = self.circuit
        enabled = self.spec_enabled(spec_state)
        excited = _excited(circuit, vector)
        moves = []
        unexpected = []
        for signal, target in enabled.items():
            if signal in circuit.inputs:
                moves.append(
                    (signal, (_fire(circuit, vector, signal), target))
                )
        for signal in excited:
            next_vector = _fire(circuit, vector, signal)
            if signal in self.spec_signals:
                target = enabled.get(signal)
                if target is None:
                    unexpected.append(signal)
                    continue
                moves.append((signal, (next_vector, target)))
            else:
                moves.append((signal, (next_vector, spec_state)))
        return moves, excited, unexpected


def reference_check_circuit(circuit, graph, level="hazards", budget=None,
                            max_states=200_000, max_violations=10,
                            initial_vector=None):
    loop = _ReferenceLoop(circuit, graph)
    check_hazards = level == "hazards"
    initial = loop.initial(initial_vector)

    seen = {initial: None}  # state -> (previous state, fired signal)
    queue = deque([initial])
    violations = []
    flagged = set()  # (kind, signal) already recorded
    truncated = False
    pops = 0

    def trace_of(state):
        trace = []
        while seen[state] is not None:
            state, fired = seen[state]
            trace.append(fired)
        return tuple(reversed(trace))

    def record(kind, signal, vector, trace, detail):
        if (kind, signal) in flagged:
            return
        flagged.add((kind, signal))
        violations.append(
            Counterexample(kind, signal, trace, vector=vector, detail=detail)
        )

    while queue and len(violations) < max_violations:
        if len(seen) > max_states:
            truncated = True
            break
        if budget is not None:
            pops += 1
            if pops % _CHECK_EVERY == 0:
                budget.checkpoint("verify")
            budget.check_states(len(seen), point="verify")
        state = queue.popleft()
        vector, spec_state = state
        moves, excited, unexpected = loop.moves(state)

        for signal in unexpected:
            record(
                "unexpected-output", signal, vector, trace_of(state),
                f"circuit excites {signal} but the specification does "
                f"not enable it",
            )

        # Missing-output check: with the state signals settled, the
        # excited outputs must cover everything Σ enables.
        if all(s not in excited for s in loop.state_signals):
            for signal, _target in loop.spec_enabled(spec_state).items():
                if signal not in circuit.inputs and signal not in excited:
                    record(
                        "missing-output", signal, vector, trace_of(state),
                        f"state signals settled but {signal} is not "
                        f"excited although the specification requires it",
                    )

        if not moves:
            record(
                "deadlock", None, vector, trace_of(state),
                "closed loop is stuck although the specification is live",
            )
            continue

        for fired, successor in moves:
            if check_hazards:
                # Excitation persistency (semi-modularity): every gate
                # excited before the firing stays excited or fired.
                after = set(_excited(circuit, successor[0]))
                for signal in excited:
                    if signal != fired and signal not in after:
                        kind = (
                            "output-hazard"
                            if signal in loop.spec_signals
                            else "semi-modularity"
                        )
                        record(
                            kind, signal, vector,
                            trace_of(state) + (fired,),
                            f"firing {fired} disables the excited "
                            f"gate {signal} without it firing",
                        )
            if successor not in seen:
                seen[successor] = (state, fired)
                queue.append(successor)

    return VerifyReport(
        level,
        checks=(
            ("conformance", "persistency")
            if check_hazards else ("conformance",)
        ),
        violations=violations,
        states_explored=len(seen),
        truncated=truncated,
    )


# -- comparisons --------------------------------------------------------------


def assert_loops_match(circuit, graph, initial_vector=None, **limits):
    """Equal documents at both closed-loop levels; every recorded
    counterexample replays."""
    for level in ("conformance", "hazards"):
        report = check_circuit(
            circuit, graph, level=level, initial_vector=initial_vector,
            **limits,
        )
        expected = reference_check_circuit(
            circuit, graph, level=level, initial_vector=initial_vector,
            **limits,
        )
        assert report.as_dict() == expected.as_dict()
        for cex in report.violations:
            assert replay_counterexample(
                circuit, graph, cex, initial_vector=initial_vector
            ) is True
    return report


def assert_moves_match(circuit, graph, initial_vector=None, limit=300):
    """``moves``/``step``/``replay_trace`` on the first states of a BFS."""
    loop = ClosedLoop(circuit, graph)
    reference = _ReferenceLoop(circuit, graph)
    start = loop.initial(initial_vector)
    assert start == reference.initial(initial_vector)
    seen = {start: ()}
    queue = deque([start])
    while queue and len(seen) < limit:
        state = queue.popleft()
        assert loop.moves(state) == reference.moves(state)
        assert loop.spec_enabled(state[1]) == reference.spec_enabled(state[1])
        for fired, successor in reference.moves(state)[0]:
            assert loop.step(state, fired) == successor
            if successor not in seen:
                seen[successor] = seen[state] + (fired,)
                queue.append(successor)
    state, trace = max(seen.items(), key=lambda item: len(item[1]))
    assert replay_trace(circuit, graph, trace, initial_vector)[-1] == state


def _circuit(stg, result):
    return Circuit.from_synthesis(result, stg.inputs), tuple(
        result.expanded.code_of(result.expanded.initial)
    )


@functools.lru_cache(maxsize=None)
def _table1(name):
    stg = load_benchmark(name)
    return stg, modular_synthesis(stg)


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_results(name):
    stg, result = _table1(name)
    circuit, initial = _circuit(stg, result)
    report = assert_loops_match(circuit, result.graph, initial)
    assert report.verdict is True
    assert_moves_match(circuit, result.graph, initial)
    assert_moves_match(circuit, result.graph)  # reset-vector fixpoint
    assert verify_result(result, stg).as_dict()["states"] == (
        report.states_explored
    )


@pytest.mark.parametrize(
    "item", generated_corpus(), ids=[g.name for g in generated_corpus()]
)
def test_generated_corpus_results(item):
    result = modular_synthesis(item.stg)
    circuit, initial = _circuit(item.stg, result)
    assert_loops_match(circuit, result.graph, initial)
    assert_moves_match(circuit, result.graph, initial)


@pytest.mark.parametrize("name", sorted(ALL))
def test_example_mutants(name):
    from repro.stg import parse_g

    stg = parse_g(ALL[name])
    result = modular_synthesis(stg)
    for mutant in mutate_result(result, seed=5, per_kind=3):
        circuit, initial = mutant_circuit(result, stg.inputs, mutant)
        assert_loops_match(circuit, result.graph, initial)


# -- the fuzz campaign's mutation leg -----------------------------------------


def _fuzz_verify():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "fuzz_verify", os.path.join(root, "tools", "fuzz_verify.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The committed campaign: ``--count 200 --seed 9``.
_SEED = 9
_INDICES = tuple(range(0, 200, 8))


@functools.lru_cache(maxsize=None)
def _leg_circuit(index):
    """A circuit the committed campaign's mutation leg mutates, with the
    seed it mutates it under."""
    fuzz = _fuzz_verify()
    assert index % fuzz.MUTATE_EVERY == 0
    cell = fuzz.MATRIX[index % len(fuzz.MATRIX)]
    assert cell["method"] == "modular"
    generated = generate_stg(**fuzz._knobs(_SEED, index))
    graph = build_state_graph(generated.stg)
    result = fuzz._synthesise(graph, cell)
    report = verify_result(
        result, generated.stg, level="hazards", max_states=fuzz.MAX_STATES,
    )
    assert report.verdict is True  # every one of them enters the leg
    return generated, result, _SEED * 31 + index


@pytest.mark.parametrize("index", _INDICES)
def test_fuzz_mutation_leg(index):
    generated, result, seed = _leg_circuit(index)
    mutants = mutate_result(result, seed=seed, per_kind=1)
    assert mutants
    for mutant in mutants:
        circuit, initial = mutant_circuit(
            result, generated.stg.inputs, mutant
        )
        assert_loops_match(circuit, result.graph, initial)


def test_capped_runs():
    # Caps on states and on violations cut the two loops at the same
    # point.
    capped = 0
    for index in _INDICES[:6]:
        generated, result, seed = _leg_circuit(index)
        for mutant in mutate_result(result, seed=seed, per_kind=1):
            circuit, initial = mutant_circuit(
                result, generated.stg.inputs, mutant
            )
            for limits in (
                {"max_states": 1}, {"max_states": 7}, {"max_states": 60},
                {"max_violations": 1}, {"max_violations": 2},
                {"max_states": 40, "max_violations": 1},
            ):
                report = assert_loops_match(
                    circuit, result.graph, initial, **limits
                )
                capped += report.truncated or (
                    len(report.violations) == limits.get("max_violations")
                )
    assert capped
