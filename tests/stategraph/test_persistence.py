"""Semi-modularity (persistence) of state graphs.

:func:`persistence_violations` checks the property on a graph itself.
The pipeline judges hazard-freedom on the closed loop
(:mod:`repro.verify.checker`, level ``hazards``), so this graph-level
check is a test oracle only: here and in polish's acceptance reference
(``tests/csc/test_polish.py``).
"""

from repro.bench import load_benchmark
from repro.csc import modular_synthesis
from repro.stategraph import EPSILON, build_state_graph
from repro.stategraph.graph import StateGraph
from repro.stg import parse_g
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import ALL


def persistence_violations(graph):
    """Semi-modularity of non-input signals, checked on the graph itself.

    A non-input signal excited in a state must stay excited (or be the
    one that fired) in every successor; losing the excitation is a
    glitch in some delay assignment.  Input signals are exempt -- the
    environment may withdraw a choice.

    Returns ``(source, target, signal)`` triples; empty when persistent.
    """
    problems = []
    for source, label, target in graph.edges:
        if label is EPSILON:
            continue
        fired = label[0]
        after = graph.excitation(target)
        for signal, direction in graph.excitation(source).items():
            if signal == fired or signal not in graph.non_inputs:
                continue
            if after.get(signal) != direction:
                problems.append((source, target, signal))
    return problems


def test_specifications_are_persistent():
    # Well-formed STG specs never withdraw an output's excitation.
    for text in ALL.values():
        graph = build_state_graph(parse_g(text))
        assert persistence_violations(graph) == []


def test_benchmarks_are_persistent():
    for name in ("nak-pa", "mmu1", "pe-rcv-ifc-fc", "alex-nonfc"):
        graph = build_state_graph(load_benchmark(name))
        assert persistence_violations(graph) == []


def test_expanded_graphs_are_persistent():
    for name in ("vbe-ex1", "nousc-ser", "fifo"):
        graph = build_state_graph(load_benchmark(name))
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=False)
        )
        assert persistence_violations(result.expanded) == []


def test_violation_detected():
    # Hand-built graph: b excited in state 0, withdrawn by input a+.
    graph = StateGraph(
        signals=("a", "b"),
        codes=[(0, 0), (1, 0), (1, 1), (0, 1)],
        edges=[
            (0, ("a", "+"), 1),
            (1, ("b", "+"), 2),
            (2, ("a", "-"), 3),
            (3, ("b", "-"), 0),
            # Extra edge making b's excitation non-persistent: from
            # state 1 (b excited) input a- withdraws it back to state 0.
            (1, ("a", "-"), 0),
        ],
        non_inputs=["b"],
    )
    violations = persistence_violations(graph)
    assert (1, 0, "b") in violations


def test_input_choice_is_allowed():
    # Free input choice (a+ vs b+) withdrawing each other is legal.
    graph = StateGraph(
        signals=("a", "b"),
        codes=[(0, 0), (1, 0), (0, 1)],
        edges=[
            (0, ("a", "+"), 1),
            (0, ("b", "+"), 2),
            (1, ("a", "-"), 0),
            (2, ("b", "-"), 0),
        ],
        non_inputs=[],
    )
    assert persistence_violations(graph) == []
