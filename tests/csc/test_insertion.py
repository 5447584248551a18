"""Unit tests for state-graph expansion with state signals."""

from collections import Counter

import pytest

from repro.csc import Assignment, Value, expand
from repro.csc.errors import SynthesisError
from repro.csc.insertion import ExpandedModel
from repro.stg import parse_g
from repro.stategraph import build_state_graph, csc_conflicts

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


def cycle_assignment(graph):
    """The canonical single-signal fix for the csc-ex benchmark."""
    # States in BFS order: pre-a+, post-a+, post-b+, post-a-, post-b-
    # (excites c+), post-c+.
    values = [
        (Value.ZERO,), (Value.UP,), (Value.UP,),
        (Value.UP,), (Value.ONE,), (Value.DOWN,),
    ]
    return Assignment(("n0",), values)


def model_keys(model):
    """The ``(code, signature)`` of every copy the model keeps."""
    return Counter(key for keys in model._keys for key in keys)


def expansion_keys(graph, expanded):
    """The same keys read off the expanded graph: the code with Σ's bits
    above the state signals', and the excited non-inputs likewise."""
    base = len(graph.signals)
    width = len(expanded.signals) - base
    keys = Counter()
    for state in expanded.states():
        code = signature = 0
        excited = expanded.excitation(state)
        for i, signal in enumerate(expanded.signals):
            at = i + width if i < base else i - base
            code |= expanded.value(state, signal) << at
            if signal in excited and signal in expanded.non_inputs:
                signature |= 1 << at
        keys[code, signature] += 1
    return keys


class TestExpansion:
    def test_state_count(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        expanded = expand(graph, cycle_assignment(graph))
        # Four excited states split: 6 + 4 = 10.
        assert expanded.num_states == 10

    def test_new_signal_in_code(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        expanded = expand(graph, cycle_assignment(graph))
        assert expanded.signals == ("a", "b", "c", "n0")
        assert "n0" in expanded.non_inputs

    def test_new_signal_fires(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        expanded = expand(graph, cycle_assignment(graph))
        labels = {label for _s, label, _t in expanded.edges}
        assert ("n0", "+") in labels
        assert ("n0", "-") in labels

    def test_expansion_satisfies_csc(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        expanded = expand(graph, cycle_assignment(graph))
        assert csc_conflicts(expanded) == []

    def test_model_copies_match_expansion(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        assignment = cycle_assignment(graph)
        expanded = expand(graph, assignment)
        model = ExpandedModel(graph, assignment)
        assert model_keys(model) == expansion_keys(graph, expanded)
        assert sum(model_keys(model).values()) == expanded.num_states
        assert all(model._keys[state] for state in graph.states())

    def test_empty_assignment_is_identity(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        expanded = expand(graph, Assignment.empty(graph.num_states))
        assert expanded.num_states == graph.num_states
        assert expanded.signals == graph.signals

    def test_incompatible_assignment_rejected(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        bad = Assignment(
            ("n0",),
            [(Value.ZERO,)] * 5 + [(Value.ONE,)],
        )
        with pytest.raises(SynthesisError):
            expand(graph, bad)

    def test_consistency_of_expanded_codes(self):
        # The StateGraph constructor itself checks consistent assignment;
        # reaching it without exceptions is the real assertion here.
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        expanded = expand(graph, cycle_assignment(graph))
        assert expanded.check_deterministic() is None

    def test_two_signal_expansion(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        values = [
            (Value.ZERO, Value.ZERO), (Value.UP, Value.ZERO),
            (Value.UP, Value.UP), (Value.UP, Value.UP),
            (Value.ONE, Value.ONE), (Value.DOWN, Value.DOWN),
        ]
        assignment = Assignment(("n0", "n1"), values)
        expanded = expand(graph, assignment)
        assert len(expanded.signals) == 5
        # Concurrent excitations produce the interleaving diamond.
        assert expanded.num_states > graph.num_states
