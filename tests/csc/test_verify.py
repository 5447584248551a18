"""CSC checks of solved graphs.

``csc_conflicts`` judges a graph under an assignment's code and implied
bits; the direct and lavagno methods assert it on their final expansion
through ``_checked_expansion``.
"""

import pytest

from repro.csc import Assignment, Value
from repro.csc.synthesis import _checked_expansion
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stg import parse_g

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE


def _conflicts(graph, assignment):
    return csc_conflicts(
        graph,
        extra_codes=assignment.cur_bits(),
        extra_implied=assignment.implied_bits(),
    )


def test_clean_graph_verifies():
    graph = build_state_graph(parse_g(HANDSHAKE))
    assert csc_conflicts(graph) == []
    empty = Assignment.empty(graph.num_states)
    expanded = _checked_expansion(graph, empty, "unit test")  # no raise
    assert expanded.num_states == graph.num_states


def test_conflict_reported():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    assert len(csc_conflicts(graph)) == 1
    empty = Assignment.empty(graph.num_states)
    with pytest.raises(AssertionError, match="CSC violated by 1 state pair"):
        _checked_expansion(graph, empty, "unit test")


def test_assignment_resolves():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    values = [
        (Value.ZERO,), (Value.UP,), (Value.UP,),
        (Value.UP,), (Value.ONE,), (Value.DOWN,),
    ]
    assignment = Assignment(("n0",), values)
    assert _conflicts(graph, assignment) == []
    expanded = _checked_expansion(graph, assignment, "unit test")
    assert csc_conflicts(expanded) == []


def test_state_signal_own_consistency_checked():
    graph = build_state_graph(parse_g(HANDSHAKE))
    # Give two same-code states... handshake has unique codes, so craft
    # an assignment whose implied values are fine everywhere.
    assignment = Assignment(
        ("n0",), [(Value.ZERO,)] * graph.num_states
    )
    assert _conflicts(graph, assignment) == []


def test_context_in_message():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    empty = Assignment.empty(graph.num_states)
    with pytest.raises(AssertionError, match=r"\(somewhere\)"):
        _checked_expansion(graph, empty, "somewhere")
