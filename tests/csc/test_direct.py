"""Integration tests for the direct (no-decomposition) method."""

from repro.csc import Assignment, direct_synthesis
from repro.stg import parse_g
from repro.stategraph import build_state_graph, csc_conflicts
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import ALL, CSC_CONFLICT, HANDSHAKE


class TestDirectSynthesis:
    def test_all_examples_synthesise(self):
        for text in ALL.values():
            result = direct_synthesis(parse_g(text))
            assert csc_conflicts(result.expanded) == []

    def test_clean_graph_untouched(self):
        result = direct_synthesis(parse_g(HANDSHAKE))
        assert result.state_signals == 0
        assert result.final_states == 4
        assert result.attempts == []

    def test_conflict_resolved_with_one_signal(self):
        result = direct_synthesis(parse_g(CSC_CONFLICT))
        assert result.state_signals == 1
        assert result.assignment.names == ("csc0",)
        assert result.attempts  # at least one formula solved

    def test_assignment_edge_compatible(self):
        result = direct_synthesis(parse_g(CSC_CONFLICT))
        assert result.assignment.check_edge_compatibility(result.graph) == []

    def test_literals_counted(self):
        result = direct_synthesis(parse_g(CSC_CONFLICT))
        assert result.literals == sum(
            cover.literals for cover in result.covers.values()
        )
        assert set(result.covers) == set(result.expanded.non_inputs)

    def test_attempt_stats(self):
        result = direct_synthesis(parse_g(CSC_CONFLICT))
        attempt = result.attempts[-1]
        assert attempt.status == "sat"
        assert attempt.num_clauses > 0
        assert attempt.num_vars > 0

    def test_accepts_prebuilt_graph(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        result = direct_synthesis(
            graph, options=SynthesisOptions(minimize=False)
        )
        assert result.graph is graph
        assert result.covers is None

    def test_repr_mentions_counts(self):
        result = direct_synthesis(parse_g(CSC_CONFLICT))
        text = repr(result)
        assert "states" in text and "literals" in text


class TestVerify:
    def test_verify_reports_conflicts_without_assignment(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        assert len(csc_conflicts(graph)) == 1

    def test_verify_accepts_empty_assignment(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        empty = Assignment.empty(graph.num_states)
        assert csc_conflicts(
            graph, extra_codes=empty.cur_bits(),
            extra_implied=empty.implied_bits(),
        ) == []
