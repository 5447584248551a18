"""Unit tests for the StateGraph structure and its validation."""

import pytest

from repro.stategraph.graph import EPSILON, StateGraph


def two_state():
    return StateGraph(
        signals=("a",),
        codes=[(0,), (1,)],
        edges=[(0, ("a", "+"), 1), (1, ("a", "-"), 0)],
        non_inputs=[],
    )


class TestConstruction:
    def test_duplicate_signals_rejected(self):
        with pytest.raises(ValueError):
            StateGraph(("a", "a"), [(0, 0)], [], [])

    def test_code_width_checked(self):
        with pytest.raises(ValueError):
            StateGraph(("a",), [(0, 1)], [], [])

    def test_non_input_must_be_signal(self):
        with pytest.raises(ValueError):
            StateGraph(("a",), [(0,)], [], ["ghost"])

    def test_initial_in_range(self):
        with pytest.raises(ValueError):
            StateGraph(("a",), [(0,)], [], [], initial=3)

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            StateGraph(
                ("a",), [(0,)], [(0, ("a", "+"), 5)], []
            )

    def test_edge_unknown_signal(self):
        with pytest.raises(ValueError):
            StateGraph(
                ("a",), [(0,), (1,)], [(0, ("zz", "+"), 1)], []
            )

    def test_edge_bad_direction(self):
        with pytest.raises(ValueError):
            StateGraph(
                ("a",), [(0,), (1,)], [(0, ("a", "?"), 1)], []
            )

    def test_edge_consistency_enforced(self):
        # a+ from a state where a is already 1.
        with pytest.raises(ValueError):
            StateGraph(
                ("a",), [(1,), (1,)], [(0, ("a", "+"), 1)], []
            )

    def test_edge_must_not_touch_other_signals(self):
        with pytest.raises(ValueError):
            StateGraph(
                ("a", "b"),
                [(0, 0), (1, 1)],
                [(0, ("a", "+"), 1)],
                [],
            )

    @pytest.mark.parametrize(
        "codes, label, touched",
        [
            ([(0, 0, 0), (1, 1, 0)], ("b", "+"), "a"),
            ([(0, 1, 0), (0, 0, 1)], ("b", "-"), "c"),
        ],
        ids=["before-the-fired-bit", "after-the-fired-bit"],
    )
    def test_edge_names_the_touched_signal(self, codes, label, touched):
        with pytest.raises(ValueError, match=f"unrelated signal '{touched}'"):
            StateGraph(("a", "b", "c"), codes, [(0, label, 1)], [])

    def test_epsilon_edge_requires_equal_codes(self):
        with pytest.raises(ValueError):
            StateGraph(
                ("a",), [(0,), (1,)], [(0, EPSILON, 1)], []
            )

    def test_epsilon_edge_with_equal_codes_ok(self):
        graph = StateGraph(
            ("a",), [(0,), (0,)], [(0, EPSILON, 1)], []
        )
        assert graph.num_edges == 1


class TestViews:
    def test_in_and_out_edges(self):
        graph = two_state()
        assert graph.out_edges(0) == [(("a", "+"), 1)]
        assert graph.in_edges(0) == [(("a", "-"), 1)]

    def test_value_lookup(self):
        graph = two_state()
        assert graph.value(0, "a") == 0
        assert graph.value(1, "a") == 1

    def test_excitation_cached(self):
        graph = two_state()
        first = graph.excitation(0)
        assert graph.excitation(0) is first

    def test_conflicting_excitation_detected(self):
        graph = StateGraph(
            ("a", "b"),
            [(0, 0), (1, 0), (0, 1)],
            [
                (0, ("a", "+"), 1),
                (2, ("b", "-"), 0),
                (1, ("a", "-"), 0),
                (0, ("b", "+"), 2),
            ],
            [],
        )
        # Fine: different signals.
        assert set(graph.excitation(0)) == {"a", "b"}

    def test_deterministic_check(self):
        graph = StateGraph(
            ("a", "b"),
            [(0, 0), (1, 0), (1, 0)],
            [(0, ("a", "+"), 1), (0, ("a", "+"), 2)],
            [],
        )
        with pytest.raises(ValueError):
            graph.check_deterministic()

    def test_concurrent_transition_count(self):
        graph = two_state()
        assert graph.concurrent_transition_count() == 0

    def test_repr(self):
        assert "states=2" in repr(two_state())


class TestPickling:
    def test_derived_caches_are_dropped_and_rebuilt(self):
        import pickle

        from repro.stg import parse_g
        from repro.stategraph import build_state_graph, quotient

        from tests.example_stgs import CONCURRENT

        graph = build_state_graph(parse_g(CONCURRENT))
        masks = graph.implied_masks()
        excitation = [graph.excitation(s) for s in graph.states()]
        graph.edges_by_signal(EPSILON)
        projection = quotient(graph, ["x"])
        projected = projection.implied_masks()
        clean = pickle.dumps(build_state_graph(parse_g(CONCURRENT)))
        assert len(pickle.dumps(graph)) == len(clean)
        for loaded in (pickle.loads(pickle.dumps(graph)),
                       pickle.loads(pickle.dumps(projection)).base):
            assert loaded._masks is None and loaded._by_signal is None
            assert loaded._excitation_cache == [None] * graph.num_states
            assert loaded.implied_masks() == masks
            assert [loaded.excitation(s) for s in loaded.states()] == (
                excitation
            )
        loaded = pickle.loads(pickle.dumps(projection))
        assert loaded._masks is None
        assert loaded.implied_masks() == projected
