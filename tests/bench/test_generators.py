"""Unit tests for the phase-cycle STG generator."""

import pytest

from repro.bench.generators import Choice, Par, build_g, scaling_family
from repro.stg import parse_g, validate_stg
from repro.stategraph import build_state_graph


def test_plain_cycle():
    text = build_g(
        "plain", inputs=["a"], outputs=["b"],
        cycle=["a+", "b+", "a-", "b-"],
    )
    stg = parse_g(text)
    validate_stg(stg, require_live=True)
    assert build_state_graph(stg).num_states == 4


def test_par_multiplies_states():
    text = build_g(
        "par", inputs=["r"], outputs=["x", "y"],
        cycle=["r+", Par(["x+", "x-"], ["y+", "y-"]), "r-"],
    )
    graph = build_state_graph(parse_g(text))
    # The pre-r+ state plus the 3*3 par positions (the cycle wraps).
    assert graph.num_states == 1 + 9


def test_choice_alternatives():
    text = build_g(
        "ch", inputs=["a", "b"], outputs=["c"],
        cycle=[
            "c+",
            Choice(["a+", "a-"], ["b+", "b-"]),
            "c-",
        ],
    )
    stg = parse_g(text)
    validate_stg(stg, require_live=True)
    graph = build_state_graph(stg)
    # pre-c+, post-c+ (split), one mid-state per alternative, join.
    assert graph.num_states == 5


def test_instances_numbered():
    text = build_g(
        "inst", inputs=["a"], outputs=["b"],
        cycle=["a+", "b+", "b-", "a-", "b+", "b-"],
    )
    assert "b+/2" in text
    stg = parse_g(text)
    assert "b+/2" in stg.net.transitions


def test_marking_on_cycle_closing_arc():
    text = build_g(
        "mark", inputs=["a"], outputs=["b"],
        cycle=["a+", "b+", "a-", "b-"],
    )
    assert ".marking { <b-,a+> }" in text


def test_scaling_family_sizes_are_pinned():
    # About 3x states per lane.
    sizes = [
        build_state_graph(parse_g(scaling_family(width))).num_states
        for width in (1, 2, 3, 4)
    ]
    assert sizes == [22, 58, 166, 490]


class TestErrors:
    def test_empty_cycle(self):
        with pytest.raises(ValueError):
            build_g("x", [], [], [])

    def test_cycle_must_start_with_event(self):
        with pytest.raises(ValueError):
            build_g("x", ["a"], ["b"], [Par(["a+"]), "b+"])

    def test_cycle_must_end_with_event(self):
        with pytest.raises(ValueError):
            build_g("x", ["a"], ["b"], ["a+", Par(["b+"])])

    def test_empty_par_branch(self):
        with pytest.raises(ValueError):
            Par([])

    def test_choice_needs_two_alternatives(self):
        with pytest.raises(ValueError):
            Choice(["a+"])

    def test_bad_phase_type(self):
        with pytest.raises(TypeError):
            build_g("x", ["a"], ["b"], ["a+", 42, "b+"])
