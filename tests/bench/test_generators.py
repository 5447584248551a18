"""Unit tests for the phase-cycle STG generator."""

import hashlib

import pytest

from repro.bench.generators import Choice, Par, build_g, scaling_family
from repro.logic.blif import write_synthesis_blif
from repro.runtime.options import SynthesisOptions
from repro.runtime.run import run_synthesis
from repro.stg import parse_g, validate_stg
from repro.stg.generate import generate_stg
from repro.stategraph import build_state_graph, csc_conflicts


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


#: width -> (final states, final signals, state signals, literals, BLIF
#: SHA-256) under ``SynthesisOptions(verify_level="hazards")``; width 4's
#: 816 final states are well beyond Table-1's largest (470).
SCALING_GOLDEN = {
    1: (34, 9, 3, 37,
        "820fae016dd597a428b73ebe1f69c93df4f4298668cc8955f72357eeb980df07"),
    2: (96, 11, 3, 35,
        "a266be25bd1269f9a169fb1e4e815fee78d83f0cb28275d0f5e0106788917003"),
    3: (276, 13, 3, 40,
        "52e430f6942332f4d078bcd8976a0c42ce7f61f12586d2fbe989bb44f2308aa4"),
    4: (816, 15, 3, 45,
        "f34c0f876142db3823b3b9433f7ca2c5a9612a44aad94db61426131cf0b2b345"),
}


def _pinned_row(stg):
    """``(final states, final signals, state signals, literals, BLIF
    SHA-256)`` of a hazards-verified run; the run must be clean."""
    report = run_synthesis(
        stg, options=SynthesisOptions(verify_level="hazards")
    )
    assert report.status == "ok"
    assert report.verify.verdict is True
    result = report.result
    blif = write_synthesis_blif(result, stg.inputs, model=stg.name)
    return (
        result.final_states, result.final_signals, result.state_signals,
        result.literals, hashlib.sha256(blif.encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("width", sorted(SCALING_GOLDEN))
def test_scaling_family_results_are_pinned(width):
    stg = parse_g(scaling_family(width))
    assert _pinned_row(stg) == SCALING_GOLDEN[width]


#: ``generate_stg`` knobs ``(signals, width, csc_density, seed)`` -> the
#: row :func:`_pinned_row` returns, recorded before CSC-clean outputs
#: skipped their modular pass.  The first two are ``clean_wide`` draws
#: (CSC-clean, >= 500 markings); the rest are ``service_mix`` draws,
#: seed 4 CSC-clean and the others mixing conflict-free and conflicted
#: outputs.
GENERATED_GOLDEN = {
    (16, 4, 0.0, 1): (640, 16, 0, 8,
        "9535fdf55cabdff7011f1507e2fe72922fc6d047fc5b9ff2194f521184bac479"),
    (16, 4, 0.0, 4): (656, 16, 0, 8,
        "6675fbf746c0a194014d5577bf5edbbc9aca9fdaba055e506dca86acd6783b2a"),
    (6, 2, 0.3, 1): (16, 8, 1, 16,
        "caebfe6cf1f006d8136eac559b501e76410386a320fb96467488eb25153584ef"),
    (6, 2, 0.3, 2): (44, 9, 2, 23,
        "8c6ee802ea7c2e0dba3ecc02525d9b7810032a533ae58fa9c72baa1f4524070f"),
    (6, 2, 0.3, 4): (28, 6, 0, 3,
        "22fb0a1466eaa13b87657de8d66824fd5e37450fd7eae987d5657defeab1a6ce"),
    (6, 2, 0.3, 8): (44, 9, 2, 23,
        "9a4349b704092553737f95f55c955de80d991146ae05d4e184b716d09dea9b58"),
    (6, 2, 0.3, 23): (16, 8, 1, 11,
        "c59f069c05073318d0b8877fb66c8a6691e3d9fa817dba64993cc0bfe085f64f"),
    (6, 2, 0.3, 24): (20, 10, 2, 19,
        "4bbaeedbbe533d835d98eac04674ba1d7dfa29a79f8adb762b084909f825c744"),
}


def _generated(knobs):
    signals, width, csc_density, seed = knobs
    return generate_stg(signals, width, csc_density, seed=seed).stg


@pytest.mark.parametrize(
    "knobs", list(GENERATED_GOLDEN), ids=lambda k: "-".join(map(str, k))
)
def test_generated_results_are_pinned(knobs):
    assert _pinned_row(_generated(knobs)) == GENERATED_GOLDEN[knobs]


def test_generated_pin_mixes_conflict_free_and_conflicted_outputs():
    kinds = []
    for knobs in GENERATED_GOLDEN:
        graph = build_state_graph(_generated(knobs))
        outputs = graph.non_inputs
        conflicted = [o for o in outputs if csc_conflicts(graph, [o])]
        kinds.append((knobs[0], len(conflicted), len(outputs)))
    assert [k for k in kinds if k[0] == 16] == [(16, 0, 8)] * 2
    mixed = [k for k in kinds if 0 < k[1] < k[2]]
    assert len(mixed) >= 3


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
