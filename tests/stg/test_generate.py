"""Generator property tests: by-construction guarantees at every corner,
plus the differential synthesis contract over a seeded sample."""

import pytest

from repro.petrinet.properties import is_free_choice, is_live, is_safe
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stg import generate_corpus, generate_stg, parse_g
from repro.stg.validate import validate_stg

from tests.verify.test_differential import METHODS, check_synthesis

#: Every combination a load test might reasonably request, including
#: the degenerate corners (minimum signals, no concurrency, both CSC
#: density extremes).
CORNERS = [
    (2, 1, 0.0),
    (2, 4, 1.0),
    (4, 1, 0.5),
    (6, 2, 0.0),
    (6, 2, 1.0),
    (10, 3, 0.5),
    (12, 4, 1.0),
]


@pytest.mark.parametrize("signals,width,density", CORNERS)
def test_corners_are_live_safe_free_choice(signals, width, density):
    generated = generate_stg(
        signals=signals, width=width, csc_density=density, seed=11,
        validate=False,  # re-checked explicitly below
    )
    net = generated.stg.net
    graph = validate_stg(
        generated.stg, require_live=True, require_safe=True
    )
    assert is_free_choice(net)
    assert is_safe(net, graph=graph)
    assert is_live(net, graph=graph)


def test_determinism_per_seed():
    knobs = dict(signals=8, width=3, csc_density=0.5)
    a = generate_stg(seed=42, **knobs)
    b = generate_stg(seed=42, **knobs)
    assert a.g_text == b.g_text
    assert a.stats() == b.stats()
    assert a.g_text != generate_stg(seed=43, **knobs).g_text


def test_generated_text_reparses_to_same_structure():
    generated = generate_stg(signals=8, width=2, csc_density=1.0, seed=3)
    again = parse_g(generated.g_text)
    assert set(again.signals) == set(generated.stg.signals)
    assert again.inputs == generated.stg.inputs


def test_zero_density_generates_no_echoes():
    generated = generate_stg(signals=10, width=2, csc_density=0.0, seed=5)
    assert generated.echoes == 0
    assert not any(s.startswith("e") for s in generated.stg.signals)


def test_full_density_plants_csc_conflicts():
    # Echo tails recreate the classic conflict; over a sample of seeds
    # every dense circuit must actually exhibit one.
    for seed in range(5):
        generated = generate_stg(
            signals=8, width=2, csc_density=1.0, seed=seed
        )
        assert generated.echoes >= 1
        graph = build_state_graph(generated.stg)
        assert csc_conflicts(graph), (
            f"seed {seed}: csc_density=1.0 produced a CSC-clean circuit"
        )


def test_knob_validation():
    with pytest.raises(ValueError, match="signals"):
        generate_stg(signals=1)
    with pytest.raises(ValueError, match="width"):
        generate_stg(width=0)
    with pytest.raises(ValueError, match="csc_density"):
        generate_stg(csc_density=1.5)
    with pytest.raises(ValueError, match="count"):
        generate_corpus(0)


def test_corpus_is_seed_indexed():
    corpus = generate_corpus(3, signals=6, width=2, seed=100)
    assert [g.seed for g in corpus] == [100, 101, 102]
    assert len({g.g_text for g in corpus}) == 3
    again = generate_corpus(3, signals=6, width=2, seed=100)
    assert [g.g_text for g in again] == [g.g_text for g in corpus]


#: Seeded differential sample: generated circuits through the same
#: contract the benchmarks and fuzzed controllers go through.
SAMPLE = [
    (6, 2, 1.0, 21),
    (8, 2, 1.0, 22),
    (8, 3, 0.5, 23),
]


@pytest.mark.parametrize("method", ["modular", "direct"])
@pytest.mark.parametrize("signals,width,density,seed", SAMPLE)
def test_generated_differential(signals, width, density, seed, method):
    generated = generate_stg(
        signals=signals, width=width, csc_density=density, seed=seed
    )
    graph = build_state_graph(generated.stg)
    result = METHODS[method](graph)
    check_synthesis(generated.stg, graph, result)


@pytest.mark.parametrize("signals,width,density,seed", SAMPLE[:1])
def test_generated_sat_modes_agree(signals, width, density, seed):
    generated = generate_stg(
        signals=signals, width=width, csc_density=density, seed=seed
    )
    graph = build_state_graph(generated.stg)
    per_mode = {}
    for name in ("modular", "modular-oneshot"):
        result = METHODS[name](graph)
        check_synthesis(generated.stg, graph, result)
        per_mode[name] = len(result.assignment.names)
    assert per_mode["modular"] == per_mode["modular-oneshot"]
