"""``_repair``'s skipped first conflict search, against the search itself.

With no state signal inserted and no conflicted non-input on Σ's ε-only
projection, ``_repair`` returns without building the expanded model its
rounds search.  Behind every skip the oracle runs ``csc_conflicts`` on
the expansion as ``expand`` built it before the shortcut -- a fresh
:class:`StateGraph` copy of Σ -- and it must find nothing.  Σ is
CSC-clean exactly when its ε-only projection is, so on graphs without
ε edges the skip must also happen whenever Σ is clean.
"""

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import synthesis
from repro.csc.assignment import Assignment
from repro.csc.errors import IntrinsicConflictError
from repro.csc.insertion import expand
from repro.perf import ProjectionCache
from repro.runtime.options import SynthesisOptions
from repro.stg import parse_g
from repro.stg.generate import generate_stg
from repro.stategraph import (
    EPSILON,
    StateGraph,
    build_state_graph,
    conflicted_outputs,
    csc_conflicts,
)

import tests.stategraph.test_build as test_build
from tests.example_stgs import ALL, CSC_CONFLICT, generated_corpus


def _reference_expansion(graph, assignment):
    """The graph ``_repair`` searched before the shortcut: ``expand``
    then built a fresh copy of Σ even with no state signal."""
    if assignment.names:
        return expand(graph, assignment)
    return StateGraph(
        graph.signals, graph.codes, graph.edges, graph.non_inputs,
        initial=graph.initial,
    )


@pytest.fixture
def skips(monkeypatch):
    """Check the search behind every skip; collect the skipped graphs.

    A skip is observed, not predicted: ``_repair`` returned without
    building an :class:`ExpandedModel`.
    """
    seen = []
    searched = []
    model = synthesis.ExpandedModel
    repair = synthesis._repair

    def counted(graph, *args, **kwargs):
        searched.append(graph)
        return model(graph, *args, **kwargs)

    def checked(graph, assignment, *args, **kwargs):
        searched.clear()
        result = repair(graph, assignment, *args, **kwargs)
        if not searched:
            reference = _reference_expansion(graph, assignment)
            assert csc_conflicts(reference) == []
            seen.append(graph)
        return result

    monkeypatch.setattr(synthesis, "ExpandedModel", counted)
    monkeypatch.setattr(synthesis, "_repair", checked)
    return seen


def _synthesise(sigma):
    return synthesis.modular_synthesis(
        sigma, options=SynthesisOptions(minimize=False)
    )


def _assert_skips_exactly_when_clean(sigma, skips):
    # Without ε edges, Σ is CSC-clean exactly when its ε-only projection
    # is, so a clean Σ must take the shortcut and no other may.
    _synthesise(sigma)
    assert (skips == [sigma]) == (csc_conflicts(sigma) == [])


@pytest.mark.parametrize("name", benchmark_names())
def test_table1(name, skips):
    sigma = build_state_graph(load_benchmark(name))
    _assert_skips_exactly_when_clean(sigma, skips)


@pytest.mark.parametrize("name", sorted(ALL))
def test_examples(name, skips):
    sigma = build_state_graph(parse_g(ALL[name]))
    _assert_skips_exactly_when_clean(sigma, skips)


@pytest.mark.parametrize(
    "item", generated_corpus(), ids=lambda item: item.name
)
def test_generated_corpus(item, skips):
    _assert_skips_exactly_when_clean(build_state_graph(item.stg), skips)


#: ε kept between two states that differ only in the inputs they excite:
#: Σ is CSC-clean and its ε-merged block carries one implied value of b.
EPSILON_CLEAN = """
.model dummyclean
.inputs a
.outputs b
.dummy eps
.graph
a+ b+
b+ eps
eps a-
a- b-
b- a+
.marking { <b-,a+> }
.end
"""


def test_epsilon_kept_sigma_skips_when_clean(skips):
    sigma = build_state_graph(parse_g(EPSILON_CLEAN), contract_dummies=False)
    assert any(label is EPSILON for _s, label, _t in sigma.edges)
    result = _synthesise(sigma)
    assert skips == [sigma]
    assert result.expanded is sigma


def test_epsilon_kept_sigma_with_merged_conflict_is_searched(skips):
    # a+ eps b+: the states either side of eps share a code, and only the
    # second excites b.  The ε-merged block holds both implied values.
    sigma = build_state_graph(
        parse_g(test_build.TestDummyContraction.TEXT), contract_dummies=False
    )
    assert conflicted_outputs(ProjectionCache(sigma).project(())) == {"b"}
    assert csc_conflicts(sigma) != []
    with pytest.raises(IntrinsicConflictError):
        _synthesise(sigma)
    assert skips == []


@pytest.mark.parametrize("seed", [1, 2])
def test_clean_wide_draws_skip(seed, skips):
    sigma = build_state_graph(generate_stg(16, 4, 0.0, seed=seed).stg)
    result = _synthesise(sigma)
    assert skips == [sigma]
    assert result.expanded is sigma


def test_conflicts_left_to_repair_are_searched(skips):
    # Only the clean output b gets a module; c's conflict reaches
    # _repair with no state signal inserted.
    sigma = build_state_graph(parse_g(CSC_CONFLICT))
    result = synthesis.modular_synthesis(
        sigma, options=SynthesisOptions(minimize=False, output_order=["b"])
    )
    assert skips == []
    assert result.state_signals > 0
    assert csc_conflicts(result.expanded) == []


def test_expand_without_state_signals_is_sigma():
    sigma = build_state_graph(parse_g(ALL["concurrent"]))
    empty = Assignment.empty(sigma.num_states)
    assert expand(sigma, empty) is sigma
