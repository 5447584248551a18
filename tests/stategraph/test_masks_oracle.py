"""The mask-based CSC analyses against the frozenset loops they replace.

The references below are the analyses as they were before implied
values were packed into per-state int masks, kept verbatim:
``_signature``, ``csc_conflicts``, ``conflicted_outputs``,
``csc_conflicts_and_bound`` and ``csc_lower_bound`` over
``implied_values`` frozensets.  Their implied values come from
:class:`_OldImplied`, the rule as it was coded then: per state from its
excitation for a plain graph, and the union over each block of the base
graph's values for a quotient.  Results must be identical: the same
lists in the same order, the same sets, the same bounds (``math.inf``
included, and of the same type).
"""

import contextlib
import itertools
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.csc import synthesis
from repro.csc.assignment import Assignment
from repro.csc.values import Value
from repro.perf.projection import ProjectionCache
from repro.stategraph import (
    QuotientGraph,
    StateGraph,
    build_state_graph,
    conflicted_outputs,
    csc_conflicts,
    csc_conflicts_and_bound,
    csc_lower_bound,
    quotient,
)
from repro.stg import parse_g
from repro.stg.model import FALL, RISE

from tests.example_stgs import ALL, generated_corpus
from tests.stategraph import test_build


# -- the references -----------------------------------------------------------


def _old_implied_value(graph, state, signal):
    direction = graph.excitation(state).get(signal)
    if direction == RISE:
        return 1
    if direction == FALL:
        return 0
    return graph.codes[state][graph.signal_index(signal)]


class _OldImplied:
    """``graph`` with its implied values computed the old way."""

    def __init__(self, graph):
        self.graph = graph
        self.signals = graph.signals
        self.non_inputs = graph.non_inputs

    def states(self):
        return self.graph.states()

    def code_of(self, state):
        return self.graph.code_of(state)

    def implied_values(self, state, signal):
        graph = self.graph
        if isinstance(graph, QuotientGraph):
            return frozenset(
                _old_implied_value(graph.base, member, signal)
                for member in graph.blocks[state]
            )
        return frozenset((_old_implied_value(graph, state, signal),))


def _full_code(graph, state, extra_codes):
    code = graph.code_of(state)
    if extra_codes is None:
        return code
    return code + tuple(extra_codes[state])


def _analysis_outputs(graph, outputs):
    if outputs is None:
        return sorted(graph.non_inputs)
    return sorted(outputs)


def code_classes(graph, extra_codes=None):
    classes = {}
    for state in graph.states():
        classes.setdefault(_full_code(graph, state, extra_codes), []).append(
            state
        )
    return classes


def _signature(graph, state, outs, extra_implied):
    """Per-state tuple of implied-value sets over outputs + extra signals."""
    parts = [graph.implied_values(state, o) for o in outs]
    if extra_implied is not None:
        for bit in extra_implied[state]:
            parts.append(bit if isinstance(bit, frozenset) else frozenset((bit,)))
    return tuple(parts)


def reference_csc_conflicts(graph, outputs=None, extra_codes=None,
                            extra_implied=None):
    outs = _analysis_outputs(graph, outputs)
    conflicts = []
    for states in code_classes(graph, extra_codes).values():
        implied = {
            state: _signature(graph, state, outs, extra_implied)
            for state in states
        }
        for state in states:
            if any(len(v) > 1 for v in implied[state]):
                conflicts.append((state, state))
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                if any(
                    len(va | vb) > 1
                    for va, vb in zip(implied[a], implied[b])
                ):
                    conflicts.append((a, b))
    return conflicts


def reference_conflicted_outputs(graph, outputs=None, extra_codes=None):
    pending = _analysis_outputs(graph, outputs)
    conflicted = set()
    for states in code_classes(graph, extra_codes).values():
        found = set()
        for output in pending:
            values = set()
            for state in states:
                values |= graph.implied_values(state, output)
                if len(values) > 1:
                    found.add(output)
                    break
        if found:
            conflicted |= found
            pending = [o for o in pending if o not in found]
            if not pending:
                break
    return conflicted


def reference_csc_conflicts_and_bound(graph, outputs=None, extra_codes=None,
                                      extra_implied=None):
    outs = _analysis_outputs(graph, outputs)
    conflicts = []
    bound = 0
    for states in code_classes(graph, extra_codes).values():
        implied = {
            state: _signature(graph, state, outs, extra_implied)
            for state in states
        }
        signatures = set()
        for state in states:
            signature = implied[state]
            if any(len(v) > 1 for v in signature):
                conflicts.append((state, state))
                bound = math.inf
            signatures.add(signature)
        if bound is not math.inf and len(signatures) > 1:
            bound = max(bound, math.ceil(math.log2(len(signatures))))
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                if any(
                    len(va | vb) > 1
                    for va, vb in zip(implied[a], implied[b])
                ):
                    conflicts.append((a, b))
    return conflicts, bound


def reference_csc_lower_bound(graph, outputs=None, extra_codes=None,
                              extra_implied=None):
    outs = _analysis_outputs(graph, outputs)
    bound = 0
    for states in code_classes(graph, extra_codes).values():
        signatures = set()
        for state in states:
            signature = _signature(graph, state, outs, extra_implied)
            if any(len(v) > 1 for v in signature):
                return math.inf
            signatures.add(signature)
        if len(signatures) > 1:
            bound = max(bound, math.ceil(math.log2(len(signatures))))
    return bound


# -- comparisons --------------------------------------------------------------


def _typed(bound):
    return bound, type(bound)


def assert_analyses_match(graph, outputs=None, extra_codes=None,
                          extra_implied=None):
    old = _OldImplied(graph)
    args = (outputs, extra_codes, extra_implied)
    assert csc_conflicts(graph, *args) == reference_csc_conflicts(old, *args)
    assert _typed(csc_lower_bound(graph, *args)) == _typed(
        reference_csc_lower_bound(old, *args)
    )
    conflicts, bound = csc_conflicts_and_bound(graph, *args)
    expected_conflicts, expected_bound = reference_csc_conflicts_and_bound(
        old, *args
    )
    assert conflicts == expected_conflicts
    assert _typed(bound) == _typed(expected_bound)
    if extra_implied is None:
        assert conflicted_outputs(graph, outputs, extra_codes) == (
            reference_conflicted_outputs(old, outputs, extra_codes)
        )


def assert_masks_match(graph):
    """Every mask bit against the old rule, state by state."""
    masks = graph.implied_masks()
    old = _OldImplied(graph)
    layout = graph.base.signals if isinstance(graph, QuotientGraph) else (
        graph.signals
    )
    assert masks.index == {signal: i for i, signal in enumerate(layout)}
    for state in graph.states():
        code = dict(zip(graph.signals, graph.code_of(state)))
        assert masks.codes[state] == sum(
            value << masks.index[signal] for signal, value in code.items()
        )
        for signal in graph.signals:
            values = old.implied_values(state, signal)
            bit = masks.index[signal]
            assert masks.ones[state] >> bit & 1 == (1 in values)
            assert masks.zeros[state] >> bit & 1 == (0 in values)
            assert graph.implied_values(state, signal) == values
            if isinstance(graph, StateGraph):
                assert graph.implied_value(state, signal) == (
                    _old_implied_value(graph, state, signal)
                )


def assert_graph_matches(graph):
    assert_masks_match(graph)
    assert_analyses_match(graph)
    for output in sorted(graph.non_inputs):
        assert_analyses_match(graph, outputs=[output])


# -- what a run asks for ------------------------------------------------------

_ANALYSES = {
    "csc_conflicts": csc_conflicts,
    "conflicted_outputs": conflicted_outputs,
    "csc_conflicts_and_bound": csc_conflicts_and_bound,
    "csc_lower_bound": csc_lower_bound,
}


@contextlib.contextmanager
def recorded_run():
    """Record every analysis call and every projection cache of a run.

    Each analysis is rebound wherever a ``repro`` module bound it, the
    way the traced benchmark wraps layers.
    """
    calls = []
    caches = []
    patched = []

    def wrap(name, function):
        def recording(graph, *args, **kwargs):
            calls.append((name, graph, args, kwargs))
            return function(graph, *args, **kwargs)
        return recording

    wrappers = {name: wrap(name, f) for name, f in _ANALYSES.items()}
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for name, function in _ANALYSES.items():
            if getattr(module, name, None) is function:
                patched.append((module, name))
                setattr(module, name, wrappers[name])

    class RecordingCache(ProjectionCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    original_cache = synthesis.ProjectionCache
    synthesis.ProjectionCache = RecordingCache
    try:
        yield calls, caches
    finally:
        synthesis.ProjectionCache = original_cache
        for module, name in patched:
            setattr(module, name, _ANALYSES[name])


def _block_implied_sets(assignment, blocks):
    """Per macro state, each state signal's implied values over the
    block as a frozenset (the set-valued form of a merged value)."""
    return [
        tuple(
            frozenset(assignment.values[m][k].implied for m in members)
            for k in range(assignment.num_signals)
        )
        for members in blocks
    ]


def assert_run_matches(stg):
    with recorded_run() as (calls, caches):
        result = modular_synthesis(stg)
    assert calls and caches
    for name, graph, args, kwargs in calls:
        old = _OldImplied(graph)
        reference = {
            "csc_conflicts": reference_csc_conflicts,
            "conflicted_outputs": reference_conflicted_outputs,
            "csc_conflicts_and_bound": reference_csc_conflicts_and_bound,
            "csc_lower_bound": reference_csc_lower_bound,
        }[name]
        assert _ANALYSES[name](graph, *args, **kwargs) == reference(
            old, *args, **kwargs
        ), name
    assignment = result.assignment
    for cache in caches:
        for projection in cache._entries.values():
            assert_masks_match(projection)
            merged = assignment.merged_over(projection.blocks)
            if merged is None:
                continue
            extra_codes = merged.cur_bits()
            for extra_implied in (
                merged.implied_bits(),
                _block_implied_sets(assignment, projection.blocks),
            ):
                assert_analyses_match(
                    projection, extra_codes=extra_codes,
                    extra_implied=extra_implied,
                )
    return result


# -- the corpora --------------------------------------------------------------


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_sigma(name):
    assert_graph_matches(build_state_graph(load_benchmark(name)))


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_run_projections(name):
    result = assert_run_matches(load_benchmark(name))
    assert_masks_match(result.expanded)
    assignment = result.assignment
    assert_analyses_match(
        result.graph,
        extra_codes=assignment.cur_bits(),
        extra_implied=assignment.implied_bits(),
    )


def _example_graphs():
    graphs = [
        (name, build_state_graph(parse_g(text))) for name, text in ALL.items()
    ]
    graphs.append((
        "dummy-kept",
        build_state_graph(
            parse_g(test_build.TestDummyContraction.TEXT),
            contract_dummies=False,
        ),
    ))
    return graphs


@pytest.mark.parametrize(
    "graph", [g for _n, g in _example_graphs()],
    ids=[n for n, _g in _example_graphs()],
)
def test_examples_and_every_projection(graph):
    assert_graph_matches(graph)
    for size in range(len(graph.signals) + 1):
        for hidden in itertools.combinations(graph.signals, size):
            assert_graph_matches(quotient(graph, hidden))


@pytest.mark.parametrize(
    "item", generated_corpus(), ids=[g.name for g in generated_corpus()]
)
def test_generated_corpus(item):
    graph = build_state_graph(item.stg)
    assert_graph_matches(graph)
    for signal in graph.signals:
        assert_graph_matches(quotient(graph, [signal]))
    assert_run_matches(item.stg)


# -- drawn assignments --------------------------------------------------------

_SPECS = [build_state_graph(parse_g(text)) for text in ALL.values()] + [
    build_state_graph(item.stg) for item in generated_corpus()
]
_VALUES = list(Value)
_IMPLIED = [0, 1, frozenset(), frozenset((0,)), frozenset((1,)),
            frozenset((0, 1))]


@st.composite
def analysis_case(draw):
    graph = draw(st.sampled_from(_SPECS))
    hidden = draw(st.lists(st.sampled_from(graph.signals), unique=True))
    view = draw(st.sampled_from([graph, quotient(graph, hidden)]))
    width = draw(st.integers(min_value=0, max_value=3))
    n = view.num_states

    def rows(element):
        return draw(st.lists(
            st.tuples(*[element] * width), min_size=n, max_size=n,
        ))

    source = draw(st.sampled_from(["merged", "random"]))
    extra_codes = extra_implied = None
    if source == "merged" and isinstance(view, QuotientGraph):
        values = draw(st.lists(
            st.tuples(*[st.sampled_from(_VALUES)] * width),
            min_size=graph.num_states, max_size=graph.num_states,
        ))
        assignment = Assignment([f"s{k}" for k in range(width)], values)
        merged = assignment.merged_over(view.blocks)
        if merged is not None:
            extra_codes = merged.cur_bits()
            extra_implied = draw(st.sampled_from([
                merged.implied_bits(),
                _block_implied_sets(assignment, view.blocks),
            ]))
    else:
        if draw(st.booleans()):
            extra_codes = rows(st.sampled_from([0, 1]))
        if draw(st.booleans()):
            extra_implied = rows(st.sampled_from(_IMPLIED))
    outputs = None
    if view.non_inputs and draw(st.booleans()):
        outputs = draw(st.lists(
            st.sampled_from(sorted(view.non_inputs)), unique=True,
        ))
    return view, outputs, extra_codes, extra_implied


@settings(max_examples=150, deadline=None)
@given(analysis_case())
def test_drawn_assignments(case):
    view, outputs, extra_codes, extra_implied = case
    assert_analyses_match(view, outputs, extra_codes, extra_implied)
