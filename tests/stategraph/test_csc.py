"""Unit tests for CSC conflict detection and lower bounds."""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import modular_synthesis
from repro.runtime.options import SynthesisOptions
from repro.stg import parse_g
from repro.stg.generate import generate_stg
from repro.stategraph import (
    build_state_graph,
    code_classes,
    conflicted_outputs,
    csc_conflicts,
    csc_lower_bound,
    max_csc,
    paper_lower_bound,
    quotient,
    usc_pairs,
)

from tests.example_stgs import (
    ALL,
    CHOICE,
    CONCURRENT,
    CSC_CONFLICT,
    HANDSHAKE,
    generated_corpus,
)


class TestCleanGraphs:
    def test_handshake_has_no_conflicts(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        assert usc_pairs(graph) == []
        assert csc_conflicts(graph) == []
        assert max_csc(graph) == 1
        assert paper_lower_bound(graph) == 0
        assert csc_lower_bound(graph) == 0

    def test_concurrent_has_no_conflicts(self):
        graph = build_state_graph(parse_g(CONCURRENT))
        assert csc_conflicts(graph) == []


class TestUscVersusCsc:
    def test_choice_has_usc_pair_but_no_csc_conflict(self):
        graph = build_state_graph(parse_g(CHOICE))
        # The two post-input-fall states share code 001 but both excite
        # only c-: a USC violation that is not a CSC violation.
        assert len(usc_pairs(graph)) == 1
        assert csc_conflicts(graph) == []
        assert max_csc(graph) == 2
        assert paper_lower_bound(graph) == 1  # the paper's coarse bound
        assert csc_lower_bound(graph) == 0  # the refined bound


class TestConflictDetection:
    def test_conflict_found(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        conflicts = csc_conflicts(graph)
        assert len(conflicts) == 1
        (a, b) = conflicts[0]
        assert a != b
        assert graph.code_of(a) == graph.code_of(b)

    def test_conflict_is_about_c(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        assert csc_conflicts(graph, outputs=["c"])
        assert csc_conflicts(graph, outputs=["b"]) == []

    def test_lower_bounds(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        assert max_csc(graph) == 2
        assert paper_lower_bound(graph) == 1
        assert csc_lower_bound(graph) == 1

    def test_extra_codes_resolve_conflict(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        ((a, b),) = csc_conflicts(graph)
        extra = [(0,)] * graph.num_states
        extra[b] = (1,)
        assert csc_conflicts(graph, extra_codes=extra) == []
        assert csc_lower_bound(graph, extra_codes=extra) == 0

    def test_code_classes_partition_states(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        classes = code_classes(graph)
        total = sum(len(states) for states in classes.values())
        assert total == graph.num_states


class TestQuotientConflicts:
    def test_hiding_trigger_creates_intrinsic_ambiguity(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        # b- triggers c+: hiding b merges the state that excites c+ with
        # the state before b-, where c's implied value is still 0.
        q = quotient(graph, hidden_signals=["b"])
        assert any(q.is_ambiguous(s, "c") for s in q.states())
        conflicts = csc_conflicts(q, outputs=["c"])
        assert any(a == b for a, b in conflicts)  # intrinsic
        assert any(a != b for a, b in conflicts)  # and a cross-state pair
        assert csc_lower_bound(q, outputs=["c"]) == math.inf

    def test_hiding_everything_else_is_maximally_ambiguous(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        q = quotient(graph, hidden_signals=["a", "b"])
        assert q.graph.num_states == 2  # c=0 region and c=1 region
        merged = [s for s in q.states() if len(q.blocks[s]) > 1]
        assert merged
        assert any(q.is_ambiguous(s, "c") for s in merged)
        assert csc_lower_bound(q, outputs=["c"]) == math.inf


# -- conflicted_outputs against the per-output csc_conflicts oracle ----------


def _oracle(graph, outputs, extra_codes=None):
    return {
        output for output in outputs
        if csc_conflicts(graph, [output], extra_codes=extra_codes)
    }


def _check_pass(graph, extra_codes=None):
    """The pass equals the oracle on all outputs and on a subset."""
    outputs = sorted(graph.non_inputs)
    assert conflicted_outputs(graph, extra_codes=extra_codes) == _oracle(
        graph, outputs, extra_codes
    )
    subset = outputs[::2]
    assert conflicted_outputs(
        graph, outputs=subset, extra_codes=extra_codes
    ) == _oracle(graph, subset, extra_codes)


def _specimens():
    """(id, STG) of the Table-1 specs, hand-written examples and the
    generated corpus."""
    specimens = [(name, load_benchmark(name)) for name in benchmark_names()]
    specimens += [(name, parse_g(text)) for name, text in sorted(ALL.items())]
    specimens += [(g.name, g.stg) for g in generated_corpus()]
    return specimens


@functools.lru_cache(maxsize=None)
def _graph_and_final_bits(name):
    """Σ and the state-signal code bits of its modular run's assignment."""
    stg = dict(_specimens())[name]
    graph = build_state_graph(stg)
    result = modular_synthesis(
        graph, options=SynthesisOptions(minimize=False)
    )
    return graph, result.assignment


_NAMES = [name for name, _stg in _specimens()]


class TestConflictedOutputs:
    @pytest.mark.parametrize("name", _NAMES)
    def test_matches_oracle_on_sigma(self, name):
        graph, assignment = _graph_and_final_bits(name)
        _check_pass(graph)
        _check_pass(graph, extra_codes=assignment.cur_bits())

    @pytest.mark.parametrize("name", _NAMES)
    def test_matches_oracle_on_quotients(self, name):
        # Hiding one signal at a time merges states, so some quotients
        # carry intrinsic conflicts; the run's state signals ride along
        # wherever they merge consistently, as in the input-set
        # derivation.
        graph, assignment = _graph_and_final_bits(name)
        for signal in graph.signals:
            q = quotient(graph, [signal])
            _check_pass(q)
            merged = assignment.merged_over(q.blocks)
            if merged is not None:
                _check_pass(q, extra_codes=merged.cur_bits())

    def test_ambiguous_merged_states_convict_their_output(self):
        # A merged state carrying both values of an output is a conflict
        # of that output even when no other state shares its code.
        seen = 0
        for name in ("csc-ex", "nak-pa", "mr0"):
            graph, _ = _graph_and_final_bits(name)
            for signal in graph.signals:
                q = quotient(graph, [signal])
                ambiguous = {
                    output for output in q.non_inputs
                    for state in q.states() if q.is_ambiguous(state, output)
                }
                assert ambiguous <= conflicted_outputs(q)
                seen += len(ambiguous)
        assert seen > 0

    def test_intrinsic_only_output_is_conflicted(self):
        # Hiding everything but c merges states that disagree on c.
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        q = quotient(graph, hidden_signals=["a", "b"])
        assert conflicted_outputs(q) == {"c"}
        assert conflicted_outputs(graph) == {"c"}
        assert conflicted_outputs(graph, outputs=["b"]) == set()

    @settings(max_examples=40, deadline=None)
    @given(
        signals=st.integers(min_value=2, max_value=6),
        width=st.integers(min_value=1, max_value=2),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_matches_oracle_on_random_quotients_and_bits(
            self, signals, width, density, seed, data):
        graph = build_state_graph(
            generate_stg(signals, width, density, seed=seed).stg
        )
        hidden = data.draw(st.sets(st.sampled_from(graph.signals)))
        q = quotient(graph, hidden)
        width_bits = data.draw(st.integers(min_value=0, max_value=2))
        bits = data.draw(st.lists(
            st.tuples(*[st.integers(0, 1)] * width_bits),
            min_size=q.num_states, max_size=q.num_states,
        ))
        _check_pass(q)
        _check_pass(q, extra_codes=bits)
