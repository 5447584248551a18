"""Integration tests: partition_sat, propagate, and modular_synthesis."""

import weakref

import pytest

from repro.bench.suite import load_benchmark
from repro.csc import (
    Assignment,
    determine_input_set,
    modular_synthesis,
    partition_sat,
    propagate,
    synthesis,
)
from repro.stg import parse_g
from repro.stategraph import build_state_graph, csc_conflicts
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import ALL, CHOICE, CONCURRENT, CSC_CONFLICT, HANDSHAKE


class TestPartitionSat:
    def test_conflict_output_gets_signal(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        empty = Assignment.empty(graph.num_states)
        input_set = determine_input_set(graph, "c", empty)
        result = partition_sat(graph, "c", input_set, empty)
        assert result.signals_added >= 1
        assert result.num_macro_states <= graph.num_states

    def test_clean_output_needs_nothing(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        empty = Assignment.empty(graph.num_states)
        input_set = determine_input_set(graph, "b", empty)
        result = partition_sat(graph, "b", input_set, empty)
        assert result.signals_added == 0
        assert result.outcome.attempts == []

    def test_propagate_extends_assignment(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        empty = Assignment.empty(graph.num_states)
        input_set = determine_input_set(graph, "c", empty)
        result = partition_sat(graph, "c", input_set, empty)
        extended = propagate(empty, result)
        assert extended.num_signals == result.signals_added
        assert extended.num_states == graph.num_states

    def test_propagated_assignment_resolves_conflict(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        empty = Assignment.empty(graph.num_states)
        input_set = determine_input_set(graph, "c", empty)
        result = partition_sat(graph, "c", input_set, empty)
        extended = propagate(empty, result)
        remaining = csc_conflicts(
            graph, outputs=["c"], extra_codes=extended.cur_bits()
        )
        assert remaining == []

    def test_signal_naming_uses_name_start(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        empty = Assignment.empty(graph.num_states)
        input_set = determine_input_set(graph, "c", empty)
        result = partition_sat(
            graph, "c", input_set, empty, name_start=7
        )
        assert result.macro_assignment.names[0] == "csc7"


class TestModularSynthesis:
    def test_all_examples_synthesise(self):
        for text in ALL.values():
            result = modular_synthesis(parse_g(text))
            assert csc_conflicts(result.expanded) == []
            assert result.literals is not None and result.literals > 0

    def test_clean_stg_needs_no_signals(self):
        result = modular_synthesis(parse_g(HANDSHAKE))
        assert result.state_signals == 0
        assert result.final_states == result.initial_states

    def test_conflict_stg_gets_one_signal(self):
        result = modular_synthesis(parse_g(CSC_CONFLICT))
        assert result.state_signals == 1
        assert result.final_states > result.initial_states
        assert result.final_signals == result.initial_signals + 1

    def test_module_reports(self):
        result = modular_synthesis(parse_g(CSC_CONFLICT))
        assert [m.output for m in result.modules] == ["b", "c"]
        by_output = {m.output: m for m in result.modules}
        assert by_output["c"].signals_added == 1
        assert by_output["b"].signals_added == 0

    def test_formula_sizes_recorded(self):
        result = modular_synthesis(parse_g(CSC_CONFLICT))
        sizes = result.formula_sizes()
        assert sizes
        assert all(clauses > 0 and variables > 0 for clauses, variables in sizes)

    def test_modular_formulas_smaller_than_whole_graph(self):
        # The modular graph for c hides unrelated signals, so its SAT
        # formula involves fewer states than the complete graph would.
        result = modular_synthesis(parse_g(CSC_CONFLICT))
        module = next(m for m in result.modules if m.output == "c")
        assert module.num_macro_states < result.graph.num_states

    def test_output_order_respected(self):
        result = modular_synthesis(
            parse_g(CSC_CONFLICT),
            options=SynthesisOptions(output_order=["c", "b"]),
        )
        assert [m.output for m in result.modules] == ["c", "b"]

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError):
            modular_synthesis(
                parse_g(CSC_CONFLICT),
                options=SynthesisOptions(output_order=["zz"]),
            )

    def test_accepts_prebuilt_state_graph(self):
        graph = build_state_graph(parse_g(CHOICE))
        result = modular_synthesis(graph)
        assert result.graph is graph

    def test_minimize_false_skips_logic(self):
        result = modular_synthesis(
            parse_g(CONCURRENT), options=SynthesisOptions(minimize=False)
        )
        assert result.covers is None
        assert result.literals is None

    @pytest.mark.parametrize("name", ["csc-ex", "mmu0"])
    def test_projection_cache_released_before_repair(self, name,
                                                     monkeypatch):
        # Only the module loop reads the run's projections; repair,
        # polish and the expansion must not keep them resident.
        stg = parse_g(CSC_CONFLICT) if name == "csc-ex" else (
            load_benchmark(name)
        )
        caches = []
        alive = []
        project = synthesis.ProjectionCache
        repair = synthesis._repair

        def tracked(graph):
            cache = project(graph)
            caches.append(weakref.ref(cache))
            return cache

        def checked(*args, **kwargs):
            alive.append([ref() is not None for ref in caches])
            return repair(*args, **kwargs)

        monkeypatch.setattr(synthesis, "ProjectionCache", tracked)
        monkeypatch.setattr(synthesis, "_repair", checked)
        modular_synthesis(stg, options=SynthesisOptions(minimize=False))
        assert alive == [[False]]

    def test_expanded_graph_codes_unique_per_function(self):
        result = modular_synthesis(parse_g(CSC_CONFLICT))
        expanded = result.expanded
        seen = {}
        for state in expanded.states():
            key = expanded.code_of(state)
            implied = tuple(
                expanded.implied_value(state, s)
                for s in sorted(expanded.non_inputs)
            )
            assert seen.setdefault(key, implied) == implied
