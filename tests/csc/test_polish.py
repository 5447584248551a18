"""Unit tests for post-SAT assignment polishing."""

import functools
import random

import pytest

from repro import obs
from repro.bench.suite import benchmark_names, load_benchmark
from repro.csc import Assignment, Value, expand, modular_synthesis
from repro.csc.polish import (
    _CODE,
    _ExpandedModel,
    _accepts,
    polish_assignment,
)
from repro.csc.values import edge_compatible
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stategraph.graph import EPSILON
from repro.stg import parse_g
from repro.runtime.options import SynthesisOptions

from tests.example_stgs import CSC_CONFLICT, HANDSHAKE, generated_corpus


def _excited_count(assignment):
    return sum(
        1
        for row in assignment.values
        for value in row
        if value.excited
    )


class TestPolish:
    def test_empty_assignment_unchanged(self):
        graph = build_state_graph(parse_g(HANDSHAKE))
        empty = Assignment.empty(graph.num_states)
        assert polish_assignment(graph, empty) is empty

    def test_sprawling_region_shrinks(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        # Valid but wasteful: three excited states where one suffices.
        sprawling = Assignment(
            ("n0",),
            [
                (Value.ZERO,), (Value.UP,), (Value.UP,),
                (Value.UP,), (Value.ONE,), (Value.DOWN,),
            ],
        )
        polished = polish_assignment(graph, sprawling)
        assert _excited_count(polished) < _excited_count(sprawling)
        # Still a correct solution.
        assert csc_conflicts(expand(graph, polished)) == []

    def test_minimal_region_stable(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        minimal = Assignment(
            ("n0",),
            [
                (Value.ZERO,), (Value.ZERO,), (Value.ZERO,),
                (Value.UP,), (Value.ONE,), (Value.DOWN,),
            ],
        )
        polished = polish_assignment(graph, minimal)
        # Exactly one rise and one fall must remain excited.
        assert _excited_count(polished) == 2

    def test_invalid_input_returned_unchanged(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        # All-zero does not resolve the conflict: not accepted, unchanged.
        broken = Assignment(
            ("n0",), [(Value.ZERO,)] * graph.num_states
        )
        polished = polish_assignment(graph, broken)
        assert polished.values == broken.values

    def test_synthesis_results_are_polished(self):
        graph = build_state_graph(parse_g(CSC_CONFLICT))
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=False)
        )
        # The rise and fall of the single state signal each occupy one
        # state after polishing.
        assert _excited_count(result.assignment) == 2


# -- the oracle: one whole-graph ``_accepts`` per flip ----------------------

_REFERENCE_CANDIDATES = {
    Value.UP: (Value.ZERO, Value.ONE),
    Value.DOWN: (Value.ONE, Value.ZERO),
}


def _locally_compatible(graph, rows, state, k, candidate):
    """The reference pre-filter: the flip keeps every labelled edge legal."""
    for label, target in graph.out_edges(state):
        if label is EPSILON:
            continue
        if not edge_compatible(candidate, rows[target][k]):
            return False
    for label, source in graph.in_edges(state):
        if label is EPSILON:
            continue
        if not edge_compatible(rows[source][k], candidate):
            return False
    return True


def _reference_polish(graph, assignment, model=None):
    """The polish walk judging every flip by ``_accepts`` on the whole
    trial assignment; returns ``(assignment, trials, flips)``.

    With ``model`` (built from ``assignment``), each trial is also put to
    the model, whose verdict must equal ``_accepts``'s.
    """
    if assignment.num_signals == 0 or not _accepts(graph, assignment):
        return assignment, 0, 0
    rows = [list(row) for row in assignment.values]
    names = assignment.names
    trials = flips = 0
    for _pass in range(4):
        changed = False
        for state in graph.states():
            for k in range(len(names)):
                value = rows[state][k]
                for candidate in _REFERENCE_CANDIDATES.get(value, ()):
                    if not _locally_compatible(
                        graph, rows, state, k, candidate
                    ):
                        continue
                    trials += 1
                    rows[state][k] = candidate
                    trial = Assignment(names, [tuple(row) for row in rows])
                    verdict = _accepts(graph, trial)
                    if model is not None:
                        assert model.flip(
                            state, k, _CODE[candidate]
                        ) == verdict, (state, k, candidate)
                    if verdict:
                        flips += 1
                        changed = True
                        break
                    rows[state][k] = value
        if not changed:
            break
    return Assignment(names, [tuple(row) for row in rows]), trials, flips


def _traced_polish(graph, assignment):
    """``polish_assignment`` plus its ``(polish_trials, polish_flips)``."""
    with obs.tracing() as tracer:
        with obs.span("polish"):
            polished = polish_assignment(graph, assignment)
    totals = tracer.counter_totals()
    return polished, totals.get("polish_trials", 0), totals.get(
        "polish_flips", 0
    )


def _check_against_reference(graph, assignment):
    """Every trial verdict and the polished result equal the reference's."""
    model = None
    if assignment.num_signals and _accepts(graph, assignment):
        model = _ExpandedModel(graph, assignment)
        assert (model.conflicts, model.violations) == (0, 0)
    expected, trials, flips = _reference_polish(graph, assignment, model)
    polished, got_trials, got_flips = _traced_polish(graph, assignment)
    assert polished.values == expected.values
    assert polished.names == expected.names
    assert (got_trials, got_flips) == (trials, flips)
    return trials, flips


@functools.lru_cache(maxsize=None)
def _post_repair(name):
    """Σ and the post-repair (unpolished) assignment of a Table-1 spec."""
    graph = build_state_graph(load_benchmark(name))
    result = modular_synthesis(
        graph, options=SynthesisOptions(polish=False, minimize=False)
    )
    return graph, result.assignment


class TestIncrementalAcceptance:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_table1_trials_match_accepts(self, name):
        graph, assignment = _post_repair(name)
        _check_against_reference(graph, assignment)

    def test_table1_flip_totals(self):
        # 442 trials reach the expansion and 6 more fail input
        # realisability before it; 436 flips are kept.
        trials = flips = 0
        for name in benchmark_names():
            _, got_trials, got_flips = _traced_polish(*_post_repair(name))
            trials += got_trials
            flips += got_flips
        assert (trials, flips) == (448, 436)

    @pytest.mark.parametrize(
        "generated", generated_corpus(), ids=lambda g: g.name
    )
    def test_generated_trials_match_accepts(self, generated):
        graph = build_state_graph(generated.stg)
        result = modular_synthesis(
            graph, options=SynthesisOptions(polish=False, minimize=False)
        )
        _check_against_reference(graph, result.assignment)

    @pytest.mark.parametrize(
        "name", ["nak-pa", "pe-rcv-ifc-fc", "sbuf-read-ctl", "atod"]
    )
    def test_random_flips_match_accepts(self, name):
        # Arbitrary single-entry changes, not just polish candidates:
        # regions also grow, and illegal jumps must be refused.
        graph, assignment = _post_repair(name)
        model = _ExpandedModel(graph, assignment)
        rows = [list(row) for row in assignment.values]
        rng = random.Random(name)
        for _ in range(60):
            state = rng.randrange(graph.num_states)
            k = rng.randrange(assignment.num_signals)
            value = rng.choice(list(Value))
            old = rows[state][k]
            rows[state][k] = value
            trial = Assignment(assignment.names, rows)
            verdict = _accepts(graph, trial)
            assert model.flip(state, k, _CODE[value]) == verdict
            if not verdict:
                rows[state][k] = old
            assert model.assignment().values == Assignment(
                assignment.names, rows
            ).values


#: A fork of an output and a dummy: with dummies kept, Σ has two ε edges
#: (1 -> 3 before b+, 2 -> 4 after it).
EPSILON_FORK = """
.model eps-fork
.inputs a
.outputs b
.dummy d
.graph
a+ d b+
d a-
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
"""


class TestEpsilonEdges:
    def _setup(self):
        graph = build_state_graph(
            parse_g(EPSILON_FORK), contract_dummies=False
        )
        assert (1, EPSILON, 3) in graph.edges
        up, down = Value.UP, Value.DOWN
        zero, one = Value.ZERO, Value.ONE
        # The state signal rises with b+ (inside 1 and 2) and falls
        # with b-.
        assignment = Assignment(
            ("x",), [(zero,), (up,), (up,), (one,), (one,), (down,)]
        )
        assert _accepts(graph, assignment)
        return graph, assignment

    def test_flip_breaking_only_an_epsilon_edge_is_rejected(self):
        graph, assignment = self._setup()
        rows = [list(row) for row in assignment.values]
        # Re-stabilising state 1 to 0 keeps its labelled edges legal but
        # not the ε edge 1 -> 3 (0 -> 1).
        assert _locally_compatible(graph, rows, 1, 0, Value.ZERO)
        rows[1][0] = Value.ZERO
        trial = Assignment(assignment.names, rows)
        assert not trial.check_edge_compatibility(graph)
        assert not _accepts(graph, trial)
        model = _ExpandedModel(graph, assignment)
        assert not model.flip(1, 0, _CODE[Value.ZERO])
        assert model.assignment().values == assignment.values
        assert model.trials == 1 and model.flips == 0

    def test_polish_matches_reference_with_dummies(self):
        graph, assignment = self._setup()
        _check_against_reference(graph, assignment)
