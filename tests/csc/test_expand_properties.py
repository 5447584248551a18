"""Property-based tests for state-graph expansion."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.csc import Assignment, Value, expand
from repro.csc.insertion import ExpandedModel
from repro.csc.values import CYCLE, edge_compatible
from repro.stategraph import build_state_graph
from repro.stg import parse_g

from tests.csc.test_insertion import expansion_keys, model_keys
from tests.example_stgs import CSC_CONFLICT

GRAPH = build_state_graph(parse_g(CSC_CONFLICT))

# The six-state cycle M0 -> M1 -> ... -> M5 -> M0: a valid single-signal
# assignment is any walk on the value cycle that steps at most one
# position per edge and returns to its start.


@st.composite
def cycle_assignment(draw):
    """A random edge-compatible assignment over the six-cycle."""
    values = [draw(st.sampled_from(CYCLE))]
    for _ in range(5):
        current = values[-1]
        successors = [v for v in CYCLE if edge_compatible(current, v)]
        values.append(draw(st.sampled_from(successors)))
    # Close the cycle.
    assume(edge_compatible(values[5], values[0]))
    return values


@settings(max_examples=200, deadline=None)
@given(cycle_assignment())
def test_expansion_state_count(values):
    assignment = Assignment(("n0",), [(v,) for v in values])
    expanded = expand(GRAPH, assignment)
    excited = sum(1 for v in values if v.excited)
    assert expanded.num_states == GRAPH.num_states + excited


@settings(max_examples=200, deadline=None)
@given(cycle_assignment())
def test_expansion_codes_consistent(values):
    # The StateGraph constructor re-validates consistent assignment on
    # every edge; successful construction is the property.
    assignment = Assignment(("n0",), [(v,) for v in values])
    expanded = expand(GRAPH, assignment)
    assert len(expanded.signals) == len(GRAPH.signals) + 1


@settings(max_examples=200, deadline=None)
@given(cycle_assignment())
def test_model_copies_cover_every_state(values):
    assignment = Assignment(("n0",), [(v,) for v in values])
    expanded = expand(GRAPH, assignment)
    model = ExpandedModel(GRAPH, assignment)
    assert model_keys(model) == expansion_keys(GRAPH, expanded)
    # Each original state stands for one or two expanded states.
    for state in GRAPH.states():
        count = len(model._keys[state])
        expected = 2 if values[state].excited else 1
        assert count == expected


@settings(max_examples=150, deadline=None)
@given(cycle_assignment())
def test_signal_fires_once_per_excited_state(values):
    assignment = Assignment(("n0",), [(v,) for v in values])
    expanded = expand(GRAPH, assignment)
    fired = [
        label for _s, label, _t in expanded.edges
        if label is not None and label[0] == "n0"
    ]
    excited = sum(1 for v in values if v.excited)
    assert len(fired) == excited
