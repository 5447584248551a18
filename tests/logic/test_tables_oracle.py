"""Next-state tables read from the implied-value masks, against the
per-state ``implied_value`` walk they replace.

``reference_next_state_tables`` is ``next_state_tables`` as it was
before the masks, kept verbatim, with the implied value computed by the
old rule (``_old_implied_value``: the state's excitation, else its code
bit).  The tuple tables must be identical, and ``synthesize_logic``'s
covers -- minimised from packed ints -- must equal espresso's covers of
the reference tables.
"""

import pytest

from repro.bench.suite import benchmark_names, load_benchmark
from repro.baselines import lavagno_synthesis
from repro.csc import direct_synthesis, modular_synthesis
from repro.logic.espresso import espresso
from repro.logic.extract import next_state_tables, synthesize_logic
from repro.stategraph import build_state_graph
from repro.stg import parse_g
from repro.stg.model import FALL, RISE

from tests.example_stgs import ALL, CSC_CONFLICT, generated_corpus


def _old_implied_value(graph, state, signal):
    direction = graph.excitation(state).get(signal)
    if direction == RISE:
        return 1
    if direction == FALL:
        return 0
    return graph.codes[state][graph.signal_index(signal)]


def reference_next_state_tables(graph, signals=None):
    chosen = sorted(graph.non_inputs) if signals is None else list(signals)
    tables = {}
    for signal in chosen:
        onset = set()
        offset = set()
        for state in graph.states():
            code = graph.code_of(state)
            if _old_implied_value(graph, state, signal):
                onset.add(code)
            else:
                offset.add(code)
        clash = onset & offset
        if clash:
            raise ValueError(
                f"signal {signal!r} has contradictory implied values on "
                f"{len(clash)} code(s); the graph does not satisfy CSC"
            )
        tables[signal] = (sorted(onset), sorted(offset))
    return tables


def assert_tables_match(graph):
    expected = reference_next_state_tables(graph)
    assert next_state_tables(graph) == expected
    covers, literals = synthesize_logic(graph)
    n = len(graph.signals)
    assert covers == {
        signal: espresso(onset, offset, n)
        for signal, (onset, offset) in expected.items()
    }
    assert literals == sum(cover.literals for cover in covers.values())
    for signal in sorted(graph.non_inputs)[:2]:
        assert next_state_tables(graph, [signal]) == (
            reference_next_state_tables(graph, [signal])
        )


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_expanded_graphs(name):
    assert_tables_match(modular_synthesis(load_benchmark(name)).expanded)


@pytest.mark.parametrize(
    "item", generated_corpus(), ids=[g.name for g in generated_corpus()]
)
@pytest.mark.parametrize(
    "method", [modular_synthesis, direct_synthesis, lavagno_synthesis],
    ids=["modular", "direct", "lavagno"],
)
def test_generated_corpus_expanded_graphs(item, method):
    assert_tables_match(method(item.stg).expanded)


@pytest.mark.parametrize("name", sorted(ALL))
def test_examples(name):
    stg = parse_g(ALL[name])
    assert_tables_match(modular_synthesis(stg).expanded)


def test_csc_violation_raises_the_same_error():
    graph = build_state_graph(parse_g(CSC_CONFLICT))
    with pytest.raises(ValueError) as expected:
        reference_next_state_tables(graph)
    with pytest.raises(ValueError) as tables:
        next_state_tables(graph)
    with pytest.raises(ValueError) as logic:
        synthesize_logic(graph)
    assert str(tables.value) == str(expected.value)
    assert str(logic.value) == str(expected.value)

