"""Property-based end-to-end fuzzing of the whole synthesis flow.

Hypothesis generates random (but well-formed) phase-cycle controllers:
handshake branches, completion pulses, echo tails -- the construction
space the benchmark suite itself is drawn from.  For every generated STG
the full pipeline must uphold its invariants:

* the STG validates (1-safe, consistent, live);
* modular synthesis succeeds and the expanded graph satisfies CSC;
* collapsing the inserted signals recovers the original state graph;
* the ``.g`` writer round-trips the STG;
* the minimised covers implement the extracted next-state functions;
* the gate-level circuit conforms to the specification and is
  hazard-free.

The strategies live in :mod:`tests.example_stgs` so the verification
suites reuse the same corpus, and every ``@settings`` here passes
``derandomize=True``: the examples are a pure function of the strategy
definitions, so a failure in CI replays locally without a seed hunt.
"""

from hypothesis import HealthCheck, given, settings

from repro.csc import modular_synthesis
from repro.logic.espresso import verify_cover
from repro.logic.extract import next_state_tables
from repro.stategraph import build_state_graph, csc_conflicts, quotient
from repro.stg import parse_g, write_g
from repro.verify import verify_result

from tests.example_stgs import choice_controller, controller, well_formed


@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(choice_controller())
def test_fuzzed_choice_controllers(text):
    stg = well_formed(text)
    if stg is None:
        return
    graph = build_state_graph(stg)
    result = modular_synthesis(graph)
    assert csc_conflicts(result.expanded) == []
    report = verify_result(result, stg, level="hazards")
    assert report.ok, report.violations


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(controller())
def test_fuzzed_controllers_synthesise_correctly(text):
    stg = well_formed(text)
    if stg is None:
        return  # generation produced an inconsistent combination; skip

    # .g round-trip preserves the state graph.
    graph = build_state_graph(stg)
    reparsed = build_state_graph(parse_g(write_g(stg)))
    assert sorted(graph.codes) == sorted(reparsed.codes)

    result = modular_synthesis(graph)

    # CSC holds on the expansion.
    assert csc_conflicts(result.expanded) == []

    # Collapsing inserted signals recovers the original behaviour.
    if result.assignment.names:
        collapsed = quotient(
            result.expanded, hidden_signals=result.assignment.names
        ).graph
        assert sorted(collapsed.codes) == sorted(graph.codes)

    # Covers implement the extracted functions.
    tables = next_state_tables(result.expanded)
    for signal, cover in result.covers.items():
        onset, offset = tables[signal]
        assert verify_cover(cover, onset, offset) == []

    # The gate-level closed loop conforms.
    report = verify_result(result, stg, level="hazards")
    assert report.ok, report.violations
