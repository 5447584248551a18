"""Property-based coverage of the degradation paths.

Two invariants from the robustness contract:

* an injected per-module solver fault must leave a ``degraded`` (or
  ``skipped``) mark in the :class:`RunReport` while the final circuit
  still verifies against the specification;
* arbitrarily corrupted ``.g`` text must only ever escape ``parse_g`` as
  a :class:`~repro.errors.ReproError` subclass (or parse cleanly).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.runtime import faults
from repro.runtime.run import run_synthesis
from repro.stg import parse_g
from repro.stategraph import build_state_graph, csc_conflicts
from repro.verify import verify_result

from tests.example_stgs import ALL, CHOICE, CONCURRENT, CSC_CONFLICT


@pytest.fixture(autouse=True)
def _clean_registry():
    faults.clear()
    yield
    faults.clear()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    text=st.sampled_from([CSC_CONFLICT, CONCURRENT, CHOICE]),
    faulted=st.integers(min_value=0, max_value=3),
)
def test_injected_module_fault_degrades_but_verifies(text, faulted):
    """One output's modular pass fails; the run covers for it."""
    stg = parse_g(text)
    graph = build_state_graph(stg)
    outputs = sorted(graph.non_inputs)
    target = outputs[faulted % len(outputs)]

    with faults.injected(
        "module-solve", match=lambda output: output == target
    ):
        report = run_synthesis(graph, method="modular")

    assert report.status in ("ok", "degraded")
    entry = report.module(target)
    assert entry is not None
    assert entry.status in ("degraded", "skipped")
    # Every other output solved modularly.
    for other in report.modules:
        if other.output != target:
            assert other.status == "ok"

    result = report.result
    assert result is not None
    assert csc_conflicts(result.expanded) == []
    check = verify_result(result, stg, level="hazards")
    assert check.ok, check.violations


def _corrupt(text, position, payload):
    return text[:position] + payload + text[position + 1:]


@settings(max_examples=60, deadline=None)
@given(
    text=st.sampled_from(sorted(ALL.values())),
    position=st.integers(min_value=0, max_value=400),
    payload=st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_categories=["Cs"]
        ),
        max_size=6,
    ),
)
def test_corrupted_g_text_raises_only_repro_errors(text, position, payload):
    corrupted = _corrupt(text, position % len(text), payload)
    try:
        parse_g(corrupted)
    except ReproError:
        pass  # structured failure: exactly what the CLI can report


@settings(max_examples=40, deadline=None)
@given(
    text=st.sampled_from(sorted(ALL.values())),
    cut=st.integers(min_value=0, max_value=400),
)
def test_truncated_g_text_raises_only_repro_errors(text, cut):
    try:
        parse_g(text[: cut % len(text)])
    except ReproError:
        pass
