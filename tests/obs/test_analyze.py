"""Span forests, self time, attribution, critical path."""

import pytest

from repro.obs import (
    build_forest,
    critical_path,
    format_attribution,
    format_critical_path,
    format_tree,
    module_attribution,
    name_attribution,
    verify_forest,
    walk_forest,
)

HEADER = {"ev": "trace", "version": 1, "clock": "perf_counter"}


def _span(sid, name, start, dur, parent=None, attrs=None, counters=None):
    """A well-formed start/end record pair."""
    start_record = {"ev": "start", "id": sid, "name": name, "t": start}
    if parent is not None:
        start_record["parent"] = parent
    end_record = {
        "ev": "end", "id": sid, "name": name,
        "t": start + dur, "dur": dur,
    }
    if attrs:
        start_record["attrs"] = dict(attrs)
        end_record["attrs"] = dict(attrs)
    if counters:
        end_record["counters"] = dict(counters)
    return start_record, end_record


def _serial_run():
    """run(10s) > module x(3s: encode 2s) + module y(4s: sat 1s)."""
    run_s, run_e = _span(1, "run", 0.0, 10.0)
    mx_s, mx_e = _span(2, "module", 1.0, 3.0, parent=1,
                       attrs={"output": "x"})
    enc_s, enc_e = _span(3, "encode", 1.5, 2.0, parent=2,
                         counters={"num_clauses": 40})
    my_s, my_e = _span(4, "module", 5.0, 4.0, parent=1,
                       attrs={"output": "y"})
    sat_s, sat_e = _span(5, "sat_attempt", 5.5, 1.0, parent=4,
                         counters={"backtracks": 7})
    return [HEADER, run_s, mx_s, enc_s, enc_e, mx_e,
            my_s, sat_s, sat_e, my_e, run_e]


# -- forest construction ----------------------------------------------------


def test_build_forest_resolves_parents_and_self_time():
    roots = build_forest(_serial_run())
    assert len(roots) == 1
    run = roots[0]
    assert run.name == "run"
    assert [c.name for c in run.children] == ["module", "module"]
    assert run.child_seconds == pytest.approx(7.0)
    assert run.self_seconds == pytest.approx(3.0)
    module_x = run.children[0]
    assert module_x.attrs == {"output": "x"}
    assert module_x.self_seconds == pytest.approx(1.0)
    assert module_x.children[0].counters["num_clauses"] == 40


def test_build_forest_skips_unended_spans():
    run_s, _run_e = _span(1, "run", 0.0, 5.0)
    mod_s, mod_e = _span(2, "module", 1.0, 2.0, parent=1)
    roots = build_forest([HEADER, run_s, mod_s, mod_e])
    # The unended run has no duration to attribute; the module becomes
    # a root because its parent never closed.
    assert [r.name for r in roots] == ["module"]


def test_multi_segment_forest_keeps_segment_indices():
    worker = [HEADER, *_span(1, "module", 0.0, 2.0)]
    events = _serial_run() + worker
    roots = build_forest(events)
    assert [(r.name, r.segment) for r in roots] == [
        ("run", 0), ("module", 1),
    ]
    # Ids are per segment: the worker's id 1 must not link into the
    # parent segment's id space.
    assert roots[1].children == []


def test_self_seconds_clamped_at_zero_on_float_jitter():
    run_s, run_e = _span(1, "run", 0.0, 1.0)
    child_s, child_e = _span(2, "step", 0.0, 1.0000004, parent=1)
    roots = build_forest([HEADER, run_s, child_s, child_e, run_e])
    assert roots[0].self_seconds == 0.0


# -- verification -----------------------------------------------------------


def test_verify_forest_accepts_consistent_arithmetic():
    assert verify_forest(build_forest(_serial_run())) == []


def test_verify_forest_flags_children_exceeding_parent():
    run_s, run_e = _span(1, "run", 0.0, 1.0)
    child_s, child_e = _span(2, "module", 0.0, 5.0, parent=1)
    problems = verify_forest(
        build_forest([HEADER, run_s, child_s, child_e, run_e])
    )
    assert len(problems) == 1
    assert "children sum" in problems[0]


# -- attribution ------------------------------------------------------------


def test_module_attribution_folds_whole_subtrees_per_output():
    attribution = module_attribution(build_forest(_serial_run()))
    assert list(attribution) == ["x", "y"]
    x = attribution["x"]
    assert x.seconds == pytest.approx(3.0)
    # Subtree fold: the encode child's counters attribute to x.
    assert x.counters["num_clauses"] == 40
    assert attribution["y"].counters["backtracks"] == 7


def test_module_seconds_sum_to_parent_child_time():
    # The acceptance invariant: per-module attribution accounts for the
    # run span's entire child time spent in module processing.
    roots = build_forest(_serial_run())
    attribution = module_attribution(roots)
    total = sum(entry.seconds for entry in attribution.values())
    run = roots[0]
    module_time = sum(
        c.duration for c in run.children if c.name == "module"
    )
    assert total == pytest.approx(module_time)
    assert total == pytest.approx(run.child_seconds)


def test_name_attribution_subtracts_child_time():
    flat = name_attribution(build_forest(_serial_run()))
    assert flat["run"].self_seconds == pytest.approx(3.0)
    assert flat["module"].count == 2
    assert flat["module"].self_seconds == pytest.approx(1.0 + 3.0)


# -- critical path ---------------------------------------------------------


def test_critical_path_descends_heaviest_child():
    path = critical_path(build_forest(_serial_run()))
    assert [node.name for node in path] == ["run", "module", "sat_attempt"]
    assert path[1].attrs["output"] == "y"


def test_critical_path_empty_forest():
    assert critical_path([]) == []


# -- rendering --------------------------------------------------------------


def test_format_tree_collapses_siblings_by_name():
    text = format_tree(build_forest(_serial_run()))
    lines = text.splitlines()
    assert lines[0].startswith("span")
    module_rows = [line for line in lines if "module" in line]
    assert len(module_rows) == 1  # both module spans in one row
    assert " 2 " in module_rows[0].replace("module", " ")
    assert any(line.startswith("  module") for line in lines)  # indented


def test_format_tree_min_seconds_hides_light_rows():
    text = format_tree(build_forest(_serial_run()), min_seconds=5.0)
    assert "run" in text
    assert "encode" not in text


def test_format_attribution_and_critical_path_render():
    roots = build_forest(_serial_run())
    table = format_attribution(module_attribution(roots))
    assert "x" in table and "y" in table
    path_text = format_critical_path(critical_path(roots))
    assert "run" in path_text
    assert format_critical_path([]) == "no spans recorded"


def test_walk_forest_yields_every_node():
    names = [n.name for n in walk_forest(build_forest(_serial_run()))]
    assert names == ["run", "module", "encode", "module", "sat_attempt"]
