"""The bench-trend watchdog: committed thresholds and drift detection."""

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_ROOT, "tools", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_trend():
    return _load("bench_trend")


def _committed_artifacts():
    return sorted(
        os.path.join(_ROOT, name) for name in os.listdir(_ROOT)
        if name.startswith("BENCH_") and name.endswith(".json")
    )


def _sat_document():
    with open(os.path.join(_ROOT, "BENCH_sat_incremental.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# -- --check mode -----------------------------------------------------------


def test_check_passes_on_every_committed_artifact(bench_trend, capsys):
    paths = _committed_artifacts()
    assert len(paths) >= 5
    assert bench_trend.main(["--check", *paths]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == len(paths)


def test_check_fails_on_synthetically_regressed_artifact(
        bench_trend, tmp_path, capsys):
    document = _sat_document()
    document["speedup"] = 1.1  # below the committed 1.3 floor
    regressed = tmp_path / "BENCH_sat_incremental.json"
    regressed.write_text(json.dumps(document))
    assert bench_trend.main(["--check", str(regressed)]) == 1
    err = capsys.readouterr().err
    assert "below floor" in err


def test_check_rejects_unknown_schema_and_bad_json(
        bench_trend, tmp_path, capsys):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"schema": "repro-mystery/9"}))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert bench_trend.main(["--check", str(unknown), str(broken)]) == 1
    err = capsys.readouterr().err
    assert "unknown schema" in err
    assert str(broken) in err


def test_check_dispatches_repro_bench_to_structural_checker(
        bench_trend, tmp_path):
    document = {"schema": "repro-bench/1", "tag": "x"}  # rows missing
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(document))
    assert bench_trend.main(["--check", str(path)]) == 1


# -- compare mode -----------------------------------------------------------


def test_compare_flags_bad_direction_moves_only(bench_trend):
    baseline = _sat_document()
    improved = dict(baseline, speedup=baseline["speedup"] * 2,
                    incremental_seconds=baseline["incremental_seconds"] / 2)
    lines, regressions = bench_trend.compare_documents(baseline, improved)
    assert regressions == []
    assert any("speedup" in line and "ok" in line for line in lines)

    worse = dict(baseline, speedup=baseline["speedup"] / 2,
                 incremental_seconds=baseline["incremental_seconds"] * 2)
    _lines, regressions = bench_trend.compare_documents(baseline, worse)
    assert len(regressions) == 2
    assert any("speedup" in problem for problem in regressions)


def test_compare_tolerance_shields_small_drift(bench_trend):
    baseline = _sat_document()
    drifted = dict(baseline, speedup=baseline["speedup"] * 0.9)
    _lines, regressions = bench_trend.compare_documents(
        baseline, drifted, tolerance=0.25
    )
    assert regressions == []
    _lines, regressions = bench_trend.compare_documents(
        baseline, drifted, tolerance=0.05
    )
    assert len(regressions) == 1


def test_compare_rejects_schema_mismatch(bench_trend):
    _lines, regressions = bench_trend.compare_documents(
        {"schema": "repro-sat-bench/1"}, {"schema": "repro-bench/1"}
    )
    assert regressions and "schema mismatch" in regressions[0]


def test_compare_near_zero_baseline_gets_absolute_slack(bench_trend):
    baseline = {"schema": "repro-sat-bench/1", "incremental_seconds": 0.002}
    # Five times the baseline, but within the absolute floor's slack.
    ok = dict(baseline, incremental_seconds=0.01)
    _lines, regressions = bench_trend.compare_documents(baseline, ok)
    assert regressions == []
    bad = dict(baseline, incremental_seconds=0.2)
    _lines, regressions = bench_trend.compare_documents(baseline, bad)
    assert len(regressions) == 1


def test_repro_bench_trend_metrics_derive_from_rows(bench_trend):
    document = {
        "schema": "repro-bench/1",
        "rows": [
            {"note": None, "cpu": 1.5},
            {"note": None, "cpu": 0.5},
            {"note": "limit", "cpu": None},
        ],
    }
    metrics = bench_trend.trend_metrics(document)
    assert metrics == {"total_cpu_seconds": 2.0, "completed_rows": 2}


def test_compare_cli_exit_codes(bench_trend, tmp_path, capsys):
    baseline_path = os.path.join(_ROOT, "BENCH_sat_incremental.json")
    same = tmp_path / "same.json"
    same.write_text(json.dumps(_sat_document()))
    assert bench_trend.main(["--baseline", baseline_path, str(same)]) == 0
    capsys.readouterr()

    document = _sat_document()
    document["speedup"] = 0.5
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(document))
    assert bench_trend.main(["--baseline", baseline_path, str(worse)]) == 1
    err = capsys.readouterr().err
    assert "speedup" in err
