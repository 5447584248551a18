"""The observability flags of ``python -m repro`` and their composition."""

import importlib.util
import json
import os
from importlib import resources

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import load_journal
from repro.runtime import faults

from tests.example_stgs import CSC_CONFLICT


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spec.g"
    path.write_text(CSC_CONFLICT)
    return str(path)


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.clear()
    yield
    faults.clear()
    assert obs.active() is None, "the CLI left a tracer installed"


def test_trace_writes_wellformed_journal_even_with_quiet(spec, tmp_path,
                                                         capsys):
    trace = tmp_path / "run.jsonl"
    assert main([spec, "--quiet", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert " = " not in out  # --quiet still suppresses the equations
    events = load_journal(str(trace))  # raises if malformed
    names = {e.get("name") for e in events}
    assert "run" in names
    assert "sat_attempt" in names


def test_metrics_prints_counter_totals_despite_quiet(spec, capsys):
    assert main([spec, "--quiet", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "sat_attempts" in out
    assert "states_explored" in out


def test_metrics_surface_projection_cache_counters(spec, capsys):
    assert main([spec, "--quiet", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "proj_cache_hits" in out
    assert "proj_cache_misses" in out
    assert "quotients" in out


def test_profile_top_prints_span_table(spec, capsys):
    assert main([spec, "--quiet", "--profile-top", "3"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("run ")]
    assert lines, out
    # Header + exactly N span rows.
    header_index = next(
        i for i, line in enumerate(out.splitlines())
        if line.startswith("span")
    )
    assert len(out.splitlines()) - header_index - 1 == 3


def test_without_flags_no_tracer_is_installed(spec, capsys):
    assert main([spec, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "span" not in out
    assert "sat_attempts" not in out


def test_trace_written_on_degraded_run_and_exit_code_unchanged(
        spec, tmp_path, capsys):
    trace = tmp_path / "degraded.jsonl"
    with faults.injected("module-solve"):
        code = main([spec, "--quiet", "--trace", str(trace)])
    capsys.readouterr()
    assert code == 2  # observability flags never change the exit code
    events = load_journal(str(trace))
    module_ends = [
        e for e in events
        if e.get("ev") == "end" and e.get("name") == "module"
    ]
    assert any(
        e.get("attrs", {}).get("status") == "degraded" for e in module_ends
    )


def test_trace_written_on_error_run(spec, tmp_path, capsys):
    # With fallback disabled, a module fault is fatal; the journal must
    # still be written and closed for the failed run.
    trace = tmp_path / "error.jsonl"
    with faults.injected("module-solve"):
        code = main([spec, "--quiet", "--trace", str(trace),
                     "--no-fallback"])
    capsys.readouterr()
    assert code == 1
    events = load_journal(str(trace))  # closed cleanly despite the error
    run_end = next(
        e for e in events
        if e.get("ev") == "end" and e.get("name") == "run"
    )
    assert run_end["attrs"]["status"] == "error"


def test_analyze_trace_profile_reads_cli_journal(spec, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main([spec, "--quiet", "--trace", str(trace)]) == 0
    capsys.readouterr()

    module = _load_tool("analyze_trace")
    assert module.main([str(trace), "--profile", "--counters"]) == 0
    out = capsys.readouterr().out
    assert "span" in out
    assert "sat_attempts" in out

    # --require gates on a counter total: present passes, absent fails.
    assert module.main([str(trace), "--counters",
                        "--require", "sat_attempts"]) == 0
    assert module.main([str(trace), "--counters",
                        "--require", "result_cache_hits"]) == 1
    assert "result_cache_hits" in capsys.readouterr().err

    # A malformed journal fails loudly with exit 1.
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"ev": "start", "id": 1, "name": "x",
                               "t": 0.0}) + "\n")
    assert module.main([str(bad), "--profile"]) == 1


def _load_tool(name):
    tool = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tools", f"{name}.py",
    )
    spec_ = importlib.util.spec_from_file_location(name, tool)
    module = importlib.util.module_from_spec(spec_)
    spec_.loader.exec_module(module)
    return module


def test_metrics_include_derived_hit_rates(spec, capsys):
    assert main([spec, "--quiet", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "proj_cache_hit_rate" in out


def test_metrics_tree_prints_span_hierarchy(spec, capsys):
    assert main([spec, "--quiet", "--metrics-tree"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(line.startswith("span") for line in lines)  # table header
    assert any(line.startswith("run") for line in lines)
    assert any(line.startswith("  module") for line in lines)  # indented


def test_metrics_tree_splits_minimize_into_espresso_phases(capsys):
    spec = resources.files("repro.data").joinpath("nak-pa.g")
    assert main([str(spec), "--quiet", "--metrics-tree"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(
        i for i, line in enumerate(lines) if line.startswith("  minimize ")
    )
    children = []
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        children.append(line.split()[0])
    assert children == ["expand", "irredundant", "reduce"]


def test_verify_span_splits_into_csc_and_explore(tmp_path, monkeypatch,
                                                capsys):
    # The static CSC re-check and the closed loop are the verify span's
    # two children.  The loop evaluates each distinct circuit vector's
    # gates once; the journal-only ``verify_vectors`` counts them.  On
    # alex-nonfc some vectors recur with different specification states,
    # so there are fewer of them than explored states.
    from repro.obs import build_forest, walk_forest
    from repro.verify.circuit import Circuit

    evaluations = []
    evaluate = Circuit.excited_mask

    def counting(self, code):
        evaluations.append(code)
        return evaluate(self, code)

    monkeypatch.setattr(Circuit, "excited_mask", counting)
    spec = resources.files("repro.data").joinpath("alex-nonfc.g")
    trace = tmp_path / "run.jsonl"
    assert main([str(spec), "--quiet", "--json", "--trace", str(trace)]) == 0
    document = json.loads(capsys.readouterr().out)
    nodes = list(walk_forest(build_forest(load_journal(str(trace)))))
    (verify,) = [node for node in nodes if node.name == "verify"]
    assert [child.name for child in verify.children] == ["csc", "explore"]
    explore = verify.children[1]
    vectors = explore.counters.as_dict()["verify_vectors"]
    assert vectors == len(evaluations) == len(set(evaluations))
    states = verify.counters.as_dict()["verify_states"]
    assert 0 < vectors < states == document["verify"]["states"]
    assert "verify_vectors" not in document["counters"]


def test_repair_polish_and_expansion_spans_nest(tmp_path, capsys):
    # Each repair round builds its expanded model in a ``model`` span,
    # next to the round's solve spans; polish splits into its gate and
    # its walk; the one expansion after polish is an ``expansion`` span
    # of ``run``, not ``run`` self time.  The profile groups spans by
    # name, so its ``expansion`` row is that one span and its ``expand``
    # row holds espresso's rounds alone.
    from repro.obs import build_forest, walk_forest

    spec = resources.files("repro.data").joinpath("mmu0.g")
    trace = tmp_path / "run.jsonl"
    assert main([str(spec), "--quiet", "--trace", str(trace),
                 "--profile-top", "50"]) == 0
    nodes = list(walk_forest(build_forest(load_journal(str(trace)))))
    (run,) = [node for node in nodes if node.name == "run"]
    phases = [child.name for child in run.children]
    assert phases.count("expansion") == 1
    assert (phases.index("repair") < phases.index("polish")
            < phases.index("expansion") < phases.index("minimize"))
    repair, polish, expansion, minimize = (
        run.children[phases.index(name)]
        for name in ("repair", "polish", "expansion", "minimize")
    )
    rounds = repair.counters.as_dict()["repair_rounds"]
    assert [child.name for child in repair.children] == ["model"] * rounds
    assert [child.name for child in polish.children] == ["gate", "walk"]
    assert "polish_flips" in polish.counters.as_dict()
    assert expansion.children == []

    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("span"))
    counts = {line.split()[0]: int(line.split()[1])
              for line in lines[header + 1:]}
    espresso_rounds = [child for child in minimize.children
                       if child.name == "expand"]
    assert counts["expansion"] == 1
    assert counts["expand"] == len(espresso_rounds) > 1


def test_metrics_prom_writes_valid_exposition_page(spec, tmp_path, capsys):
    from repro.obs import validate_prometheus_text

    prom = tmp_path / "metrics.prom"
    assert main([spec, "--quiet", "--metrics-prom", str(prom)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {prom}" in out
    page = prom.read_text()
    assert validate_prometheus_text(page) == []
    assert "repro_sat_attempts_total" in page
    assert "# TYPE repro_module_solve_seconds histogram" in page
    assert 'repro_module_solve_seconds_bucket{le="+Inf"}' in page


def test_trace_memory_records_peak_gauges(spec, tmp_path, capsys):
    prom = tmp_path / "metrics.prom"
    assert main([spec, "--quiet", "--trace-memory",
                 "--metrics-prom", str(prom)]) == 0
    capsys.readouterr()
    page = prom.read_text()
    assert 'repro_peak_memory_bytes{span="run"}' in page


def test_trace_gz_journal_round_trips(spec, tmp_path, capsys):
    trace = tmp_path / "run.jsonl.gz"
    assert main([spec, "--quiet", "--trace", str(trace)]) == 0
    capsys.readouterr()
    import gzip

    with gzip.open(str(trace), "rt") as handle:  # genuinely gzipped
        assert json.loads(handle.readline())["ev"] == "trace"
    events = load_journal(str(trace))
    assert "run" in {e.get("name") for e in events}


def test_analyze_trace_diagnoses_truncated_journal(spec, tmp_path,
                                                   capsys):
    trace = tmp_path / "run.jsonl"
    assert main([spec, "--quiet", "--trace", str(trace)]) == 0
    capsys.readouterr()
    torn = tmp_path / "torn.jsonl"
    text = trace.read_text()
    torn.write_text(text[: len(text) // 2])  # cut mid-record

    module = _load_tool("analyze_trace")
    assert module.main([str(torn), "--profile"]) == 1
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    assert "line" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_trace_tool_attributes_parallel_journal(spec, tmp_path,
                                                         capsys):
    # Two CLI journals concatenated (``cat a.jsonl b.jsonl``): the
    # multi-segment journal the tool must fold.
    parts = []
    for method in ("modular", "direct"):
        part = tmp_path / f"{method}.jsonl"
        assert main([spec, "--quiet", "--method", method,
                     "--trace", str(part)]) == 0
        parts.append(part.read_text())
    trace = tmp_path / "both.jsonl"
    trace.write_text("".join(parts))
    capsys.readouterr()

    module = _load_tool("analyze_trace")
    folded = tmp_path / "both.folded"
    chrome = tmp_path / "both.chrome.json"
    assert module.main([str(trace), "--verify",
                        "--flamegraph", str(folded),
                        "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "self" in out  # the critical-path hops
    assert folded.read_text().strip()
    document = json.loads(chrome.read_text())
    assert document["traceEvents"]
    lanes = {
        event["args"]["name"] for event in document["traceEvents"]
        if event["ph"] == "M"
    }
    assert lanes == {"main", "worker segment 1"}  # both journals folded
