"""The EXPERIMENTS.md collector: its studies run, its numbers are current."""

import importlib.util
import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_ROOT, "tools", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clause_study_runs_on_mr0():
    collect = _load("collect_experiments")
    study = collect.clause_study(["mr0"])
    assert list(study) == ["mr0"]
    row = study["mr0"]
    largest = max(clauses for clauses, _vars in row["modular_sizes"])
    assert row["ratio"] == round(row["direct_clauses"] / largest, 1)
    # The paper's point: the direct formula dwarfs every modular one.
    assert row["ratio"] > 10


def test_ablation_and_scaling_studies_run_on_small_inputs():
    collect = _load("collect_experiments")
    engines = collect.engine_ablation("vbe-ex1")
    assert set(engines["modular"]) == set(collect.ENGINES)
    assert not any(cell["aborted"] for cell in engines["direct"].values())
    polish = collect.polish_ablation(["nouse"])["nouse"]
    assert set(polish) == {"polished", "raw"}
    order = collect.order_ablation("nouse")
    assert order["heuristic"]["state_signals"] >= 1
    scaling = collect.scaling_sweep([1])
    assert scaling["1"]["states"] == 22
    assert not scaling["1"]["direct"]["aborted"]


def test_committed_modular_cells_equal_the_golden_file():
    # EXPERIMENTS.md's Table 1 is rendered from tools/experiments.json,
    # so its modular cells must be what the default configuration
    # produces today.
    from tests.bench.test_table1_golden import GOLDEN

    with open(os.path.join(_ROOT, "tools", "experiments.json"),
              encoding="utf-8") as handle:
        benchmarks = json.load(handle)["benchmarks"]
    assert set(benchmarks) == set(GOLDEN)
    for name, (states, signals, _inserted, literals, _sha) in GOLDEN.items():
        cell = benchmarks[name]["modular"]
        assert (cell["final_states"], cell["final_signals"], cell["area"]) \
            == (states, signals, literals), name
