"""The EXPERIMENTS.md collector: its clause-size study runs."""

import importlib.util
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
