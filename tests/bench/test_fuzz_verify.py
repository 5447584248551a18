"""The fuzz-verify campaign tool: artifact shape and gates."""

import copy
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


fuzz_verify = _load("fuzz_verify")

#: One full pass over the synthesis matrix (8 cells).
COUNT = len(fuzz_verify.MATRIX)


@pytest.fixture(scope="module")
def document():
    return fuzz_verify.campaign(COUNT, seed=9)


def test_campaign_is_clean_and_covers_the_matrix(document):
    assert fuzz_verify.check_document(document, min_count=COUNT) == []
    assert document["errors"] == 0
    assert document["verify_failures"] == 0
    assert document["inconclusive"] == 0
    assert {r["method"] for r in document["rows"]} == {
        "modular", "direct", "lavagno"
    }
    assert {r["sat_mode"] for r in document["rows"]} == {
        "incremental", "oneshot"
    }
    assert len(document["table1"]) == 23
    assert all(r["verdict"] is True for r in document["table1"])
    assert document["mutants"]["caught"] >= 1
    assert document["mutants"]["replay_failures"] == 0


def test_campaign_is_seed_deterministic(document):
    again = fuzz_verify.campaign(COUNT, seed=9, table1=False)
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "seconds"}
        for row in rows
    ]
    assert strip(again["rows"]) == strip(document["rows"])
    assert again["mutants"] == document["mutants"]


def test_check_rejects_regressions(document):
    failing = copy.deepcopy(document)
    failing["verify_failures"] = 1
    assert any(
        "verify_failures" in p
        for p in fuzz_verify.check_document(failing, min_count=COUNT)
    )

    no_mutants = copy.deepcopy(document)
    no_mutants["mutants"]["caught"] = 0
    assert any(
        "caught" in p
        for p in fuzz_verify.check_document(no_mutants, min_count=COUNT)
    )

    bad_replay = copy.deepcopy(document)
    bad_replay["mutants"]["replay_failures"] = 2
    assert any(
        "replay" in p
        for p in fuzz_verify.check_document(bad_replay, min_count=COUNT)
    )

    no_table1 = copy.deepcopy(document)
    no_table1["table1"] = no_table1["table1"][:5]
    assert any(
        "table1" in p
        for p in fuzz_verify.check_document(no_table1, min_count=COUNT)
    )

    undocumented = copy.deepcopy(document)
    undocumented["table1"][0]["verdict"] = None
    undocumented["table1_exceptions"] = []
    assert any(
        "documented exception" in p
        for p in fuzz_verify.check_document(undocumented, min_count=COUNT)
    )

    short = copy.deepcopy(document)
    assert any(
        "floor" in p
        for p in fuzz_verify.check_document(short, min_count=COUNT + 1)
    )


def test_check_cli_round_trip(tmp_path, document):
    path = tmp_path / "BENCH_verify.json"
    path.write_text(json.dumps(document))
    assert fuzz_verify._check(str(path), min_count=COUNT) == 0
    assert fuzz_verify._check(str(path)) == 1  # committed floor is 200
