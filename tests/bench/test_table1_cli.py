"""Tests for the Table-1 command line printer."""

import pytest

from repro.bench.runner import table_rows
from repro.bench.table1 import format_table, main


def test_format_table_shape():
    rows = table_rows(names=["vbe-ex1"], methods=("modular",))
    text = format_table(rows, ("modular",))
    assert "vbe-ex1" in text
    assert "modular" in text
    assert "paper" in text
    # The spec column is the measured state count, the paper's after it.
    line = next(l for l in text.splitlines() if l.startswith("vbe-ex1"))
    assert "6 (5)" in line


def test_cli_runs_on_subset(capsys):
    assert main(["--names", "vbe-ex1", "--methods", "modular"]) == 0
    out = capsys.readouterr().out
    assert "vbe-ex1" in out


def test_cli_area_summary(capsys):
    assert main(
        ["--names", "vbe-ex1,sendr-done", "--methods", "modular,direct"]
    ) == 0
    out = capsys.readouterr().out
    assert "average area change" in out
    assert "paper reports" in out


def test_cli_no_minimize_skips_summary(capsys):
    assert main(
        ["--names", "vbe-ex1", "--methods", "modular,direct",
         "--no-minimize"]
    ) == 0
    out = capsys.readouterr().out
    assert "average area change" not in out


def test_cli_rejects_unknown_method():
    with pytest.raises(SystemExit):
        main(["--methods", "quantum"])


def test_cli_rejects_empty_method_list():
    with pytest.raises(SystemExit):
        main(["--methods", ","])


def test_cli_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["--names", "not-a-benchmark"])
