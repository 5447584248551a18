"""Validate a ``BENCH_<tag>.json`` artifact against its declared schema.

Usage::

    python tools/check_bench_schema.py BENCH_smoke.json [...]

Exit 0 when every file conforms, 1 otherwise (problems on stderr).
Deliberately dependency-free -- a hand-rolled structural check, not
jsonschema -- so CI can run it on the bare bench image.

Checks documents of schema ``repro-bench/1``, the Table-1 bench
runner's artifact::

    {
      "schema": "repro-bench/1",
      "tag": str,
      "rows": [
        {
          "benchmark": str, "method": str,
          "initial_states": int, "initial_signals": int,
          "final_states": int|null, "final_signals": int|null,
          "area": int|null, "cpu": number|null, "note": str|null,
          "formula_sizes": [[clauses, vars], ...],
          "counters": {name: number}
        }, ...
      ],
      "counters": {name: number},
      "spans": {name: {"count": int, "total_seconds": number,
                       "max_seconds": number,
                       "counters": {name: number}}} | null,
      "trace_counters": {name: number}       # optional; run-wide totals
    }
"""

from __future__ import annotations

import json
import sys

SCHEMA = "repro-bench/1"

_ROW_REQUIRED = {
    "benchmark": str,
    "method": str,
    "initial_states": int,
    "initial_signals": int,
    "formula_sizes": list,
    "counters": dict,
}
#: Fields that are a number when the run completed, null when it aborted.
_ROW_NULLABLE = ("final_states", "final_signals", "area", "cpu", "note")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_counters(mapping, where, problems):
    for name, value in mapping.items():
        if not isinstance(name, str) or not _is_number(value):
            problems.append(f"{where}: bad counter entry {name!r}: {value!r}")


def check_document(document, problems):
    """Append problem strings for every schema violation in ``document``."""
    if not isinstance(document, dict):
        problems.append("top level is not an object")
        return
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    if not isinstance(document.get("tag"), str) or not document.get("tag"):
        problems.append("tag missing or not a non-empty string")

    rows = document.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows missing or empty")
        rows = []
    for index, row in enumerate(rows):
        where = f"rows[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        for field, kind in _ROW_REQUIRED.items():
            if not isinstance(row.get(field), kind):
                problems.append(
                    f"{where}: {field} missing or not {kind.__name__}"
                )
        for field in _ROW_NULLABLE:
            if field not in row:
                problems.append(f"{where}: {field} missing")
        if row.get("note") is None and not _is_number(row.get("cpu")):
            problems.append(f"{where}: completed row has no cpu time")
        for pair in row.get("formula_sizes", []):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(n, int) for n in pair)):
                problems.append(f"{where}: bad formula_sizes entry {pair!r}")
        if isinstance(row.get("counters"), dict):
            _check_counters(row["counters"], where, problems)

    if not isinstance(document.get("counters"), dict):
        problems.append("counters missing or not an object")
    else:
        _check_counters(document["counters"], "counters", problems)

    trace_counters = document.get("trace_counters")
    if trace_counters is not None:
        if not isinstance(trace_counters, dict):
            problems.append("trace_counters is not an object")
        else:
            _check_counters(trace_counters, "trace_counters", problems)

    spans = document.get("spans")
    if spans is not None:
        if not isinstance(spans, dict):
            problems.append("spans is neither null nor an object")
        else:
            for name, entry in spans.items():
                where = f"spans[{name}]"
                if not isinstance(entry, dict):
                    problems.append(f"{where}: not an object")
                    continue
                if not isinstance(entry.get("count"), int):
                    problems.append(f"{where}: count missing or not int")
                for field in ("total_seconds", "max_seconds"):
                    if not _is_number(entry.get(field)):
                        problems.append(f"{where}: {field} missing")
                if not isinstance(entry.get("counters"), dict):
                    problems.append(f"{where}: counters missing")
                else:
                    _check_counters(entry["counters"], where, problems)


def check_file(path):
    """Problem strings for one artifact (empty list = valid)."""
    problems = []
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        return [f"cannot read: {exc}"]
    except ValueError as exc:
        return [f"not valid JSON: {exc}"]
    check_document(document, problems)
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: check_bench_schema.py BENCH_*.json", file=sys.stderr)
        return 1
    failed = False
    for path in argv:
        problems = check_file(path)
        if problems:
            failed = True
            print(f"{path}: INVALID", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
