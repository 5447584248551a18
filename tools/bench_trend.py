"""Bench-trend watchdog: threshold checks and baseline/candidate deltas.

Usage::

    python tools/bench_trend.py --check BENCH_*.json
    python tools/bench_trend.py --baseline OLD.json CANDIDATE.json
                                [--tolerance R]

``--check`` validates each committed artifact against its schema's
structural rules *and* the performance floors/ceilings its producing
tool promises (dispatched on the document's ``schema`` field):

* ``repro-sat-bench/1`` -- ``speedup >= 1.3``, ``signals_agree``
  (``tools/bench_sat.py``);
* ``repro-service-bench/1`` -- ``server_5xx == 0``,
  ``duplicates_byte_identical``, the corpus and concurrency floors
  (``tools/loadtest.py``);
* ``repro-verify-bench/1`` -- zero verifier failures/errors, matrix
  coverage, Table-1 verified, mutants caught-and-replayed
  (``tools/fuzz_verify.py``);
* ``repro-bench/1`` -- structural check (``tools/check_bench_schema``).

The threshold logic lives in the producing tools' ``check_document``
functions; this watchdog only dispatches, so a floor is never written
down twice.

The compare mode takes a committed baseline and a freshly produced
candidate of the *same* schema and flags per-metric deltas beyond a
direction-aware tolerance (default 25%): a metric that should stay
high (``speedup``) regresses by dropping, one that should stay low
(wall-clock seconds, failure counts) by rising.  Exit 0 when
everything holds, 1 otherwise -- CI gates on it exactly like the
schema check.

Run with the repository's ``src`` on ``PYTHONPATH`` (or the package
installed).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_src) and _src not in sys.path:
        sys.path.insert(0, _src)

_TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))

#: schema -> module holding its ``check_document`` (None = structural only).
CHECKERS = {
    "repro-sat-bench/1": "bench_sat",
    "repro-service-bench/1": "loadtest",
    "repro-verify-bench/1": "fuzz_verify",
    "repro-bench/1": None,
}

#: Per-schema trend metrics: name -> "higher" (regression when it drops)
#: or "lower" (regression when it rises).  ``repro-bench/1`` metrics are
#: derived from the rows by :func:`trend_metrics`.
TREND_METRICS = {
    "repro-sat-bench/1": {
        "speedup": "higher",
        "incremental_seconds": "lower",
        "oneshot_fallbacks": "lower",
    },
    "repro-service-bench/1": {
        "throughput_rps": "higher",
        "latency_p50_seconds": "lower",
        "latency_p95_seconds": "lower",
        "cache_hit_rate": "higher",
    },
    "repro-verify-bench/1": {
        "verified_rate": "higher",
        "verify_failures": "lower",
        "mutants_caught": "higher",
    },
    "repro-bench/1": {
        "total_cpu_seconds": "lower",
        "completed_rows": "higher",
    },
}

#: Relative slack is taken against max(|baseline|, this) so near-zero
#: baselines (e.g. a few milliseconds) still get real slack.
ABS_FLOOR = 0.05


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_artifact(document):
    """Problem strings for one artifact (structure + thresholds)."""
    if not isinstance(document, dict):
        return ["top level is not an object"]
    schema = document.get("schema")
    if schema not in CHECKERS:
        return [f"unknown schema {schema!r}"]
    checker = CHECKERS[schema]
    if checker is not None:
        return _load_tool(checker).check_document(document)
    problems = []
    _load_tool("check_bench_schema").check_document(document, problems)
    return problems


def trend_metrics(document):
    """The ``{name: value}`` trend metrics for one artifact."""
    schema = document.get("schema")
    spec = TREND_METRICS.get(schema, {})
    if schema == "repro-bench/1":
        rows = document.get("rows") or []
        completed = [row for row in rows if row.get("note") is None]
        return {
            "total_cpu_seconds": sum(row.get("cpu") or 0 for row in completed),
            "completed_rows": len(completed),
        }
    metrics = {}
    for name in spec:
        value = document.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[name] = value
    return metrics


def compare_documents(baseline, candidate, tolerance=0.25):
    """``(report_lines, regressions)`` for a baseline/candidate pair.

    Both documents must declare the same schema.  A metric regresses
    when it moves in the bad direction by more than
    ``tolerance * max(|baseline|, ABS_FLOOR)``; movement in the good
    direction (or missing metrics) never flags.
    """
    schema = baseline.get("schema")
    if candidate.get("schema") != schema:
        return [], [
            f"schema mismatch: baseline {schema!r} vs "
            f"candidate {candidate.get('schema')!r}"
        ]
    directions = TREND_METRICS.get(schema)
    if directions is None:
        return [], [f"unknown schema {schema!r}"]
    base = trend_metrics(baseline)
    cand = trend_metrics(candidate)
    lines = []
    regressions = []
    for name, direction in directions.items():
        if name not in base or name not in cand:
            continue
        old, new = base[name], cand[name]
        slack = tolerance * max(abs(old), ABS_FLOOR)
        if direction == "higher":
            bad = new < old - slack
        else:
            bad = new > old + slack
        arrow = "<-" if direction == "higher" else "->"
        status = "REGRESSION" if bad else "ok"
        lines.append(
            f"  {name:24} {old:>12.4f} {arrow} {new:>12.4f}  "
            f"(slack {slack:.4f})  {status}"
        )
        if bad:
            regressions.append(
                f"{name}: {old} -> {new} (want "
                f"{'>=' if direction == 'higher' else '<='} "
                f"{old - slack if direction == 'higher' else old + slack:.4f})"
            )
    return lines, regressions


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", nargs="+", metavar="BENCH.json", default=None,
        help="validate artifacts against their schema floors/ceilings",
    )
    parser.add_argument(
        "--baseline", metavar="OLD.json", default=None,
        help="committed artifact to compare the candidate against",
    )
    parser.add_argument(
        "candidate", nargs="?", default=None,
        help="freshly produced artifact (with --baseline)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25, metavar="R",
        help="relative slack before a delta flags (default 0.25)",
    )
    args = parser.parse_args(argv)

    if args.check is None and args.baseline is None:
        parser.error("need --check FILES... or --baseline OLD.json NEW.json")
    if (args.baseline is None) != (args.candidate is None):
        parser.error("--baseline and the candidate path go together")

    failed = False
    if args.check:
        for path in args.check:
            try:
                document = _read(path)
            except (OSError, ValueError) as exc:
                print(f"{path}: INVALID\n  - {exc}", file=sys.stderr)
                failed = True
                continue
            problems = check_artifact(document)
            if problems:
                failed = True
                print(f"{path}: INVALID", file=sys.stderr)
                for problem in problems:
                    print(f"  - {problem}", file=sys.stderr)
            else:
                print(f"{path}: ok")

    if args.baseline:
        try:
            baseline = _read(args.baseline)
            candidate = _read(args.candidate)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines, regressions = compare_documents(
            baseline, candidate, tolerance=args.tolerance
        )
        print(f"trend {args.baseline} -> {args.candidate}:")
        for line in lines:
            print(line)
        if regressions:
            failed = True
            for regression in regressions:
                print(f"error: {regression}", file=sys.stderr)

    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
