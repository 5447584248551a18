"""Generator-driven verification campaign over the synthesis matrix.

Usage::

    python tools/fuzz_verify.py [--count N] [--seed S] [--out PATH]
                                [--check [PATH]]

Generates ``N`` random live/safe free-choice STGs
(:func:`repro.stg.generate.generate_stg`, sweeping ``signals``,
``width`` and ``csc_density`` deterministically from the seed),
synthesises each under one cell of the method matrix (modular /
direct / lavagno x sat_mode, round-robin by index), and runs
the full closed-loop checker (:func:`repro.verify.verify_result`,
level ``hazards``) on every result.  Three legs land in one artifact,
``BENCH_verify.json`` (schema ``repro-verify-bench/1``):

* **fuzz rows** -- one per generated circuit: knobs, matrix cell,
  verdict, states explored, counterexamples (there must be none);
* **table1** -- the 23 paper benchmarks, modular synthesis, verified
  at ``hazards`` (exceptions, if any, must carry a documented reason);
* **mutants** -- every 8th clean modular row is re-checked under
  seeded mutations (:func:`repro.verify.mutate_result`); caught
  mutants must replay their counterexample traces end to end.

``--check PATH`` validates an existing artifact against the gates the
repository commits to: zero verifier failures, zero errors, zero
inconclusive rows, full matrix coverage, all Table-1 circuits verified
(or journalled exceptions), at least one caught-and-replayed mutant,
and at least ``MIN_COUNT`` fuzzed circuits.  :func:`check_document` is
the one checker of the committed ``BENCH_verify.json``: CI's verify-fuzz
job runs ``--check BENCH_verify.json``.  A bare ``--check`` after a
campaign self-validates the fresh artifact with the floor scaled to
``--count`` (the CI smoke mode).

Run with ``src`` on ``PYTHONPATH`` (the script bootstraps it when
invoked from a checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_src) and _src not in sys.path:
        sys.path.insert(0, _src)

SCHEMA = "repro-verify-bench/1"

#: Committed-artifact floor on fuzzed circuits (ISSUE 9 acceptance).
MIN_COUNT = 200

#: The synthesis matrix, cycled round-robin over the circuit index.
#: The modular cells appear twice so the period stays 8: every seed
#: keeps its cell and the mutation leg (``MUTATE_EVERY``) its circuits.
MATRIX = (
    {"method": "modular", "sat_mode": "incremental"},
    {"method": "modular", "sat_mode": "oneshot"},
    {"method": "modular", "sat_mode": "incremental"},
    {"method": "modular", "sat_mode": "oneshot"},
    {"method": "direct", "sat_mode": "incremental"},
    {"method": "direct", "sat_mode": "oneshot"},
    {"method": "lavagno", "sat_mode": "incremental"},
    {"method": "lavagno", "sat_mode": "oneshot"},
)

#: Knob sweep ranges for the generator.
SIGNAL_RANGE = (4, 8)
WIDTH_RANGE = (1, 3)
CSC_DENSITIES = (0.0, 0.25, 0.5, 1.0)

#: Closed-loop exploration cap per circuit.
MAX_STATES = 200_000

#: Every Nth clean modular row feeds the mutation leg.
MUTATE_EVERY = 8


def _knobs(seed, index):
    """Deterministic generator knobs for circuit ``index``."""
    rng = random.Random(f"{seed}:{index}")
    return {
        "signals": rng.randrange(SIGNAL_RANGE[0], SIGNAL_RANGE[1] + 1),
        "width": rng.randrange(WIDTH_RANGE[0], WIDTH_RANGE[1] + 1),
        "csc_density": rng.choice(CSC_DENSITIES),
        "seed": seed * 100_000 + index,
    }


def _synthesise(graph, cell):
    from repro.baselines import lavagno_synthesis
    from repro.csc import direct_synthesis, modular_synthesis
    from repro.runtime.options import SynthesisOptions

    options = SynthesisOptions(minimize=True, sat_mode=cell["sat_mode"])
    method = {
        "modular": modular_synthesis,
        "direct": direct_synthesis,
        "lavagno": lavagno_synthesis,
    }[cell["method"]]
    return method(graph, options=options)


def _fuzz_leg(count, seed):
    from repro.stategraph import build_state_graph
    from repro.stg.generate import generate_stg
    from repro.verify import verify_result

    rows = []
    keep = []  # (index, stg, result) feeding the mutation leg
    for index in range(count):
        knobs = _knobs(seed, index)
        cell = MATRIX[index % len(MATRIX)]
        generated = generate_stg(**knobs)
        row = {
            "name": generated.name,
            "index": index,
            "knobs": knobs,
            **cell,
        }
        start = time.perf_counter()
        try:
            graph = build_state_graph(generated.stg)
            result = _synthesise(graph, cell)
            report = verify_result(
                result, generated.stg, level="hazards",
                max_states=MAX_STATES,
            )
        except Exception as exc:  # campaign must survive any one circuit
            row.update(status="error", error=f"{type(exc).__name__}: {exc}")
        else:
            row.update(
                status="ok",
                verdict=report.verdict,
                states=report.states_explored,
                truncated=report.truncated,
                skipped=report.skipped,
            )
            if report.violations:
                row["violations"] = [
                    cex.as_dict() for cex in report.violations
                ]
            if (cell["method"] == "modular" and report.verdict is True
                    and index % MUTATE_EVERY == 0):
                keep.append((index, generated.stg, result))
        row["seconds"] = round(time.perf_counter() - start, 4)
        rows.append(row)
    return rows, keep


def _mutation_leg(keep, seed):
    from repro.verify import (
        check_circuit,
        mutant_circuit,
        mutate_result,
        observable_check,
        replay_counterexample,
    )

    summary = {
        "circuits": len(keep),
        "generated": 0,
        "caught": 0,
        "equivalent": 0,
        "survived": 0,
        "replayed": 0,
        "replay_failures": 0,
        "false_positives": 0,
        "caught_by_kind": {},
    }
    for index, stg, result in keep:
        for mutant in mutate_result(result, seed=seed * 31 + index,
                                    per_kind=1):
            summary["generated"] += 1
            classification = observable_check(result, mutant)
            circuit, initial = mutant_circuit(result, stg.inputs, mutant)
            report = check_circuit(
                circuit, result.graph, level="hazards",
                initial_vector=initial, max_states=MAX_STATES,
            )
            if classification == "equivalent":
                summary["equivalent"] += 1
                if report.verdict is not True:
                    summary["false_positives"] += 1
                continue
            if report.verdict is False:
                summary["caught"] += 1
                by_kind = summary["caught_by_kind"]
                by_kind[mutant.kind] = by_kind.get(mutant.kind, 0) + 1
                for cex in report.violations:
                    try:
                        replayed = replay_counterexample(
                            circuit, result.graph, cex,
                            initial_vector=initial,
                        )
                    except Exception:
                        replayed = False
                    if replayed:
                        summary["replayed"] += 1
                    else:
                        summary["replay_failures"] += 1
            else:
                summary["survived"] += 1
    return summary


def _table1_leg():
    from repro.bench.suite import BENCHMARKS, load_benchmark
    from repro.csc import modular_synthesis
    from repro.runtime.options import SynthesisOptions
    from repro.stategraph import build_state_graph
    from repro.verify import verify_result

    rows = []
    for name in sorted(BENCHMARKS):
        stg = load_benchmark(name)
        graph = build_state_graph(stg)
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=True)
        )
        report = verify_result(
            result, stg, level="hazards", max_states=MAX_STATES
        )
        rows.append({
            "name": name,
            "verdict": report.verdict,
            "states": report.states_explored,
        })
    return rows


def campaign(count, seed, table1=True):
    """Run all legs; returns the artifact document."""
    start = time.perf_counter()
    rows, keep = _fuzz_leg(count, seed)
    mutants = _mutation_leg(keep, seed)
    table1_rows = _table1_leg() if table1 else []

    ok_rows = [r for r in rows if r["status"] == "ok"]
    verified = sum(1 for r in ok_rows if r.get("verdict") is True)
    return {
        "schema": SCHEMA,
        "seed": seed,
        "count": count,
        "cores": os.cpu_count() or 1,
        "rows": rows,
        "table1": table1_rows,
        "table1_exceptions": [
            {"name": r["name"],
             "reason": "closed-loop verdict was not clean"}
            for r in table1_rows if r["verdict"] is not True
        ],
        "mutants": mutants,
        "errors": len(rows) - len(ok_rows),
        "verify_failures": sum(
            1 for r in ok_rows if r.get("verdict") is False
        ),
        "inconclusive": sum(
            1 for r in ok_rows if r.get("verdict") is None
        ),
        "verified_rate": round(verified / count, 4) if count else 0.0,
        "mutants_caught": mutants["caught"],
        "states_total": sum(r.get("states", 0) for r in ok_rows),
        "wall_seconds": round(time.perf_counter() - start, 3),
    }


def check_document(document, min_count=MIN_COUNT):
    """Problem strings for one artifact (empty list = valid)."""
    problems = []
    if not isinstance(document, dict):
        return ["top level is not an object"]
    if document.get("schema") != SCHEMA:
        problems.append(
            f"schema is {document.get('schema')!r}, expected {SCHEMA!r}"
        )
    for field in ("seed", "count", "cores"):
        value = document.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{field} missing or not an int")
    rows = document.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows missing or empty")
        return problems
    count = document.get("count")
    if isinstance(count, int) and len(rows) != count:
        problems.append(f"rows has {len(rows)} entries, count says {count}")
    if len(rows) < min_count:
        problems.append(
            f"only {len(rows)} fuzzed circuits; the floor is {min_count}"
        )

    for field in ("errors", "verify_failures", "inconclusive"):
        value = document.get(field)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            problems.append(f"{field} missing or not a counter")
        elif value != 0:
            problems.append(
                f"{field} is {value}: every fuzzed circuit must "
                f"synthesise and verify clean"
            )

    rate = document.get("verified_rate")
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        problems.append("verified_rate missing or not a number")

    if len(rows) >= len(MATRIX):
        methods = {r.get("method") for r in rows}
        for method in ("modular", "direct", "lavagno"):
            if method not in methods:
                problems.append(f"matrix coverage: no {method} rows")
        modular = [r for r in rows if r.get("method") == "modular"]
        if {r.get("sat_mode") for r in modular} != {
                "incremental", "oneshot"}:
            problems.append(
                "matrix coverage: modular rows miss a sat_mode"
            )

    table1 = document.get("table1")
    if not isinstance(table1, list) or len(table1) < 23:
        problems.append(
            "table1 missing or incomplete (all 23 paper benchmarks)"
        )
    else:
        exceptions = document.get("table1_exceptions")
        failed = [r["name"] for r in table1 if r.get("verdict") is not True]
        if failed:
            documented = {
                e.get("name") for e in (exceptions or [])
                if e.get("reason")
            }
            undocumented = [n for n in failed if n not in documented]
            if undocumented:
                problems.append(
                    f"table1 circuits failed verification without a "
                    f"documented exception: {undocumented}"
                )

    mutants = document.get("mutants")
    if not isinstance(mutants, dict):
        problems.append("mutants summary missing")
    else:
        if not isinstance(mutants.get("caught"), int) \
                or mutants.get("caught", 0) < 1:
            problems.append(
                "mutants.caught < 1: the campaign never demonstrated a "
                "caught mutant"
            )
        if mutants.get("replay_failures") != 0:
            problems.append(
                f"mutants.replay_failures is "
                f"{mutants.get('replay_failures')!r}: every "
                f"counterexample must replay"
            )
        if mutants.get("false_positives") != 0:
            problems.append(
                f"mutants.false_positives is "
                f"{mutants.get('false_positives')!r}: an observably "
                f"equivalent mutant was flagged"
            )
    return problems


def _check(path, min_count=MIN_COUNT):
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        problems = [f"cannot read: {exc}"]
    except ValueError as exc:
        problems = [f"not valid JSON: {exc}"]
    else:
        problems = check_document(document, min_count=min_count)
    if problems:
        print(f"{path}: INVALID", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"{path}: ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", metavar="PATH", nargs="?", const="", default=None,
        help="validate an artifact: with PATH, check that file and exit; "
             "bare, self-check the artifact a campaign just wrote",
    )
    parser.add_argument(
        "--count", type=int, default=MIN_COUNT, metavar="N",
        help=f"fuzzed circuits to generate (default {MIN_COUNT})",
    )
    parser.add_argument(
        "--seed", type=int, default=9, metavar="S",
        help="campaign seed (default 9)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH_verify.json",
        help="artifact path (default: BENCH_verify.json in cwd)",
    )
    args = parser.parse_args(argv)

    if args.check:
        return _check(args.check)

    document = campaign(max(1, args.count), args.seed)
    directory = os.path.dirname(args.out)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    print(
        f"  count={document['count']} errors={document['errors']} "
        f"verify_failures={document['verify_failures']} "
        f"inconclusive={document['inconclusive']} "
        f"verified_rate={document['verified_rate']}"
    )
    print(
        f"  mutants: generated={document['mutants']['generated']} "
        f"caught={document['mutants']['caught']} "
        f"replayed={document['mutants']['replayed']} "
        f"replay_failures={document['mutants']['replay_failures']}"
    )
    print(
        f"  table1: {sum(1 for r in document['table1'] if r['verdict'] is True)}"
        f"/{len(document['table1'])} verified  "
        f"wall={document['wall_seconds']}s"
    )
    if args.check is not None:  # bare --check: self-validate the artifact
        return _check(args.out, min_count=min(MIN_COUNT, args.count))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
