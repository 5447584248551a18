"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``clean_wide`` (see ``batch.py``) and
``service_mix`` (see ``service_mix.py``).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate traced
run that prints the per-layer metrics (see ``spans.py``).  Every output is
checked; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier
lines carry the per-circuit rows and notes; span journals and rows are
also written under ``.perfbench_out/`` in the checkout.

The program under test is imported from the checkout's own ``src/``;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys

import batch
import calibrate
import checks
import probe
import service_mix
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: End-to-end metrics of a timed run, with their units.
END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "circuit_geomean_ms": "ms",
    "literals_total": "count",
    "signals_total": "count",
    "states_total": "count",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "miss_p50_ms": "ms",
    "hit_p50_ms": "ms",
}

WORKLOADS = ("table1", "clean_wide", "service_mix")


def _check_program():
    """Exit with status 2 unless ``repro`` imports from this checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def peak_rss_mb():
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def batch_setup(workload, seed, seconds):
    """Median over fresh-interpreter set-up rounds, at reference speed."""
    rounds = []
    while probe.more_rounds(rounds):
        rounds.append(probe.fresh_seconds(workload, seed, seconds))
    return statistics.median(rounds)


def _load(module):
    """Import the workload's program modules up front, so no timed region
    pays for a first import."""
    for name in module.MODULES:
        importlib.import_module(name)


def run(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "service_mix":
        _load(service_mix)
        with calibrate.Sampler() as sampler:
            if args.trace:
                outcome = service_mix.traced(
                    args.seed, args.seconds, OUT_DIR, sampler
                )
            else:
                outcome = service_mix.measure(
                    args.seed, args.seconds, OUT_DIR, sampler
                )
    else:
        _load(batch)
        if args.trace:
            with calibrate.Sampler() as sampler:
                outcome = batch.traced(
                    args.workload, args.seed, OUT_DIR, sampler
                )
        else:
            setup_s = batch_setup(args.workload, args.seed, args.seconds)
            with calibrate.Sampler() as sampler:
                outcome = batch.measure(
                    args.workload, args.seed, args.seconds, setup_s,
                    OUT_DIR, sampler,
                )
    if not args.trace:
        outcome["metrics"]["peak_rss_mb"] = peak_rss_mb()
    return outcome


def stop_resource_tracker():
    """Stop ``multiprocessing``'s resource tracker, if a pool started one.

    A ``spawn`` pool starts the tracker as a helper process that outlives
    this one until it reads end-of-file on its pipe, so without this it
    is still running for a moment after the benchmark exits.  The pools
    are collected first: a semaphore finalized after the stop would start
    a new tracker.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


def main(argv=None):
    try:
        return _main(argv)
    finally:
        stop_resource_tracker()


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _check_program()
    outcome = run(args)
    units = spans.PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(outcome["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    rows_path = os.path.join(
        OUT_DIR, f"rows-{args.workload}-s{args.seed}-t{args.trace}.json"
    )
    with open(rows_path, "w", encoding="utf-8") as handle:
        json.dump(outcome["rows"], handle, indent=1)
    for entry in outcome["rows"]:
        print(checks.format_row(entry))
    for note in outcome["notes"]:
        print(f"note {note}")
    for failure in outcome["failures"]:
        print(f"FAILED {failure}")
    result = {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": min(len(outcome["failures"]), outcome["attempted"]),
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
