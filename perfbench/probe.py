"""Set-up measurement.

Run as a script, a fresh interpreter imports the program and builds one
workload's inputs, then prints how many seconds that took at reference
speed (see ``calibrate.py``)::

    python3 perfbench/probe.py <workload> <seed> <seconds>

The benchmark runs it several times per run (:func:`fresh_seconds`,
:func:`more_rounds`) and reports the median as ``setup_s``, so every
round pays the full first-import and first-parse cost a user pays, which
a second round inside one process would not.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up rounds per run: at least the first, at most the second, and
#: more than the minimum only while the third (seconds) is not spent.
MIN_ROUNDS, MAX_ROUNDS, ROUNDS_BUDGET_S = 3, 7, 3.0


def more_rounds(rounds):
    """Whether another set-up round is due after ``rounds`` (seconds)."""
    return len(rounds) < MIN_ROUNDS or (
        len(rounds) < MAX_ROUNDS and sum(rounds) < ROUNDS_BUDGET_S
    )


def fresh_seconds(workload, seed, seconds):
    """One set-up round in a fresh interpreter; its seconds at reference
    speed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), workload, str(seed),
         str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def main(argv):
    sys.path.insert(0, SRC)
    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    module = importlib.import_module(
        "service_mix" if workload == "service_mix" else "batch"
    )
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        importlib.import_module("repro")
        for name in module.MODULES:
            importlib.import_module(name)
        if workload == "service_mix":
            module.draw_corpus(seed, module.circuit_count(seconds))
        else:
            module.INPUTS[workload](seed)
        end = time.perf_counter()
    print(sampler.scaled(start, end))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
