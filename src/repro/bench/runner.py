"""Benchmark runners: one Table-1 row per method per benchmark.

Besides the in-memory :class:`MethodRow` objects, :func:`write_bench_json`
serialises a completed run -- rows plus the active tracer's span
summaries -- as ``BENCH_<tag>.json`` (schema ``repro-bench/1``), the
machine-readable artifact CI's bench-smoke job validates and archives.
"""

from __future__ import annotations

import json
import os

from repro import obs
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.csc.direct import direct_synthesis
from repro.csc.errors import BacktrackLimitError
from repro.csc.synthesis import modular_synthesis
from repro.obs import Counters, Stopwatch, merge_stats, with_derived
from repro.runtime.options import SynthesisOptions
from repro.sat.solver import Limits
from repro.stategraph.build import build_state_graph

#: Schema identifier written into every ``BENCH_<tag>.json``.
BENCH_SCHEMA = "repro-bench/1"

#: Default direct-method budget standing in for the paper's backtrack
#: limit / 3600 s abort.
DEFAULT_DIRECT_LIMITS = Limits(max_backtracks=200_000, max_seconds=120.0)


class MethodRow:
    """Measured results of one method on one benchmark.

    Mirrors a Table-1 cell group: final states/signals, two-level area,
    CPU time, or an abort note.  The robustness statistics
    (``backtracks``, ``escalations``, ``degraded``/``skipped`` module
    counts) live in a shared :class:`~repro.obs.metrics.Counters` bag --
    the same type solver results and run reports carry -- and are
    exposed as read-only properties for compatibility.
    """

    def __init__(self, benchmark, method, initial_states, initial_signals,
                 final_states=None, final_signals=None, area=None,
                 cpu=None, note=None, formula_sizes=(), backtracks=0,
                 escalations=0, degraded=0, skipped=0, metrics=None):
        self.benchmark = benchmark
        self.method = method
        self.initial_states = initial_states
        self.initial_signals = initial_signals
        self.final_states = final_states
        self.final_signals = final_signals
        self.area = area
        self.cpu = cpu
        self.note = note
        self.formula_sizes = list(formula_sizes)
        if metrics is None:
            metrics = Counters(
                backtracks=backtracks,
                escalations=escalations,
                modules_degraded=degraded,
                modules_skipped=skipped,
            )
        self.metrics = metrics

    @property
    def backtracks(self):
        """Total SAT backtracks consumed across every formula."""
        return self.metrics["backtracks"]

    @property
    def escalations(self):
        """Engine-ladder escalations recorded by the solves."""
        return self.metrics["escalations"]

    @property
    def degraded(self):
        """Modules that fell back to a per-output direct sub-solve."""
        return self.metrics["modules_degraded"]

    @property
    def skipped(self):
        """Modules left entirely to the verify-and-repair pass."""
        return self.metrics["modules_skipped"]

    @property
    def completed(self):
        return self.note is None

    def as_dict(self):
        """JSON-ready snapshot for ``BENCH_<tag>.json``."""
        return {
            "benchmark": self.benchmark,
            "method": self.method,
            "initial_states": self.initial_states,
            "initial_signals": self.initial_signals,
            "final_states": self.final_states,
            "final_signals": self.final_signals,
            "area": self.area,
            "cpu": None if self.cpu is None else round(self.cpu, 6),
            "note": self.note,
            "formula_sizes": [list(pair) for pair in self.formula_sizes],
            "counters": self.metrics.as_dict(),
        }

    def __repr__(self):
        if not self.completed:
            return (
                f"MethodRow({self.benchmark!r}, {self.method!r}, "
                f"note={self.note!r})"
            )
        return (
            f"MethodRow({self.benchmark!r}, {self.method!r}, "
            f"states={self.final_states}, signals={self.final_signals}, "
            f"area={self.area}, cpu={self.cpu:.2f}s)"
        )


def _base_counts(name, graph=None):
    stg = load_benchmark(name)
    if graph is None:
        graph = build_state_graph(stg)
    return stg, graph


def _attempt_stats(attempts):
    """Total (backtracks, escalations) across solver attempts."""
    backtracks = sum(attempt.backtracks for attempt in attempts)
    escalations = sum(1 for attempt in attempts if attempt.escalated)
    return backtracks, escalations


def run_modular(name, minimize=True, graph=None, engine="hybrid",
                budget=None, fallback=False, cache_dir=None,
                sat_mode="incremental"):
    """Run the paper's method on one benchmark.

    ``cache_dir`` wires the persistent
    :class:`~repro.perf.ResultCache` in, so repeated Table-1 runs are
    warm (default off, matching the historical cold run).
    """
    stg, graph = _base_counts(name, graph)
    result = modular_synthesis(graph, options=SynthesisOptions(
        minimize=minimize, engine=engine, budget=budget,
        fallback=fallback, degrade=fallback,
        cache_dir=cache_dir, sat_mode=sat_mode,
    ))
    attempts = [
        attempt for module in result.modules for attempt in module.attempts
    ] + list(result.repair_attempts)
    backtracks, _ = _attempt_stats(attempts)
    _, repair_escalations = _attempt_stats(result.repair_attempts)
    return MethodRow(
        name, "modular",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
        formula_sizes=result.formula_sizes(),
        backtracks=backtracks,
        escalations=result.report.escalations + repair_escalations,
        degraded=len(result.report.degraded_modules),
        skipped=len(result.report.skipped_modules),
    )


def run_direct(name, limits=None, minimize=True, graph=None,
               engine="hybrid"):
    """Run the Vanbekbergen-style direct method on one benchmark.

    Hitting the backtrack/time budget produces a row with
    ``note="backtrack-limit"`` instead of raising, mirroring the paper's
    aborted entries.
    """
    stg, graph = _base_counts(name, graph)
    limits = DEFAULT_DIRECT_LIMITS if limits is None else limits
    watch = Stopwatch()
    try:
        result = direct_synthesis(graph, options=SynthesisOptions(
            limits=limits, minimize=minimize, engine=engine,
        ))
    except BacktrackLimitError:
        return MethodRow(
            name, "direct",
            initial_states=graph.num_states,
            initial_signals=len(graph.signals),
            cpu=watch.elapsed(),
            note="backtrack-limit",
        )
    sizes = [
        (attempt.num_clauses, attempt.num_vars)
        for attempt in result.attempts
    ]
    backtracks, escalations = _attempt_stats(result.attempts)
    return MethodRow(
        name, "direct",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
        formula_sizes=sizes,
        backtracks=backtracks,
        escalations=escalations,
    )


def run_lavagno(name, minimize=True, graph=None):
    """Run the Lavagno/Moon-style state-table baseline."""
    from repro.baselines.lavagno import lavagno_synthesis

    stg, graph = _base_counts(name, graph)
    result = lavagno_synthesis(
        graph, options=SynthesisOptions(minimize=minimize)
    )
    return MethodRow(
        name, "lavagno",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
    )


def _method_rows(name, graph, methods, minimize, direct_limits,
                 cache_dir=None):
    """All requested methods on one benchmark (shared state graph)."""
    runners = {
        "modular": lambda: run_modular(
            name, minimize=minimize, graph=graph, cache_dir=cache_dir
        ),
        "direct": lambda: run_direct(
            name, limits=direct_limits, minimize=minimize, graph=graph
        ),
        "lavagno": lambda: run_lavagno(
            name, minimize=minimize, graph=graph
        ),
    }
    return {method: runners[method]() for method in methods}


def table_rows(names=None, methods=("modular", "direct", "lavagno"),
               minimize=True, direct_limits=None, cache_dir=None):
    """Run the selected methods over the suite.

    Returns ``{name: {method: MethodRow}}`` in suite order.
    """
    names = list(BENCHMARKS) if names is None else list(names)
    rows = {}
    for name in names:
        stg = load_benchmark(name)
        graph = build_state_graph(stg)
        rows[name] = _method_rows(name, graph, methods, minimize,
                                  direct_limits, cache_dir=cache_dir)
    return rows


def _bench_task(task):
    """Pool worker: one benchmark, every requested method, own tracer.

    Runs in a separate process, so it installs a private tracer (with a
    private JSONL journal when the caller asked for one) and returns a
    picklable triple ``(name, {method: MethodRow}, stats_snapshot)``.
    """
    name, methods, minimize, direct_limits, journal, cache_dir = task
    tracer = obs.install(obs.Tracer(journal=journal))
    try:
        with obs.span("bench", benchmark=name):
            stg = load_benchmark(name)
            graph = build_state_graph(stg)
            per_method = _method_rows(name, graph, methods, minimize,
                                      direct_limits, cache_dir=cache_dir)
    finally:
        obs.uninstall()
        tracer.close()
    return name, per_method, tracer.stats_dict()


def table_rows_parallel(names=None,
                        methods=("modular", "direct", "lavagno"),
                        minimize=True, direct_limits=None, jobs=2,
                        journal_prefix=None, cache_dir=None):
    """Run the suite with a process pool, one task per benchmark.

    Each worker traces itself; the per-process profiles are merged with
    :func:`repro.obs.merge_stats` so counters and span totals come out
    identical to a serial traced run (wall-clock sums are CPU time
    across workers, not elapsed time).

    Parameters
    ----------
    jobs:
        Worker process count.
    journal_prefix:
        When set, each worker journals to
        ``<journal_prefix>.<benchmark>.jsonl``; the caller concatenates
        or inspects them (each file is a complete, self-contained
        journal).

    Returns
    -------
    (rows, stats, journals):
        ``rows`` as :func:`table_rows`; ``stats`` the merged
        ``{span_name: SpanStats}`` profile; ``journals`` the
        per-benchmark journal paths written (empty without a prefix).
    """
    import multiprocessing

    names = list(BENCHMARKS) if names is None else list(names)
    tasks = []
    journals = []
    for name in names:
        journal = None
        if journal_prefix:
            journal = f"{journal_prefix}.{name}.jsonl"
            journals.append(journal)
        tasks.append((name, tuple(methods), minimize, direct_limits,
                      journal, cache_dir))
    with multiprocessing.Pool(processes=jobs) as pool:
        results = pool.map(_bench_task, tasks)
    rows = {}
    snapshots = []
    for name, per_method, stats in results:
        rows[name] = per_method
        snapshots.append(stats)
    return rows, merge_stats(snapshots), journals


def write_bench_json(rows, tag, out_dir=".", tracer=None, extra=None,
                     spans=None, trace_counters=None):
    """Write ``BENCH_<tag>.json`` for a completed :func:`table_rows` run.

    The document (schema ``repro-bench/1``) carries the flattened rows,
    the counter totals summed over them, and -- when a tracer is active
    or passed explicitly -- its per-span-name profile plus the run-wide
    ``trace_counters`` totals (``quotients``, ``proj_cache_hits``, ...),
    so one artifact holds the Table-1 numbers, where the wall clock
    went, and how hard the projection layer worked.  A parallel run has
    no single tracer; it passes the merged profile as ``spans`` (a
    ``stats_as_dict`` mapping) and its summed totals as
    ``trace_counters``.  Returns the path written.
    """
    if tracer is None:
        tracer = obs.active()
    if spans is None and tracer is not None:
        spans = tracer.stats_dict()
    if trace_counters is None and tracer is not None:
        trace_counters = tracer.counter_totals().as_dict()
    totals = Counters()
    flat = []
    for per_method in rows.values():
        for row in per_method.values():
            flat.append(row.as_dict())
            totals.merge(row.metrics)
    document = {
        "schema": BENCH_SCHEMA,
        "tag": tag,
        "rows": flat,
        "counters": totals.as_dict(),
        "spans": spans,
    }
    if trace_counters is not None:
        if not isinstance(trace_counters, Counters):
            trace_counters = Counters().merge(dict(trace_counters))
        # Derived ratios (cache hit rates) are computed at reporting
        # time so segment merges never average averages.
        document["trace_counters"] = with_derived(trace_counters).as_dict()
    if extra:
        document.update(extra)
    path = os.path.join(out_dir, f"BENCH_{tag}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def aggregate_area(rows, baseline_method, reference_method="modular"):
    """Average relative area change of ``reference`` vs ``baseline``.

    Returns the mean of ``(baseline - reference) / baseline`` over the
    benchmarks where both completed: positive numbers mean the reference
    method (the paper's) produced smaller covers.
    """
    ratios = []
    for per_method in rows.values():
        reference = per_method.get(reference_method)
        baseline = per_method.get(baseline_method)
        if (
            reference is not None and baseline is not None
            and reference.completed and baseline.completed
            and baseline.area
        ):
            ratios.append((baseline.area - reference.area) / baseline.area)
    if not ratios:
        return None
    return sum(ratios) / len(ratios)
