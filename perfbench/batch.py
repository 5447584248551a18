"""Batch workloads: every circuit synthesised and verified in turn.

``table1``
    The paper's 23 Table-1 specifications in a seeded order.
``clean_wide``
    A seeded draw of CSC-clean wide-concurrency controllers from
    ``generate_stg(signals=16, width=4, csc_density=0.0)``.  The draw
    keeps only circuits with a four-branch fork (at least
    :data:`WIDE_MIN_MARKINGS` reachable markings): the generator's
    output is bimodal in size (about 30 or about 640 states), so an
    unfiltered draw of a few circuits would change its total work by a
    third from one seed to the next.

Each circuit runs as ``run_synthesis(stg, options=SynthesisOptions(
verify_level="hazards"))``: cold, ``jobs=1``, no result cache.  A timed
pass covers every circuit; ``gc.collect()`` runs between circuits, outside
the timed region.  Passes repeat until the run's seconds are spent, then
:data:`CACHE_ROUNDS` cache rounds each run every circuit once through a
fresh result cache (miss: synthesis plus cache write) and then
:data:`HIT_PASSES` more times (hit: cache read plus verification).
"""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import tempfile
import time

import checks
import spans

#: Circuits drawn for ``clean_wide``.
CLEAN_WIDE_COUNT = 10

#: Reachable markings a ``clean_wide`` draw needs to count as wide.
WIDE_MIN_MARKINGS = 500

#: Timed passes made even when the run's seconds are spent sooner.
MIN_PASSES = 2

#: Cache rounds, each with a fresh cache; a circuit's miss time is the
#: median of its rounds (with one, the median miss of the Table-1 suite
#: spread by 9% over ten runs).
CACHE_ROUNDS = 2

#: Cache-hit passes after each miss pass; a circuit's hit time is the
#: median of its passes (a hit is short, so one reading is noisy).
HIT_PASSES = 3


def table1_inputs(seed):
    """The 23 Table-1 specifications, parsed, in a seeded order."""
    from repro.bench.suite import benchmark_names, load_benchmark

    names = benchmark_names()
    random.Random(seed).shuffle(names)
    return [(name, load_benchmark(name)) for name in names]


def clean_wide_inputs(seed):
    """A seeded draw of :data:`CLEAN_WIDE_COUNT` wide CSC-clean circuits."""
    import repro.petrinet.reachability
    from repro.stg.generate import generate_stg

    rng = random.Random(seed)
    corpus = []
    while len(corpus) < CLEAN_WIDE_COUNT:
        generated = generate_stg(
            signals=16, width=4, csc_density=0.0, seed=rng.randrange(2**31)
        )
        markings = repro.petrinet.reachability.reachability_graph(
            generated.stg.net
        )
        if len(markings) >= WIDE_MIN_MARKINGS:
            corpus.append((generated.name, generated.stg))
    return corpus


INPUTS = {"table1": table1_inputs, "clean_wide": clean_wide_inputs}

#: Modules a batch workload loads; their import is part of set-up.
MODULES = (
    "repro.runtime.run", "repro.csc.synthesis", "repro.csc.polish",
    "repro.logic.extract", "repro.verify.checker", "repro.stg.generate",
    "repro.bench.suite",
)


def _options(**changes):
    from repro.runtime.options import SynthesisOptions

    return SynthesisOptions(verify_level="hazards", **changes)


def run_pass(corpus, options, sampler, recorder=None):
    """One pass over the corpus: ``[(name, raw, scaled, report)]``.

    ``raw`` is the circuit's wall time, ``scaled`` the same at reference
    speed by the running ``calibrate.Sampler``.  With a recorder, each
    timed region is also a ``bench.circuit`` root span tagged with the
    circuit's name.
    """
    import repro.runtime.run

    samples = []
    for name, stg in corpus:
        gc.collect()
        if recorder is not None:
            span, token = recorder.open("bench.circuit", name)
        start = time.perf_counter()
        report = repro.runtime.run.run_synthesis(stg, options=options)
        end = time.perf_counter()
        if recorder is not None:
            recorder.close(span, token)
        samples.append(
            (name, end - start, sampler.scaled(start, end), report)
        )
    return samples


def _total(samples, field=2):
    """Sum of one timing field (1 raw, 2 scaled) over a pass."""
    return sum(sample[field] for sample in samples)


class Tally:
    """Checks every run; keeps failures, quality columns and timings.

    ``quality`` seeds the expected quality columns per circuit (another
    tally's), so a later phase must reproduce them exactly.
    """

    def __init__(self, quality=None):
        self.attempted = 0
        self.failures = []
        self.quality = dict(quality or {})
        self.seconds = {}

    def book(self, samples, phase):
        for name, _raw, elapsed, report in samples:
            self.attempted += 1
            reason = checks.circuit_failure(report)
            if reason is None:
                quality = checks.fingerprint(report.result)
                if self.quality.setdefault(name, quality) != quality:
                    reason = f"fingerprint drift {quality}"
            if reason is not None:
                self.failures.append(f"{phase} {name}: {reason}")
            self.seconds.setdefault(name, []).append(elapsed)


def measure(workload, seed, seconds, setup_s, out_dir, sampler):
    """The timed run: end-to-end metrics and the per-circuit rows."""
    corpus = INPUTS[workload](seed)
    options = _options()
    tally = Tally()
    pass_totals = []
    raw_totals = []
    deadline = time.perf_counter() + seconds
    while len(pass_totals) < MIN_PASSES or time.perf_counter() < deadline:
        samples = run_pass(corpus, options, sampler)
        tally.book(samples, f"pass{len(pass_totals)}")
        pass_totals.append(_total(samples))
        raw_totals.append(_total(samples, 1))
    # Each circuit counts once in the latency quantiles: its median time.
    typical = [statistics.median(v) for v in tally.seconds.values()]
    rows = [
        checks.row(name, tally.quality.get(name, (0, 0, 0, 0)),
                   tally.seconds[name])
        for name, _stg in corpus
    ]

    cache_tally = Tally(tally.quality)
    hit_tally = Tally(tally.quality)
    cache_dirs = []
    try:
        for _ in range(CACHE_ROUNDS):
            cache_dirs.append(tempfile.mkdtemp(prefix="cache-", dir=out_dir))
            cached = _options(cache_dir=cache_dirs[-1])
            cache_tally.book(run_pass(corpus, cached, sampler), "miss")
            for _ in range(HIT_PASSES):
                hit_tally.book(run_pass(corpus, cached, sampler), "hit")
    finally:
        # Deleted after the last timed write: on an ext4 virtio disk
        # mounted with ``discard``, small-file writes ran up to 8x slower
        # for seconds after a large delete.
        for cache_dir in cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)

    totals = checks.totals(rows)
    metrics = {
        "setup_s": setup_s,
        "suite_s": statistics.median(pass_totals),
        "circuit_geomean_ms": checks.geomean(typical) * 1e3,
        "literals_total": totals["literals_total"],
        "signals_total": totals["signals_total"],
        "states_total": totals["states_total"],
        "latency_p50_ms": checks.quantile(typical, 0.5) * 1e3,
        "latency_p95_ms": checks.quantile(typical, 0.95) * 1e3,
        "miss_p50_ms": checks.quantile(
            [statistics.median(v) for v in cache_tally.seconds.values()], 0.5
        ) * 1e3,
        "hit_p50_ms": checks.quantile(
            [statistics.median(v) for v in hit_tally.seconds.values()], 0.5
        ) * 1e3,
    }
    return {
        "metrics": metrics,
        "rows": rows,
        "attempted": sum(t.attempted for t in (tally, cache_tally, hit_tally)),
        "failures": tally.failures + cache_tally.failures
        + hit_tally.failures,
        "notes": [
            f"circuits={len(corpus)} pass_s="
            + ",".join(f"{total:.3f}" for total in pass_totals)
            + " raw_pass_s="
            + ",".join(f"{total:.3f}" for total in raw_totals)
        ],
    }


def traced(workload, seed, out_dir, sampler):
    """The traced run: an untraced pass, a traced set-up and pass, and
    another untraced pass (the overhead compares against both).

    Returns the per-layer metrics, the rows of the traced pass and the
    failures, which include the wrapper-safety and attribution checks.
    """
    options = _options()
    corpus = INPUTS[workload](seed)
    untraced = run_pass(corpus, options, sampler)

    recorder = spans.Recorder()
    tracing = spans.Tracing(recorder)
    with tracing:
        span, token = recorder.open("bench.setup", "setup")
        start = time.perf_counter()
        corpus = INPUTS[workload](seed)
        setup_wall = time.perf_counter() - start
        recorder.close(span, token)
        recorder.counts = {}  # count the pass's work only
        traced_samples = run_pass(corpus, options, sampler, recorder)
    recorder.write(f"{out_dir}/spans-{workload}-s{seed}.jsonl")
    untraced_after = run_pass(corpus, options, sampler)

    tally = Tally()
    tally.book(untraced, "untraced")
    tally.book(traced_samples, "traced")
    tally.book(untraced_after, "untraced")
    if not tracing.restored():
        tally.failures.append("wrappers not restored")

    # Attribution is checked against the raw wall clock; the overhead
    # compares reference-speed times, so machine drift cancels.
    groups = spans.by_root(recorder.spans)
    traced_wall = _total(traced_samples, 1)
    metrics, problems = spans.layer_metrics(
        groups["bench.circuit"], recorder.counts, traced_wall
    )
    setup, setup_problems = spans.setup_metrics(
        groups["bench.setup"], setup_wall
    )
    metrics.update(setup)
    tally.failures.extend(problems + setup_problems)
    metrics["obs.trace_overhead"] = _total(traced_samples) / (
        (_total(untraced) + _total(untraced_after)) / 2
    )
    rows = [
        checks.row(name, tally.quality.get(name, (0, 0, 0, 0)),
                   tally.seconds[name][1:2])
        for name, _stg in corpus
    ]
    metrics["csc.state_signals_total"] = checks.totals(rows)[
        "state_signals_total"
    ]
    return {
        "metrics": metrics,
        "rows": rows,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "notes": spans.share_notes(groups["bench.circuit"], traced_wall),
    }
