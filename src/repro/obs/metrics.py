"""Typed counters, histograms and gauges shared by results, reports and spans.

Every layer of the pipeline used to grow its own ad-hoc statistics
fields (``decisions``/``backtracks`` on solver results, ``escalations``
on module statuses, ``backtracks``/``degraded``/``skipped`` on bench
rows).  :class:`Counters` is the one bag they all carry instead: a thin
numeric mapping with a shared vocabulary, so a counter recorded deep in
a SAT engine and the same counter summarised on a run report mean the
same thing and aggregate with the same ``merge``.

The vocabulary is documented (not enforced) by :data:`COUNTER_GLOSSARY`;
call sites may record counters outside it, but the glossary is what the
docs, ``--metrics`` and ``tools/analyze_trace.py --counters``
describe.

Beyond monotone counters the telemetry registry holds two more metric
kinds, both exported in Prometheus text format by
:func:`repro.obs.export.prometheus_text`:

* :class:`Histogram` -- fixed-bucket distributions (module solve
  seconds, formula clause counts, cache lookup latency).  Buckets per
  metric are declared in :data:`HISTOGRAM_BUCKETS`; the tracer fills
  the span-duration histograms automatically on span close
  (:data:`AUTO_HISTOGRAMS`), call sites record the rest through
  :func:`repro.obs.observe`.
* :class:`Gauge` -- last-value or peak (max) measurements, e.g.
  the per-top-level-span ``tracemalloc`` peaks behind
  ``--trace-memory``.
"""

from __future__ import annotations

import bisect

#: name -> human description of every counter the pipeline records.
COUNTER_GLOSSARY = {
    "states_explored": "reachable markings generated by BFS exploration",
    "edges_explored": "firings recorded between reachable markings",
    "quotients": "state-graph quotients merged from scratch (cache misses "
                 "and uncached calls; refinements count separately)",
    "quotient_refines": "quotients derived incrementally from a cached "
                        "ancestor projection instead of from scratch",
    "proj_cache_hits": "projection-cache lookups served an exact entry",
    "proj_cache_misses": "projection-cache lookups that had to compute "
                         "(from scratch or by refinement)",
    "proj_cache_evictions": "projection-cache entries dropped by the LRU "
                            "bound",
    "prescan_reuses": "module input sets reused from the output-order "
                      "pre-scan instead of re-derived",
    "eps_merges": "states merged away by an ε-quotient",
    "cover_map_size": "entries in a quotient's cover map (base states)",
    "macro_states": "states of the modular (macro) graph produced",
    "num_clauses": "CNF clauses of an encoded SAT-CSC formula",
    "num_vars": "CNF variables of an encoded SAT-CSC formula",
    "decisions": "SAT branching decisions",
    "propagations": "SAT unit propagations",
    "backtracks": "SAT backtracks / CDCL conflicts",
    "bdd_nodes": "nodes allocated by the BDD engine's manager",
    "escalations": "engine-fallback ladder rungs climbed",
    "sat_attempts": "SAT formulas solved (including UNSAT/LIMIT ones)",
    "signals_added": "state signals inserted",
    "modules_ok": "outputs solved on their modular graph",
    "modules_degraded": "outputs covered by a direct sub-solve",
    "modules_skipped": "outputs left to the verify-and-repair pass",
    "modules_conflict_free": "outputs without a CSC conflict, skipped "
                             "with no input set, projection or solve",
    "repair_rounds": "verify-and-repair rounds executed",
    "polish_trials": "polish flips judged after the edge-compatibility "
                     "pre-filter",
    "polish_flips": "polish flips kept (the trial assignment passed "
                    "the expanded-graph acceptance test)",
    "checkpoints": "cooperative budget checkpoints passed",
    "seconds": "wall-clock seconds reported by engine-level timers",
    "result_cache_hits": "result-cache lookups that returned a stored "
                         "artifact or response",
    "result_cache_misses": "result-cache lookups that found nothing "
                           "usable (includes stale entries)",
    "result_cache_stale": "result-cache entries dropped as unreadable or "
                          "written by a different code version",
    "result_cache_stores": "artifact or response payloads written to "
                           "the result cache",
    "result_cache_evictions": "result-cache records dropped by the LRU "
                              "size bound (cache_max_bytes)",
    "result_cache_io_errors": "result-cache reads/writes abandoned on a "
                              "filesystem error (counted misses / "
                              "skipped stores)",
    "worker_deaths": "broken-pool events the service's worker pool "
                     "recovered from",
    "incremental_solves": "solve() calls served by a persistent "
                          "assumption-based incremental solver",
    "learned_kept": "learned clauses carried into an incremental solve "
                    "from earlier attempts of the same grow-m loop",
    "db_reductions": "learned-clause database reduction passes run by "
                     "the incremental solver",
    "assumption_cores": "failed-assumption cores extracted from UNSAT "
                        "incremental solves",
    "variant_skips": "serialisation variants skipped because the banned "
                     "variant's UNSAT core already covered them",
    "oneshot_fallbacks": "incremental attempts retried one-shot after "
                         "exhausting their budget",
    "service_requests": "synthesis requests accepted by the HTTP service "
                        "(every POST /synthesize that parsed)",
    "service_cache_hits": "service requests replayed verbatim from the "
                          "shared response cache",
    "service_cache_misses": "service requests that had to run synthesis "
                            "(includes uncacheable budgeted requests)",
    "service_inflight_dedup": "service requests coalesced onto an "
                              "identical request already executing",
    "service_errors": "service requests rejected or failed (4xx plus "
                      "synthesis error/timeout verdicts)",
    "service_worker_respawns": "service executor pools rebuilt after a "
                               "worker crash broke the previous one",
    "generated_stgs": "random STGs produced by the corpus generator",
    "generated_echoes": "CSC-planting echo tails planted across all "
                        "generated STGs",
    "verify_checks": "verification checks executed by the post-synthesis "
                     "pass (csc, conformance, persistency)",
    "verify_states": "closed-loop states explored by the circuit "
                     "verifier's BFS",
    "verify_violations": "counterexamples recorded by the circuit "
                         "verifier (all kinds, after dedup)",
    "verify_vectors": "distinct circuit value vectors whose gates the "
                      "closed loop evaluated (journal only, on the "
                      "verify/explore span)",
}

#: name -> human description of every *derived* metric -- ratios computed
#: from counter totals at reporting time (``--metrics``, ``--metrics-prom``
#: and the service's ``/metrics`` page), never recorded or summed
#: themselves.
DERIVED_GLOSSARY = {
    "result_cache_hit_rate": "result-cache hits over lookups "
                             "(hits / (hits + misses))",
    "proj_cache_hit_rate": "projection-cache hits over lookups "
                           "(hits / (hits + misses))",
    "service_cache_hit_rate": "service response-cache hits over executed "
                              "lookups (hits / (hits + misses))",
}

#: name -> human description of every histogram the pipeline records.
HISTOGRAM_GLOSSARY = {
    "module_solve_seconds": "wall-clock seconds of one output's modular "
                            "pass (one observation per `module` span)",
    "sat_attempt_seconds": "wall-clock seconds of one SAT attempt (one "
                           "observation per `sat_attempt` span)",
    "formula_clauses": "CNF clauses of one encoded SAT-CSC formula (one "
                       "observation per `encode` span)",
    "cache_lookup_seconds": "latency of one persistent result-cache "
                            "lookup (hit, miss or stale alike)",
    "service_request_seconds": "end-to-end latency of one service "
                               "request (parse to serialized response, "
                               "cache hits and misses alike)",
}

#: name -> human description of every gauge the pipeline records.
GAUGE_GLOSSARY = {
    "peak_memory_bytes": "tracemalloc peak allocation during one "
                         "top-level span (--trace-memory; labelled by "
                         "span name, the maximum across sets)",
}

#: Upper bucket bounds (exclusive of +Inf, which is implicit) per
#: histogram.  Fixed per metric, so one metric renders the same
#: buckets in every process.
HISTOGRAM_BUCKETS = {
    "module_solve_seconds": (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
    ),
    "sat_attempt_seconds": (
        0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0,
    ),
    "formula_clauses": (
        50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000,
    ),
    "cache_lookup_seconds": (
        0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1,
    ),
    "service_request_seconds": (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
    ),
}

#: Fallback bounds for histograms observed outside the declared set.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

#: Span name -> histograms the tracer fills automatically on span close.
#: Each entry is ``(histogram_name, source)`` where ``source`` is
#: ``"duration"`` (the span's wall clock) or a counter name on the span.
AUTO_HISTOGRAMS = {
    "module": (("module_solve_seconds", "duration"),),
    "sat_attempt": (("sat_attempt_seconds", "duration"),),
    "encode": (("formula_clauses", "num_clauses"),),
}


class Histogram:
    """A fixed-bucket distribution with Prometheus cumulative semantics.

    ``bounds`` are the finite upper bucket bounds in increasing order;
    an implicit ``+Inf`` bucket catches everything above the last bound.
    ``counts`` are stored *per bucket* (not cumulative); the exporter
    accumulates when rendering.  Glossary metrics take their bounds
    from :data:`HISTOGRAM_BUCKETS`.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name, bounds=None):
        if bounds is None:
            bounds = HISTOGRAM_BUCKETS.get(name, DEFAULT_BUCKETS)
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value):
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self):
        """``[(upper_bound, cumulative_count), ...]`` ending at +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def as_dict(self):
        """JSON-ready snapshot."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": round(self.total, 9),
            "count": self.count,
        }

    def __repr__(self):
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"sum={self.total:.6f})"
        )


#: Gauge modes.
GAUGE_MAX = "max"
GAUGE_LAST = "last"


class Gauge:
    """A point-in-time measurement with a declared update mode.

    ``mode=GAUGE_MAX`` (the default) keeps the maximum across ``set``
    calls -- right for peaks such as memory high-water marks.
    ``mode=GAUGE_LAST`` is last-write-wins.  ``labels`` is an optional ``{key: value}`` mapping
    rendered as Prometheus labels.
    """

    __slots__ = ("name", "labels", "value", "mode")

    def __init__(self, name, labels=None, mode=GAUGE_MAX):
        if mode not in (GAUGE_MAX, GAUGE_LAST):
            raise ValueError(f"unknown gauge mode {mode!r}")
        self.name = name
        self.labels = dict(labels or {})
        self.value = None
        self.mode = mode

    def set(self, value):
        value = float(value)
        if (self.mode == GAUGE_LAST or self.value is None
                or value > self.value):
            self.value = value
        return self.value

    def key(self):
        """Registry key: name plus the sorted label items."""
        return gauge_key(self.name, self.labels)

    def as_dict(self):
        return {
            "labels": dict(self.labels),
            "value": self.value,
            "mode": self.mode,
        }

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.labels!r}, value={self.value})"


def gauge_key(name, labels=None):
    """The registry key a gauge with these labels files under."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]!r}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counters:
    """A numeric counter bag with merge semantics.

    Behaves like a small read-mostly mapping: ``add`` accumulates,
    ``merge`` folds another bag in, ``as_dict`` snapshots for JSON.
    Missing counters read as 0, so callers never need ``get(..., 0)``
    guards.
    """

    __slots__ = ("_data",)

    def __init__(self, **counts):
        self._data = {}
        for name, value in counts.items():
            if value:
                self._data[name] = value

    def add(self, name, delta=1):
        """Accumulate ``delta`` into ``name``; returns the new total.

        Adding 0 to an absent counter does not create an entry, so
        zero-valued statistics never clutter snapshots.
        """
        if not delta and name not in self._data:
            return 0
        total = self._data.get(name, 0) + delta
        self._data[name] = total
        return total

    def set(self, name, value):
        self._data[name] = value

    def get(self, name, default=0):
        return self._data.get(name, default)

    def merge(self, other):
        """Fold another :class:`Counters` (or plain dict) into this one."""
        items = other._data if isinstance(other, Counters) else other
        for name, value in items.items():
            self.add(name, value)
        return self

    def as_dict(self):
        """Plain ``{name: value}`` snapshot, sorted by name."""
        return {name: self._data[name] for name in sorted(self._data)}

    def __getitem__(self, name):
        return self._data.get(name, 0)

    def __contains__(self, name):
        return name in self._data

    def __iter__(self):
        return iter(sorted(self._data))

    def __len__(self):
        return len(self._data)

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        if isinstance(other, Counters):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._data.items()))
        return f"Counters({inner})"
