"""Span aggregation and the text tables behind ``--metrics``/``--profile-top``.

A trace is a stream of span start/end events; a profile is the same data
folded by span *name*: how many times each phase ran, how much wall
clock it took in total, and the sum of every counter it recorded.  The
live :class:`~repro.obs.tracer.Tracer` maintains this fold incrementally
(so the CLI can print it without re-reading the journal), and
``tools/summarize_trace.py`` rebuilds the identical fold from a journal
file on disk.
"""

from __future__ import annotations

from repro.obs.metrics import Counters


class SpanStats:
    """Aggregated statistics of every completed span sharing one name."""

    __slots__ = ("name", "count", "total_seconds", "max_seconds", "counters")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0
        self.counters = Counters()

    def record(self, duration, counters=None):
        """Fold one completed span in."""
        self.count += 1
        self.total_seconds += duration
        if duration > self.max_seconds:
            self.max_seconds = duration
        if counters:
            self.counters.merge(counters)

    @property
    def mean_seconds(self):
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self):
        return {
            "count": self.count,
            "total_seconds": round(self.total_seconds, 6),
            "max_seconds": round(self.max_seconds, 6),
            "counters": self.counters.as_dict(),
        }

    def __repr__(self):
        return (
            f"SpanStats({self.name!r}, count={self.count}, "
            f"total={self.total_seconds:.4f}s)"
        )


def aggregate_events(events):
    """Fold journal events into ``{span_name: SpanStats}``.

    Only ``end`` events contribute (they carry the duration and final
    counters); the fold therefore matches the live tracer's, which also
    records spans as they close.
    """
    stats = {}
    for event in events:
        if event.get("ev") != "end":
            continue
        name = event.get("name", "?")
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = SpanStats(name)
        entry.record(
            float(event.get("dur", 0.0)), event.get("counters") or {}
        )
    return stats


def counter_totals(stats):
    """Sum every span's counters into one :class:`Counters` bag."""
    totals = Counters()
    for entry in stats.values():
        totals.merge(entry.counters)
    return totals


#: ``derived name -> (hits counter, misses counter)`` hit-rate ratios
#: appended by :func:`with_derived` (see
#: :data:`repro.obs.metrics.DERIVED_GLOSSARY`).
_HIT_RATES = {
    "result_cache_hit_rate": ("result_cache_hits", "result_cache_misses"),
    "proj_cache_hit_rate": ("proj_cache_hits", "proj_cache_misses"),
    "service_cache_hit_rate": ("service_cache_hits", "service_cache_misses"),
}


def with_derived(totals):
    """A copy of ``totals`` with the derived ratio metrics appended.

    Cache hit rates (``result_cache_hit_rate``,
    ``proj_cache_hit_rate``) are computed from the raw hit/miss
    counters whenever at least one lookup happened, so ``--metrics``
    output and the service's ``/metrics`` page surface cache
    effectiveness without a journal read.  Ratios are derived at
    reporting time only -- they are never summed (a summed ratio would
    be meaningless).
    """
    out = Counters()
    out.merge(totals)
    for name, (hits_key, misses_key) in _HIT_RATES.items():
        lookups = totals[hits_key] + totals[misses_key]
        if lookups:
            out.set(name, round(totals[hits_key] / lookups, 4))
    return out


def top_spans(stats, n=None):
    """Span stats ordered by total wall clock, heaviest first."""
    ordered = sorted(
        stats.values(), key=lambda s: (-s.total_seconds, s.name)
    )
    return ordered if n is None else ordered[:n]


def format_profile(stats, top=None):
    """Fixed-width per-phase table, heaviest spans first."""
    rows = top_spans(stats, top)
    if not rows:
        return "no spans recorded"
    width = max(len(entry.name) for entry in rows)
    width = max(width, len("span"))
    lines = [
        f"{'span':<{width}} {'count':>7} {'total':>10} "
        f"{'mean':>10} {'max':>10}"
    ]
    for entry in rows:
        lines.append(
            f"{entry.name:<{width}} {entry.count:>7} "
            f"{entry.total_seconds:>9.4f}s {entry.mean_seconds:>9.4f}s "
            f"{entry.max_seconds:>9.4f}s"
        )
    return "\n".join(lines)


def format_counters(totals):
    """Aligned ``counter  value`` listing of a :class:`Counters` bag."""
    items = totals.as_dict()
    if not items:
        return "no counters recorded"
    width = max(len(name) for name in items)
    lines = []
    for name, value in items.items():
        if isinstance(value, float):
            rendered = f"{value:.4f}"
        else:
            rendered = str(value)
        lines.append(f"{name:<{width}}  {rendered}")
    return "\n".join(lines)


def stats_as_dict(stats):
    """JSON-ready ``{name: stats}`` mapping, sorted by span name."""
    return {name: stats[name].as_dict() for name in sorted(stats)}
