"""Hierarchical spans with a JSONL journal and a near-no-op disabled path.

The tracer is a process-wide singleton like the fault registry
(:mod:`repro.runtime.faults`): instrumented sites call the module-level
:func:`span`/:func:`add`/:func:`event` helpers, which consult one global
slot.  With no tracer installed each helper is a global read plus an
early return -- :func:`span` hands back a shared no-op span object --
so the pipeline pays nothing measurable for being instrumented.

With a tracer installed, ``span()`` opens a :class:`Span` nested under
the current one (the tracer keeps the stack), counters recorded through
``Span.add``/:func:`add` accumulate on the innermost open span, and
every start/end is appended to the JSONL journal when one was requested.
Completed spans also fold into an in-memory per-name profile
(:class:`~repro.obs.profile.SpanStats`) so ``--metrics`` and
``--profile-top`` need no journal re-read.

The tracer is deliberately single-threaded, matching the pipeline; the
stack is a plain list, not a contextvar.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.obs.metrics import (
    AUTO_HISTOGRAMS,
    Counters,
    Gauge,
    Histogram,
    gauge_key,
)
from repro.obs.profile import (
    SpanStats,
    counter_totals,
    stats_as_dict,
    top_spans,
)

#: Journal format version written in the header event.
JOURNAL_VERSION = 1


class Span:
    """One timed phase of the pipeline.

    Use as a context manager; on exit the span is closed, its duration
    and counters are journalled, and -- when the body raised -- the
    exception class is recorded as the ``error`` attribute so a journal
    of a failed run still shows *where* it failed.
    """

    __slots__ = (
        "tracer", "name", "id", "parent_id", "attrs", "counters",
        "started", "duration",
    )

    def __init__(self, tracer, name, span_id, parent_id, attrs):
        self.tracer = tracer
        self.name = name
        self.id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.counters = Counters()
        self.started = None  # relative time, set by the tracer
        self.duration = None

    def add(self, counter, delta=1):
        """Accumulate a counter on this span."""
        self.counters.add(counter, delta)

    def merge(self, counters):
        """Fold a :class:`Counters` bag (e.g. a result's) into this span."""
        self.counters.merge(counters)

    def set(self, key, value):
        """Set an attribute (status, engine, ...) on this span."""
        self.attrs[key] = value

    @property
    def closed(self):
        return self.duration is not None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._end(self)
        return False

    def __repr__(self):
        state = f"{self.duration:.4f}s" if self.closed else "open"
        return f"Span({self.name!r}, id={self.id}, {state})"


class _NullSpan:
    """The shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def add(self, counter, delta=1):
        pass

    def merge(self, counters):
        pass

    def set(self, key, value):
        pass

    @property
    def closed(self):
        return True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __repr__(self):
        return "NullSpan()"


#: Singleton handed out by :func:`span` when no tracer is installed.
NULL_SPAN = _NullSpan()


class Tracer:
    """Span stack, per-name profile, and optional JSONL journal.

    Parameters
    ----------
    journal:
        ``None`` (in-memory profiling only), a path to create (a
        ``.gz`` suffix selects transparent gzip compression), or an
        open text file-like object (not closed by :meth:`close`).
    clock:
        Injectable time source for deterministic tests.
    keep_events:
        Retain every emitted journal record in memory (``self.events``)
        so post-hoc analytics (:mod:`repro.obs.analyze`, the CLI's
        ``--metrics-tree``) can rebuild the span tree without a journal
        file.
    memory:
        Record ``tracemalloc`` peak-allocation gauges per *top-level*
        span (``peak_memory_bytes{span=...}``).  Starts tracemalloc if
        it is not already tracing (and stops it again on :meth:`close`
        only in that case).  Opt-in: allocation tracking costs real
        time, so it rides the CLI's ``--trace-memory`` flag.
    """

    def __init__(self, journal=None, clock=time.perf_counter,
                 keep_events=False, memory=False):
        self._clock = clock
        self.started = clock()
        self._stack = []
        self._next_id = 1
        #: ``{span_name: SpanStats}`` folded as spans close.
        self.stats = {}
        #: ``{name: Histogram}`` filled by :meth:`observe` and the
        #: automatic span-close observations (:data:`AUTO_HISTOGRAMS`).
        self.histograms = {}
        #: ``{gauge_key: Gauge}`` filled by :meth:`gauge`.
        self.gauges = {}
        #: Retained journal records (only when ``keep_events``).
        self.events = [] if keep_events else None
        self.memory = bool(memory)
        self._mem_started_here = False
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._mem_started_here = True
        self._sink = None
        self._owns_sink = False
        if journal is not None:
            if hasattr(journal, "write"):
                self._sink = journal
            else:
                from repro.obs.journal import journal_open

                self._sink = journal_open(journal, "w")
                self._owns_sink = True
        if self._sink is not None or self.events is not None:
            self._emit({
                "ev": "trace",
                "version": JOURNAL_VERSION,
                "clock": "perf_counter",
            })

    # -- span lifecycle ----------------------------------------------------

    def span(self, name, **attrs):
        """Open a span nested under the current one."""
        parent = self._stack[-1].id if self._stack else None
        if self.memory and parent is None:
            import tracemalloc

            tracemalloc.reset_peak()
        entry = Span(self, name, self._next_id, parent, attrs)
        self._next_id += 1
        entry.started = self._now()
        self._stack.append(entry)
        record = {
            "ev": "start",
            "id": entry.id,
            "name": name,
            "t": entry.started,
        }
        if parent is not None:
            record["parent"] = parent
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)
        return entry

    def _end(self, entry):
        if entry.closed:
            return
        entry.duration = self._now() - entry.started
        # Pop up to and including this span; a well-nested program pops
        # exactly one, but a mismatch must not corrupt the stack.
        while self._stack:
            top = self._stack.pop()
            if top is entry:
                break
        stats = self.stats.get(entry.name)
        if stats is None:
            stats = self.stats[entry.name] = SpanStats(entry.name)
        stats.record(entry.duration, entry.counters)
        for hist_name, source in AUTO_HISTOGRAMS.get(entry.name, ()):
            if source == "duration":
                self.observe(hist_name, entry.duration)
            elif source in entry.counters:
                self.observe(hist_name, entry.counters[source])
        if self.memory and entry.parent_id is None:
            import tracemalloc

            _current, peak = tracemalloc.get_traced_memory()
            self.gauge("peak_memory_bytes", peak, span=entry.name)
        record = {
            "ev": "end",
            "id": entry.id,
            "name": entry.name,
            "t": self._now(),
            "dur": round(entry.duration, 6),
        }
        if entry.attrs:
            record["attrs"] = dict(entry.attrs)
        if entry.counters:
            record["counters"] = entry.counters.as_dict()
        self._emit(record)

    def current(self):
        """The innermost open span, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    def add(self, counter, delta=1):
        """Accumulate a counter on the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].counters.add(counter, delta)

    def event(self, name, **attrs):
        """Record an instant (duration-less) point event."""
        record = {"ev": "point", "name": name, "t": self._now()}
        if self._stack:
            record["parent"] = self._stack[-1].id
        if attrs:
            record["attrs"] = dict(attrs)
        self._emit(record)

    def observe(self, name, value):
        """Record one observation into the named histogram.

        Buckets come from
        :data:`~repro.obs.metrics.HISTOGRAM_BUCKETS` (or the default
        set).
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        hist.observe(value)
        return hist

    def gauge(self, name, value, mode="max", **labels):
        """Set the named (and optionally labelled) gauge.

        The default ``max`` mode keeps the high-water mark across sets;
        ``mode="last"`` is last-write-wins.
        """
        key = gauge_key(name, labels)
        entry = self.gauges.get(key)
        if entry is None:
            entry = self.gauges[key] = Gauge(name, labels, mode=mode)
        entry.set(value)
        return entry

    # -- reporting ---------------------------------------------------------

    def counter_totals(self):
        """Every counter summed across all completed spans."""
        return counter_totals(self.stats)

    def profile_top(self, n=None):
        """Completed-span stats, heaviest total wall clock first."""
        return top_spans(self.stats, n)

    def stats_dict(self):
        """JSON-ready profile snapshot, sorted by span name."""
        return stats_as_dict(self.stats)

    def close(self):
        """Close any spans left open (crash path), then the journal."""
        while self._stack:
            self._end(self._stack[-1])
        if self._mem_started_here:
            import tracemalloc

            tracemalloc.stop()
            self._mem_started_here = False
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None

    # -- internals ---------------------------------------------------------

    def _now(self):
        return round(self._clock() - self.started, 6)

    def _emit(self, record):
        if self.events is not None:
            self.events.append(record)
        if self._sink is not None:
            self._sink.write(
                json.dumps(record, separators=(",", ":"), default=str)
            )
            self._sink.write("\n")

    def __repr__(self):
        return (
            f"Tracer(spans={sum(s.count for s in self.stats.values())}, "
            f"open={len(self._stack)})"
        )


# -- the global slot -------------------------------------------------------

_tracer = None


def install(tracer):
    """Make ``tracer`` the process-wide tracer; returns it."""
    global _tracer
    _tracer = tracer
    return tracer


def uninstall():
    """Disable tracing; returns the previously installed tracer."""
    global _tracer
    previous = _tracer
    _tracer = None
    return previous


def active():
    """The installed :class:`Tracer`, or ``None`` when disabled."""
    return _tracer


def span(name, **attrs):
    """Open a span on the installed tracer; a no-op span when disabled."""
    if _tracer is None:
        return NULL_SPAN
    return _tracer.span(name, **attrs)


def add(counter, delta=1):
    """Accumulate a counter on the current span; no-op when disabled."""
    if _tracer is not None:
        _tracer.add(counter, delta)


def event(name, **attrs):
    """Record a point event; no-op when disabled."""
    if _tracer is not None:
        _tracer.event(name, **attrs)


def observe(name, value):
    """Record a histogram observation; no-op when disabled."""
    if _tracer is not None:
        _tracer.observe(name, value)


def gauge(name, value, mode="max", **labels):
    """Set a gauge on the installed tracer; no-op when disabled."""
    if _tracer is not None:
        _tracer.gauge(name, value, mode=mode, **labels)


def enabled():
    """True when a tracer is installed (for guarding pricier call sites)."""
    return _tracer is not None


@contextmanager
def tracing(journal=None, clock=time.perf_counter):
    """Install a fresh tracer for the body; restore the previous after.

    The convenience entry point for tests and scripts::

        with obs.tracing(journal="run.jsonl") as tracer:
            modular_synthesis(stg)
        print(tracer.counter_totals())
    """
    global _tracer
    previous = _tracer
    tracer = Tracer(journal=journal, clock=clock)
    _tracer = tracer
    try:
        yield tracer
    finally:
        _tracer = previous
        tracer.close()
