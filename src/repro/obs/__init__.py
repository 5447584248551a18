"""``repro.obs`` -- tracing, metrics and the run journal.

The paper's argument is quantitative (per-output SAT-CSC instances are
orders of magnitude smaller than the monolithic formula), so the
pipeline needs per-stage visibility: where the wall clock goes, how big
every formula was, how many states each construction explored.  This
package is that layer, with zero third-party dependencies:

* :mod:`repro.obs.tracer` -- hierarchical spans
  (``run -> build_state_graph -> module -> project/encode/solve/propagate
  -> sat_attempt``) with an optional JSONL journal; installed process-
  wide like the fault registry, and a near-no-op when disabled;
* :mod:`repro.obs.metrics` -- :class:`Counters`, the typed counter bag
  carried by :class:`~repro.sat.solver.SolveResult` and
  :class:`~repro.runtime.report.RunReport` alike;
* :mod:`repro.obs.timer` -- :class:`Stopwatch`, the one
  ``time.perf_counter()`` pattern, shared by every engine and driver;
* :mod:`repro.obs.journal` -- reading/validating JSONL journals
  (gzip-transparent via :func:`journal_open`);
* :mod:`repro.obs.profile` -- per-phase aggregation behind the CLI's
  ``--metrics``/``--profile-top`` and ``tools/summarize_trace.py``;
* :mod:`repro.obs.analyze` -- span trees, self-time vs child-time,
  per-module attribution and critical-path extraction
  (``--metrics-tree``, ``tools/analyze_trace.py``);
* :mod:`repro.obs.export` -- folded-stack flamegraph lines, Chrome
  trace-event JSON and Prometheus text exposition
  (``--metrics-prom``).

Like :mod:`repro.runtime.faults`, this package is a dependency *leaf*:
it imports nothing from the rest of :mod:`repro`, so every layer down to
the SAT engines can use it without cycles.
"""

from repro.obs.analyze import (
    Attribution,
    SpanNode,
    build_forest,
    critical_path,
    format_attribution,
    format_critical_path,
    format_tree,
    module_attribution,
    name_attribution,
    verify_forest,
    walk_forest,
)
from repro.obs.export import (
    chrome_trace,
    folded_stacks,
    prometheus_text,
    validate_chrome_trace,
    validate_folded,
    validate_prometheus_text,
    write_chrome_trace,
)
from repro.obs.journal import (
    JournalError,
    journal_open,
    load_journal,
    read_events,
    read_events_tolerant,
    span_tree,
    validate_events,
)
from repro.obs.metrics import (
    COUNTER_GLOSSARY,
    DERIVED_GLOSSARY,
    GAUGE_GLOSSARY,
    HISTOGRAM_BUCKETS,
    HISTOGRAM_GLOSSARY,
    Counters,
    Gauge,
    Histogram,
)
from repro.obs.profile import (
    SpanStats,
    aggregate_events,
    counter_totals,
    format_counters,
    format_profile,
    stats_as_dict,
    top_spans,
    with_derived,
)
from repro.obs.timer import Stopwatch
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    active,
    add,
    enabled,
    event,
    gauge,
    install,
    observe,
    span,
    tracing,
    uninstall,
)

__all__ = [
    "Attribution",
    "COUNTER_GLOSSARY",
    "Counters",
    "DERIVED_GLOSSARY",
    "GAUGE_GLOSSARY",
    "Gauge",
    "HISTOGRAM_BUCKETS",
    "HISTOGRAM_GLOSSARY",
    "Histogram",
    "JournalError",
    "NULL_SPAN",
    "Span",
    "SpanNode",
    "SpanStats",
    "Stopwatch",
    "Tracer",
    "active",
    "add",
    "aggregate_events",
    "build_forest",
    "chrome_trace",
    "counter_totals",
    "critical_path",
    "enabled",
    "event",
    "folded_stacks",
    "format_attribution",
    "format_counters",
    "format_critical_path",
    "format_profile",
    "format_tree",
    "gauge",
    "install",
    "journal_open",
    "load_journal",
    "module_attribution",
    "name_attribution",
    "observe",
    "prometheus_text",
    "read_events",
    "read_events_tolerant",
    "span",
    "span_tree",
    "stats_as_dict",
    "top_spans",
    "tracing",
    "uninstall",
    "validate_chrome_trace",
    "validate_events",
    "validate_folded",
    "validate_prometheus_text",
    "verify_forest",
    "walk_forest",
    "with_derived",
    "write_chrome_trace",
]
