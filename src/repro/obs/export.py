"""Exporters: folded stacks, Chrome trace events, Prometheus text.

One journal, three ecosystems:

* :func:`folded_stacks` -- Brendan Gregg's folded-stack format
  (``frame;frame;frame count``), the input of every flamegraph
  renderer (``flamegraph.pl``, speedscope, inferno).  The sample value
  is the span's *self* time in integer microseconds, so the widths of
  the flame rectangles are wall clock, not call counts.
* :func:`chrome_trace` -- the Chrome trace-event JSON object format
  (loadable in Perfetto / ``chrome://tracing``).  Journal segments map
  to threads of one process, so concatenated journals
  (``cat a.jsonl b.jsonl``) render as one lane per run.
* :func:`prometheus_text` -- the Prometheus text exposition format
  (version 0.0.4) over the whole metric registry: counters (rendered
  with the conventional ``_total`` suffix), histograms (cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``) and gauges.
  This is the scrape substrate for the synthesis-as-a-service front
  end the ROADMAP plans.

Each exporter has a paired ``validate_*`` checker -- dependency-free
structural validation returning a list of problem strings -- so CI can
gate on artifact well-formedness without third-party parsers.
"""

from __future__ import annotations

import json
import re

from repro.obs.analyze import walk_forest
from repro.obs.metrics import (
    COUNTER_GLOSSARY,
    DERIVED_GLOSSARY,
    GAUGE_GLOSSARY,
    HISTOGRAM_GLOSSARY,
)

#: Prefix of every exported Prometheus metric family.
PROM_NAMESPACE = "repro"


# -- folded stacks ---------------------------------------------------------

def folded_stacks(roots, per_segment=False):
    """Fold a span forest into flamegraph input lines.

    Identical name-paths aggregate (their self-time microseconds sum),
    which is what folded format means; ``per_segment=True`` prefixes
    each stack with ``segmentN`` so the segments stay distinguishable.
    Spans whose self time rounds to zero microseconds are dropped --
    they would render as zero-width rectangles anyway.

    Returns the lines sorted lexicographically (the conventional
    ``sort | flamegraph.pl`` shape), without trailing newlines.
    """
    folded = {}

    def descend(node, prefix):
        frame = node.name.replace(";", "_").replace(" ", "_")
        stack = f"{prefix};{frame}" if prefix else frame
        micros = int(round(node.self_seconds * 1e6))
        if micros > 0:
            folded[stack] = folded.get(stack, 0) + micros
        for child in node.children:
            descend(child, stack)

    for root in roots:
        prefix = f"segment{root.segment}" if per_segment else ""
        descend(root, prefix)
    return [f"{stack} {value}" for stack, value in sorted(folded.items())]


def validate_folded(lines):
    """Problem strings for folded-stack lines (empty list = valid)."""
    problems = []
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        if not stack or not value.isdigit():
            problems.append(
                f"line {number}: not 'frame;frame value': {line!r}"
            )
            continue
        if int(value) <= 0:
            problems.append(f"line {number}: non-positive sample {value}")
        if any(not frame for frame in stack.split(";")):
            problems.append(f"line {number}: empty frame in {stack!r}")
    return problems


# -- Chrome trace events ---------------------------------------------------

def chrome_trace(roots, events=()):
    """A Chrome trace-event JSON document from a span forest.

    Complete spans become ``ph="X"`` duration events; journal ``point``
    records (pass the raw events) become ``ph="i"`` instants.  Each
    journal segment renders as its own thread (``tid = segment + 1``)
    of one process, with ``M`` metadata events naming the lanes.
    Timestamps are the journal's segment-relative seconds in
    microseconds -- lanes align at zero, which is the useful alignment
    for comparing the timelines of concatenated runs.
    """
    trace_events = []
    segments = set()
    for node in walk_forest(roots):
        segments.add(node.segment)
        args = {}
        if node.attrs:
            args["attrs"] = dict(node.attrs)
        counters = node.counters.as_dict()
        if counters:
            args["counters"] = counters
        trace_events.append({
            "name": node.name,
            "cat": "repro",
            "ph": "X",
            "ts": round(node.start * 1e6, 3),
            "dur": round(node.duration * 1e6, 3),
            "pid": 1,
            "tid": node.segment + 1,
            "args": args,
        })
    segment = -1
    for event in events:
        if event.get("ev") == "trace":
            segment += 1
        elif event.get("ev") == "point":
            trace_events.append({
                "name": event.get("name", "?"),
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": round(float(event.get("t", 0.0)) * 1e6, 3),
                "pid": 1,
                "tid": max(segment, 0) + 1,
                "args": {"attrs": dict(event.get("attrs") or {})},
            })
            segments.add(max(segment, 0))
    for index in sorted(segments):
        lane = "main" if index == 0 else f"worker segment {index}"
        trace_events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": index + 1,
            "args": {"name": lane},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document):
    """Problem strings for a Chrome trace document (empty = valid)."""
    problems = []
    if not isinstance(document, dict):
        return ["top level is not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "B", "E"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        if ph == "M":
            continue
        for field in ("ts", "pid", "tid"):
            if not isinstance(event.get(field), (int, float)):
                problems.append(f"{where}: {field} missing or not a number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: dur missing or negative for a complete event"
                )
    return problems


def write_chrome_trace(document, path):
    """Serialise a trace document to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return path


# -- Prometheus text exposition --------------------------------------------

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name):
    """Sanitise a glossary name into a Prometheus metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return f"{PROM_NAMESPACE}_{cleaned}"


def _prom_help(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_label_value(value):
    return (
        str(value).replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_number(value):
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(counters=None, histograms=None, gauges=None):
    """Render the metric registry in Prometheus text exposition format.

    ``counters`` is a :class:`~repro.obs.metrics.Counters` (or dict) of
    monotone totals -- rendered as ``counter`` families with the
    conventional ``_total`` suffix, except derived ratios
    (:data:`~repro.obs.metrics.DERIVED_GLOSSARY`), which are gauges by
    nature.  ``histograms`` is ``{name: Histogram}``; ``gauges`` is
    ``{key: Gauge}``.  ``HELP`` lines come from the glossaries when the
    metric is documented.  Returns the full page as one string ending
    in a newline (the exposition format requires it).
    """
    lines = []

    def header(prom, source_name, kind, glossary):
        help_text = glossary.get(source_name)
        if help_text:
            lines.append(f"# HELP {prom} {_prom_help(help_text)}")
        lines.append(f"# TYPE {prom} {kind}")

    items = counters.as_dict() if hasattr(counters, "as_dict") else \
        dict(counters or {})
    for name in sorted(items):
        value = items[name]
        if name in DERIVED_GLOSSARY:
            prom = _prom_name(name)
            header(prom, name, "gauge", DERIVED_GLOSSARY)
            lines.append(f"{prom} {_prom_number(value)}")
        else:
            prom = _prom_name(name) + "_total"
            header(prom, name, "counter", COUNTER_GLOSSARY)
            lines.append(f"{prom} {_prom_number(value)}")

    for name in sorted(histograms or {}):
        hist = histograms[name]
        prom = _prom_name(name)
        header(prom, name, "histogram", HISTOGRAM_GLOSSARY)
        for bound, cumulative in hist.cumulative():
            le = "+Inf" if bound == float("inf") else _prom_number(bound)
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_number(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")

    seen_gauge_families = set()
    for key in sorted(gauges or {}):
        entry = gauges[key]
        if entry.value is None:
            continue
        prom = _prom_name(entry.name)
        if prom not in seen_gauge_families:
            header(prom, entry.name, "gauge", GAUGE_GLOSSARY)
            seen_gauge_families.add(prom)
        if entry.labels:
            rendered = ",".join(
                f'{k}="{_prom_label_value(entry.labels[k])}"'
                for k in sorted(entry.labels)
            )
            lines.append(f"{prom}{{{rendered}}} {_prom_number(entry.value)}")
        else:
            lines.append(f"{prom} {_prom_number(entry.value)}")

    return "\n".join(lines) + "\n" if lines else ""


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def validate_prometheus_text(text):
    """Problem strings for a text-exposition page (empty = valid).

    Checks the subset of the 0.0.4 format this exporter emits: HELP and
    TYPE comments naming valid metric families, samples with a valid
    metric name, well-formed label sets and a parseable float value,
    TYPE appearing before the family's first sample, and a trailing
    newline.
    """
    problems = []
    if text and not text.endswith("\n"):
        problems.append("page does not end with a newline")
    typed = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {number}: malformed comment {line!r}")
                continue
            if not _NAME_OK.match(parts[2]):
                problems.append(
                    f"line {number}: invalid metric name {parts[2]!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary",
                        "untyped"):
                    problems.append(
                        f"line {number}: invalid TYPE line {line!r}"
                    )
                elif parts[2] in typed:
                    problems.append(
                        f"line {number}: duplicate TYPE for {parts[2]}"
                    )
                else:
                    typed.add(parts[2])
            continue
        match = _SAMPLE.match(line)
        if not match:
            problems.append(f"line {number}: malformed sample {line!r}")
            continue
        labels = match.group("labels")
        if labels:
            inner = labels[1:-1]
            if inner:
                for pair in _split_labels(inner):
                    if not _LABEL.match(pair):
                        problems.append(
                            f"line {number}: malformed label {pair!r}"
                        )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {number}: unparseable value {value!r}"
                )
    return problems


def _split_labels(inner):
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs = []
    current = []
    quoted = False
    escaped = False
    for char in inner:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            quoted = not quoted
            current.append(char)
            continue
        if char == "," and not quoted:
            pairs.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs
