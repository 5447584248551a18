"""Post-hoc trace analytics: span trees, self time, attribution, critical path.

The journal (and the live tracer's retained event list) is a flat
stream of span ``start``/``end`` records.  This module folds that
stream into a **forest of span trees** -- one tree list per journal
*segment* (a single run has one segment; concatenated journals have
one per run) -- and answers the questions raw profiles cannot:

* **Self time vs child time.**  A span's profile total includes its
  children; a ``module`` span's 0.4 s may be 0.39 s of ``sat_attempt``.
  :attr:`SpanNode.self_seconds` is the span's own wall clock with all
  child durations subtracted, the quantity flamegraphs plot.
* **Per-module attribution.**  ``module`` spans carry their output
  signal as an attribute; :func:`module_attribution` groups the wall
  clock and counters by output, so "where did mmu0's 1.3 s go?" is one
  table, not a journal read.
* **Critical path.**  :func:`critical_path` walks the heaviest chain
  root -> leaf.

Everything here consumes plain event dicts, so it works identically on
a journal file (``tools/analyze_trace.py``), on a gzipped journal, and
on a live ``Tracer(keep_events=True)`` (the CLI's ``--metrics-tree``).
"""

from __future__ import annotations

from repro.obs.metrics import Counters
from repro.obs.journal import split_segments


class SpanNode:
    """One completed span with its children resolved.

    ``start``/``end`` are segment-relative seconds; ``duration`` is the
    recorded ``dur`` (authoritative -- ``end - start`` includes journal
    write jitter).  ``segment`` is the 0-based index of the journal
    segment the span came from.
    """

    __slots__ = ("name", "id", "parent_id", "segment", "start", "end",
                 "duration", "attrs", "counters", "children")

    def __init__(self, name, span_id, parent_id, segment, start, end,
                 duration, attrs, counters):
        self.name = name
        self.id = span_id
        self.parent_id = parent_id
        self.segment = segment
        self.start = start
        self.end = end
        self.duration = duration
        self.attrs = attrs
        self.counters = counters
        self.children = []

    @property
    def child_seconds(self):
        """Total wall clock of the direct children."""
        return sum(child.duration for child in self.children)

    @property
    def self_seconds(self):
        """Wall clock spent in this span outside any child.

        Clamped at zero: float rounding in journalled durations can
        push the child sum a few microseconds past the parent.
        """
        return max(0.0, self.duration - self.child_seconds)

    def walk(self):
        """This node then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return (
            f"SpanNode({self.name!r}, id={self.id}, "
            f"dur={self.duration:.6f}s, children={len(self.children)})"
        )


def build_forest(events):
    """Fold journal events into ``[roots...]`` across all segments.

    Returns the list of root :class:`SpanNode` objects in end order,
    segments concatenated (each node knows its segment index).  Only
    spans with an ``end`` record appear -- a crash journal's unended
    spans have no duration to attribute.  Parent links resolve within a
    segment only (span ids are unique per segment).
    """
    roots = []
    for index, (_position, segment) in enumerate(split_segments(events)):
        starts = {}
        for event in segment:
            if event.get("ev") == "start":
                starts[event["id"]] = event
        nodes = {}
        ends = [e for e in segment if e.get("ev") == "end"]
        for event in ends:
            span_id = event["id"]
            start_event = starts.get(span_id, {})
            counters = Counters()
            counters.merge(event.get("counters") or {})
            node = SpanNode(
                name=event.get("name", "?"),
                span_id=span_id,
                parent_id=start_event.get("parent"),
                segment=index,
                start=float(start_event.get("t", 0.0)),
                end=float(event.get("t", 0.0)),
                duration=float(event.get("dur", 0.0)),
                attrs=dict(event.get("attrs") or {}),
                counters=counters,
            )
            nodes[span_id] = node
        for node in nodes.values():
            parent = nodes.get(node.parent_id)
            if parent is not None:
                parent.children.append(node)
        for event in ends:  # preserve end order for roots
            node = nodes[event["id"]]
            if node.parent_id is None or node.parent_id not in nodes:
                roots.append(node)
    return roots


def walk_forest(roots):
    """Every node of every tree, depth-first in root order."""
    for root in roots:
        yield from root.walk()


def verify_forest(roots, tolerance=1e-6):
    """Check the self-time arithmetic over a forest.

    For every span, ``self + sum(children) == duration`` within
    ``tolerance`` (absolute seconds, scaled by child count for float
    accumulation).  Returns a list of problem strings -- empty means
    every parent's child time is exactly accounted for by its
    children's durations, the invariant ``tools/analyze_trace.py
    --verify`` gates on.
    """
    problems = []
    for node in walk_forest(roots):
        budgeted = node.self_seconds + node.child_seconds
        bound = tolerance * (1 + len(node.children))
        if node.child_seconds - node.duration > bound:
            problems.append(
                f"span {node.name!r} (segment {node.segment}, id "
                f"{node.id}): children sum to {node.child_seconds:.6f}s "
                f"> own duration {node.duration:.6f}s"
            )
        elif abs(budgeted - node.duration) > bound:
            problems.append(
                f"span {node.name!r} (segment {node.segment}, id "
                f"{node.id}): self {node.self_seconds:.6f}s + children "
                f"{node.child_seconds:.6f}s != duration "
                f"{node.duration:.6f}s"
            )
    return problems


class Attribution:
    """Aggregated wall clock / self time / counters for one grouping key."""

    __slots__ = ("key", "count", "seconds", "self_seconds", "counters")

    def __init__(self, key):
        self.key = key
        self.count = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counters = Counters()

    def record(self, node):
        self.count += 1
        self.seconds += node.duration
        self.self_seconds += node.self_seconds
        self.counters.merge(node.counters)

    def record_subtree(self, node):
        """Fold a whole subtree in: root duration, every node's counters."""
        self.count += 1
        self.seconds += node.duration
        for span in node.walk():
            self.self_seconds += span.self_seconds
            self.counters.merge(span.counters)

    def as_dict(self):
        return {
            "count": self.count,
            "seconds": round(self.seconds, 6),
            "self_seconds": round(self.self_seconds, 6),
            "counters": self.counters.as_dict(),
        }

    def __repr__(self):
        return (
            f"Attribution({self.key!r}, count={self.count}, "
            f"seconds={self.seconds:.4f})"
        )


def module_attribution(roots, span_name="module", attr="output"):
    """Per-output wall/counter attribution from ``module`` spans.

    Returns ``{output: Attribution}`` in first-seen order.  Each
    ``module`` span's *whole subtree* is attributed to its output
    (project + encode + sat attempts + propagate), so the per-output
    seconds sum to the total time spent inside module processing -- the
    machine-checkable "where did the analysis effort go as the circuit
    composed" evidence the modular partitioning loop claims.
    """
    out = {}
    for node in walk_forest(roots):
        if node.name != span_name:
            continue
        key = node.attrs.get(attr, "?")
        entry = out.get(key)
        if entry is None:
            entry = out[key] = Attribution(key)
        entry.record_subtree(node)
    return out


def name_attribution(roots):
    """Per-span-name totals with self time (the flamegraph fold, flat).

    Like the live profile's :class:`~repro.obs.profile.SpanStats` but
    with the child time subtracted out, so the heaviest *self* time --
    not the heaviest subtree -- tops the table.
    """
    out = {}
    for node in walk_forest(roots):
        entry = out.get(node.name)
        if entry is None:
            entry = out[node.name] = Attribution(node.name)
        entry.record(node)
    return out


def critical_path(roots):
    """The heaviest root-to-leaf chain across the forest.

    Starts at the longest root span and at every level descends into
    the child with the largest duration.  Returns the list of
    :class:`SpanNode` hops; the run cannot be faster than the sum of
    the self times along this chain without restructuring it.
    """
    if not roots:
        return []
    node = max(roots, key=lambda n: n.duration)
    path = [node]
    while node.children:
        node = max(node.children, key=lambda n: n.duration)
        path.append(node)
    return path


# -- rendering -------------------------------------------------------------

def _tree_rows(nodes, depth, rows):
    """Group sibling spans by name; one row per (depth, name) group."""
    groups = {}
    for node in nodes:
        entry = groups.get(node.name)
        if entry is None:
            entry = groups[node.name] = Attribution(node.name)
            groups[node.name + "\0children"] = []
        entry.record(node)
        groups[node.name + "\0children"].extend(node.children)
    for name, entry in groups.items():
        if name.endswith("\0children"):
            continue
        rows.append((depth, entry))
        _tree_rows(groups[name + "\0children"], depth + 1, rows)


def format_tree(roots, min_seconds=0.0):
    """Fixed-width span tree, siblings collapsed by name.

    Each row shows the span name (indented by depth), how many spans
    collapsed into it, total wall clock, and self time.  ``min_seconds``
    prunes rows whose total falls below it (the counters still show in
    their ancestors' totals).
    """
    rows = []
    _tree_rows(roots, 0, rows)
    rows = [(d, e) for d, e in rows if e.seconds >= min_seconds]
    if not rows:
        return "no spans recorded"
    width = max(len("  " * d + e.key) for d, e in rows)
    width = max(width, len("span"))
    lines = [
        f"{'span':<{width}} {'count':>7} {'total':>10} {'self':>10}"
    ]
    for depth, entry in rows:
        label = "  " * depth + entry.key
        lines.append(
            f"{label:<{width}} {entry.count:>7} "
            f"{entry.seconds:>9.4f}s {entry.self_seconds:>9.4f}s"
        )
    return "\n".join(lines)


def format_attribution(attribution, title="output"):
    """Fixed-width per-key attribution table, heaviest first."""
    entries = sorted(
        attribution.values(), key=lambda e: (-e.seconds, str(e.key))
    )
    if not entries:
        return "no attributable spans recorded"
    width = max(len(str(e.key)) for e in entries)
    width = max(width, len(title))
    lines = [
        f"{title:<{width}} {'count':>6} {'total':>10} {'self':>10} "
        f"{'sat':>5} {'backtracks':>10}"
    ]
    for entry in entries:
        lines.append(
            f"{str(entry.key):<{width}} {entry.count:>6} "
            f"{entry.seconds:>9.4f}s {entry.self_seconds:>9.4f}s "
            f"{entry.counters['sat_attempts']:>5} "
            f"{entry.counters['backtracks']:>10}"
        )
    return "\n".join(lines)


def format_critical_path(path):
    """One line per hop of the critical path, with self time."""
    if not path:
        return "no spans recorded"
    lines = []
    for index, node in enumerate(path):
        label = node.attrs.get("output") or node.attrs.get("benchmark")
        suffix = f" [{label}]" if label else ""
        lines.append(
            f"{'  ' * index}{node.name}{suffix}  "
            f"total {node.duration:.4f}s  self {node.self_seconds:.4f}s"
        )
    return "\n".join(lines)
