"""Reading and validating JSONL trace journals.

The journal a :class:`~repro.obs.tracer.Tracer` writes is a plain JSONL
stream: a ``trace`` header, then ``start``/``end`` records per span and
``point`` records for instant events.  This module is the read side --
used by ``tools/summarize_trace.py``, ``tools/analyze_trace.py`` and
the tests that assert a journal is well-formed even when the traced run
failed.

A journal may also be a **concatenation** of several complete journals
(``cat a.jsonl b.jsonl``, one self-contained journal per run).  Every
``trace`` header starts a new *segment*, and the rules below hold per
segment.

Journals whose path ends in ``.gz`` are gzip-compressed, transparently
on both sides: :func:`journal_open` is the one open helper the tracer's
write path and this module's read path share, so
``--trace run.jsonl.gz`` and ``tools/summarize_trace.py run.jsonl.gz``
just work (thousand-circuit corpora journals get large).

Well-formedness rules (checked by :func:`validate_events`):

* every line parses as a JSON object with a known ``ev`` type;
* each segment starts with a ``trace`` header, exactly one per segment
  (so the stream's first event is always a header);
* within a segment span ids are unique, and every ``end`` closes the
  innermost open ``start`` with the same id and name (strict LIFO
  nesting);
* every ``parent`` reference names a span that is open at that moment;
* timestamps never run backwards within a segment;
* no span is left open at the end of a segment.
"""

from __future__ import annotations

import json
import os

from repro.obs.tracer import JOURNAL_VERSION

#: Record types a journal may contain.
EVENT_TYPES = ("trace", "start", "end", "point")


def journal_open(path, mode="r"):
    """Open a journal path for text I/O, gzipping on a ``.gz`` suffix.

    ``mode`` is ``"r"`` or ``"w"``; the returned handle is always a
    text-mode file object with UTF-8 encoding.
    """
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class JournalError(ValueError):
    """A journal failed to parse or violated the nesting rules."""

    def __init__(self, problems):
        self.problems = list(problems)
        preview = "; ".join(self.problems[:3])
        more = len(self.problems) - 3
        if more > 0:
            preview += f"; ... {more} more"
        super().__init__(f"malformed trace journal: {preview}")


def _read_lines(source):
    if isinstance(source, (str, os.PathLike)):
        with journal_open(source, "r") as handle:
            return handle.readlines()
    if hasattr(source, "read"):
        return source.read().splitlines()
    return list(source)


def read_events(source):
    """Parse a journal into a list of event dicts.

    ``source`` is a path (``.gz`` paths are gunzipped transparently),
    an open text file, or an iterable of lines.  Raises
    :class:`JournalError` on the first unparseable line; use
    :func:`read_events_tolerant` to skip and count bad lines instead.
    """
    events = []
    for number, line in enumerate(_read_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError([f"line {number}: invalid JSON ({exc.msg})"])
        if not isinstance(event, dict):
            raise JournalError([f"line {number}: not a JSON object"])
        events.append(event)
    return events


def read_events_tolerant(source):
    """Parse a journal, skipping unparseable lines instead of raising.

    Returns ``(events, skipped)`` where ``skipped`` is a list of
    one-line problem strings (``"line N: ..."``), one per line that was
    truncated, corrupt or not a JSON object.  A journal cut off
    mid-write (crashed run, interrupted copy) still yields everything
    before the tear; the caller decides whether the skips are fatal.
    """
    events = []
    skipped = []
    for number, line in enumerate(_read_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            skipped.append(f"line {number}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(event, dict):
            skipped.append(f"line {number}: not a JSON object")
            continue
        events.append(event)
    return events, skipped


def split_segments(events):
    """Split a (possibly concatenated) journal into per-header segments.

    Returns ``[(first_position, [events...]), ...]`` where positions are
    1-based indices into the full stream.  Every ``trace`` header opens
    a new segment; events before the first header form a (malformed)
    headerless segment that :func:`validate_events` reports.
    """
    segments = []
    current = None
    for position, event in enumerate(events, start=1):
        if event.get("ev") == "trace" or current is None:
            current = []
            segments.append((position, current))
        current.append(event)
    return segments


def validate_events(events):
    """Check the journal rules; returns a list of problem strings."""
    if not events:
        return ["journal is empty"]
    problems = []
    for first_position, segment in split_segments(events):
        problems.extend(_validate_segment(segment, first_position))
    return problems


def _validate_segment(events, first_position):
    """Journal rules over one self-contained segment."""
    problems = []
    open_spans = []  # (id, name) innermost last
    open_ids = set()
    seen_ids = set()
    last_t = None
    for position, event in enumerate(events, start=first_position):
        kind = event.get("ev")
        if kind not in EVENT_TYPES:
            problems.append(f"event {position}: unknown type {kind!r}")
            continue
        if position == first_position:
            if kind != "trace":
                problems.append(
                    f"event {position}: journal segment must start with "
                    f"a 'trace' header"
                )
            elif event.get("version") != JOURNAL_VERSION:
                problems.append(
                    f"event {position}: unsupported journal version "
                    f"{event.get('version')!r}"
                )
            if kind == "trace":
                continue
        t = event.get("t")
        if not isinstance(t, (int, float)):
            problems.append(f"event {position}: missing timestamp 't'")
        else:
            if last_t is not None and t < last_t:
                problems.append(
                    f"event {position}: timestamp {t} runs backwards"
                )
            last_t = t
        parent = event.get("parent")
        if parent is not None and parent not in open_ids:
            problems.append(
                f"event {position}: parent {parent} is not an open span"
            )
        if kind == "start":
            span_id = event.get("id")
            name = event.get("name")
            if span_id is None or name is None:
                problems.append(f"event {position}: start lacks id/name")
                continue
            if span_id in seen_ids:
                problems.append(
                    f"event {position}: duplicate span id {span_id}"
                )
            seen_ids.add(span_id)
            open_spans.append((span_id, name))
            open_ids.add(span_id)
        elif kind == "end":
            span_id = event.get("id")
            name = event.get("name")
            if not open_spans:
                problems.append(
                    f"event {position}: end of {name!r} with no open span"
                )
                continue
            top_id, top_name = open_spans[-1]
            if span_id != top_id:
                problems.append(
                    f"event {position}: end of span {span_id} ({name!r}) "
                    f"but innermost open span is {top_id} ({top_name!r})"
                )
                # Recover so one mismatch does not cascade.
                open_spans = [
                    entry for entry in open_spans if entry[0] != span_id
                ]
                open_ids.discard(span_id)
                continue
            if name != top_name:
                problems.append(
                    f"event {position}: span {span_id} started as "
                    f"{top_name!r} but ended as {name!r}"
                )
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(
                    f"event {position}: end of {name!r} lacks a duration"
                )
            open_spans.pop()
            open_ids.discard(span_id)
    for span_id, name in open_spans:
        problems.append(f"span {span_id} ({name!r}) never ended")
    return problems


def load_journal(source):
    """Read and validate; returns the events or raises JournalError."""
    events = read_events(source)
    problems = validate_events(events)
    if problems:
        raise JournalError(problems)
    return events


def span_tree(events):
    """Nest end records as ``(record, [children...])`` trees.

    Returns the list of root spans in end order.  Useful for tests that
    assert the recorded hierarchy (run -> module -> sat_attempt).  A
    concatenated journal is handled per segment (span ids are only
    unique within one), roots accumulating across segments in order.
    """
    roots = []
    for _position, segment in split_segments(events):
        parents = {}
        for event in segment:
            if event.get("ev") == "start":
                parents[event["id"]] = event.get("parent")
        nodes = {}
        ends = [e for e in segment if e.get("ev") == "end"]
        for event in ends:
            nodes[event["id"]] = (event, [])
        for event in ends:
            parent = parents.get(event["id"])
            if parent is not None and parent in nodes:
                nodes[parent][1].append(nodes[event["id"]])
            else:
                roots.append(nodes[event["id"]])
    return roots
