"""Read a span journal: tree, per-module costs, critical path, profile.

Usage::

    python tools/analyze_trace.py TRACE.jsonl[.gz]
        [--tree] [--modules] [--critical-path] [--min-seconds S]
        [--profile] [--top N] [--counters] [--require COUNTER]
        [--verify] [--flamegraph OUT.folded] [--chrome OUT.json]

With no section flag every section prints.  The journal may be a
multi-segment concatenation (``cat a.jsonl b.jsonl``: one
self-contained segment per run); spans are folded per segment and
attributed together.

The journal is validated first (header, nesting, monotonic timestamps)
and the tool exits 1 with the problems listed when it is malformed, so
CI can gate on journal well-formedness with the same command
developers use to read one.  A truncated or corrupt line produces a
one-line diagnostic with the skipped-line count -- never a traceback.

``--profile`` folds spans by name (:func:`repro.obs.aggregate_events`,
the exact fold the live tracer maintains for ``--metrics`` and
``--profile-top``); ``--top N`` keeps the N heaviest names.
``--counters`` prints the counter totals across all spans.
``--require COUNTER`` (repeatable) exits 1 when the named counter total
is missing or zero -- CI uses it to assert, e.g., that a warm-cache run
actually hit the cache (``--require result_cache_hits``).

``--verify`` checks the self-time arithmetic -- every span's self time
plus its children's durations must equal its own duration within float
tolerance -- and exits 1 when it does not hold.  ``--flamegraph``
writes Brendan-Gregg folded-stack lines (feed to ``flamegraph.pl`` or
speedscope); ``--chrome`` writes a Chrome trace-event JSON that loads
in Perfetto / ``chrome://tracing``.  Both outputs are validated before
the tool exits 0.

Run with the repository's ``src`` on ``PYTHONPATH`` (or the package
installed).
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):  # script invocation: put src/ on the path
    _src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if os.path.isdir(_src) and _src not in sys.path:
        sys.path.insert(0, _src)

from repro.obs import (  # noqa: E402  (path bootstrap above)
    aggregate_events,
    build_forest,
    chrome_trace,
    counter_totals,
    critical_path,
    folded_stacks,
    format_attribution,
    format_counters,
    format_critical_path,
    format_profile,
    format_tree,
    module_attribution,
    read_events_tolerant,
    validate_chrome_trace,
    validate_events,
    validate_folded,
    verify_forest,
    write_chrome_trace,
)

SECTIONS = ("tree", "modules", "critical_path", "profile", "counters")


def _fail(message, problems=()):
    print(f"error: {message}", file=sys.stderr)
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="JSONL trace written by --trace")
    for flag, text in (
        ("--tree", "print the span tree (self vs child time)"),
        ("--modules", "print per-output-module attribution"),
        ("--critical-path", "print the heaviest root-to-leaf span chain"),
        ("--profile", "print the per-span-name time table"),
        ("--counters", "print the counter totals across all spans"),
    ):
        parser.add_argument(flag, action="store_true", help=text)
    parser.add_argument(
        "--min-seconds", type=float, default=0.0, metavar="S",
        help="hide tree rows totalling less than S seconds",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="only show the N heaviest span names in --profile",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="COUNTER",
        help="exit 1 unless this counter total is > 0 (repeatable)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="exit 1 unless self + children == duration for every span",
    )
    parser.add_argument(
        "--flamegraph", metavar="OUT.folded", default=None,
        help="write folded-stack lines (flamegraph.pl / speedscope)",
    )
    parser.add_argument(
        "--chrome", metavar="OUT.json", default=None,
        help="write Chrome trace-event JSON (Perfetto-loadable)",
    )
    args = parser.parse_args(argv)

    try:
        events, skipped = read_events_tolerant(args.journal)
    except OSError as exc:
        return _fail(f"cannot read {args.journal}: {exc}")
    if skipped:
        # One line, not a traceback: a truncated journal (crashed or
        # still-running producer) is an expected failure mode.
        return _fail(
            f"{args.journal}: skipped {len(skipped)} bad journal "
            f"line(s); first: {skipped[0]}"
        )
    problems = validate_events(events)
    if problems:
        return _fail(f"malformed journal {args.journal}:", problems)
    roots = build_forest(events)
    if not roots:
        return _fail(f"{args.journal}: no completed spans")
    if args.verify:
        problems = verify_forest(roots)
        if problems:
            return _fail(
                f"self-time arithmetic broken in {args.journal}:", problems
            )

    wanted = {name for name in SECTIONS if getattr(args, name)}
    wanted = wanted or set(SECTIONS)
    stats = aggregate_events(events)
    totals = counter_totals(stats)
    sections = []
    if "tree" in wanted:
        sections.append(format_tree(roots, min_seconds=args.min_seconds))
    if "modules" in wanted:
        attribution = module_attribution(roots)
        if attribution:
            sections.append(format_attribution(attribution, title="output"))
        elif args.modules:
            sections.append("no module spans recorded")
    if "critical_path" in wanted:
        sections.append(format_critical_path(critical_path(roots)))
    if "profile" in wanted:
        sections.append(format_profile(stats, top=args.top))
    if "counters" in wanted:
        sections.append(format_counters(totals))
    print("\n\n".join(sections))

    if args.flamegraph:
        lines = folded_stacks(roots)
        problems = validate_folded(lines)
        if problems:
            return _fail(f"folded output invalid: {problems[0]}")
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.flamegraph} ({len(lines)} stacks)")
    if args.chrome:
        document = chrome_trace(roots, events)
        problems = validate_chrome_trace(document)
        if problems:
            return _fail(f"chrome trace invalid: {problems[0]}")
        write_chrome_trace(document, args.chrome)
        print(
            f"wrote {args.chrome} "
            f"({len(document['traceEvents'])} events)"
        )
    failed = [name for name in args.require if totals.get(name, 0) <= 0]
    for name in failed:
        print(
            f"error: required counter {name!r} is missing or zero "
            f"in {args.journal}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
