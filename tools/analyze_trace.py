"""Attribute a span journal: tree, per-module costs, critical path.

Usage::

    python tools/analyze_trace.py TRACE.jsonl[.gz]
        [--tree] [--modules] [--critical-path]
        [--min-seconds S] [--verify]
        [--flamegraph OUT.folded] [--chrome OUT.json]

With no section flag all three sections print.  The journal may be a
multi-segment concatenation (``cat a.jsonl b.jsonl``: one
self-contained segment per run); spans are folded per segment and
attributed together.

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
    build_forest,
    chrome_trace,
    critical_path,
    folded_stacks,
    format_attribution,
    format_critical_path,
    format_tree,
    module_attribution,
    read_events_tolerant,
    validate_chrome_trace,
    validate_folded,
    verify_forest,
    write_chrome_trace,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="JSONL trace written by --trace")
    parser.add_argument(
        "--tree", action="store_true",
        help="print the span tree (self vs child time)",
    )
    parser.add_argument(
        "--modules", action="store_true",
        help="print per-output-module attribution",
    )
    parser.add_argument(
        "--critical-path", action="store_true",
        help="print the heaviest root-to-leaf span chain",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.0, metavar="S",
        help="hide tree rows totalling less than S seconds",
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
        print(f"error: cannot read {args.journal}: {exc}", file=sys.stderr)
        return 1
    if skipped:
        print(
            f"error: {args.journal}: skipped {len(skipped)} bad journal "
            f"line(s); first: {skipped[0]}",
            file=sys.stderr,
        )
        return 1
    roots = build_forest(events)
    if not roots:
        print(f"error: {args.journal}: no completed spans", file=sys.stderr)
        return 1

    if args.verify:
        problems = verify_forest(roots)
        if problems:
            print(
                f"error: self-time arithmetic broken in {args.journal}:",
                file=sys.stderr,
            )
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1

    sections = []
    everything = not (args.tree or args.modules or args.critical_path)
    if args.tree or everything:
        sections.append(format_tree(roots, min_seconds=args.min_seconds))
    if args.modules or everything:
        attribution = module_attribution(roots)
        if attribution:
            sections.append(format_attribution(attribution, title="output"))
        elif args.modules:
            sections.append("no module spans recorded")
    if args.critical_path or everything:
        sections.append(format_critical_path(critical_path(roots)))
    print("\n\n".join(sections))

    if args.flamegraph:
        lines = folded_stacks(roots)
        problems = validate_folded(lines)
        if problems:
            print(
                f"error: folded output invalid: {problems[0]}",
                file=sys.stderr,
            )
            return 1
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {args.flamegraph} ({len(lines)} stacks)")
    if args.chrome:
        document = chrome_trace(roots, events)
        problems = validate_chrome_trace(document)
        if problems:
            print(
                f"error: chrome trace invalid: {problems[0]}",
                file=sys.stderr,
            )
            return 1
        write_chrome_trace(document, args.chrome)
        print(
            f"wrote {args.chrome} "
            f"({len(document['traceEvents'])} events)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
