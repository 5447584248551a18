"""Command-line reproduction of Table 1.

Usage::

    python -m repro.bench.table1 [--methods modular,direct,lavagno]
                                 [--names mr0,nak-pa,...] [--no-minimize]

Prints, for every benchmark in the paper's row order, the measured
results of each requested method next to the numbers the paper reports.
The specification column gives the measured state count with the
paper's in parentheses (the benchmark STGs are re-creations, DESIGN.md
§4).  Speed is measured by ``perfbench/`` (``BENCHMARK.json``), not here.
"""

from __future__ import annotations

import argparse

from repro.bench.runner import aggregate_area, table_rows
from repro.bench.suite import BENCHMARKS

_PAPER_METHODS = {
    "modular": lambda info: info.ours,
    "direct": lambda info: info.vanbekbergen,
    "lavagno": lambda info: info.lavagno,
}


def _fmt(value, width, precision=None):
    if value is None:
        return "-".rjust(width)
    if precision is not None:
        return f"{value:.{precision}f}".rjust(width)
    return str(value).rjust(width)


def format_table(rows, methods):
    """Render measured-vs-paper rows as a fixed-width text table."""
    lines = []
    header = f"{'benchmark':16} {'st (paper)':>10} {'sig':>4}"
    for method in methods:
        header += f" | {method:^33}"
    lines.append(header)
    sub = f"{'':16} {'':>10} {'':>4}"
    for _ in methods:
        sub += f" | {'sig':>4} {'st':>5} {'area':>5} {'cpu':>7} {'paper':>7}"
    lines.append(sub)
    lines.append("-" * len(sub))
    for name, per_method in rows.items():
        info = BENCHMARKS[name]
        spec = next(iter(per_method.values()))
        states = f"{spec.initial_states} ({info.initial_states})"
        line = f"{name:16} {states:>10} {spec.initial_signals:>4}"
        for method in methods:
            row = per_method[method]
            paper = _PAPER_METHODS[method](info)
            if row.completed:
                line += (
                    f" | {_fmt(row.final_signals, 4)}"
                    f" {_fmt(row.final_states, 5)}"
                    f" {_fmt(row.area, 5)}"
                    f" {_fmt(row.cpu, 7, 2)}"
                )
            else:
                line += f" | {row.note:>23} {_fmt(row.cpu, 7, 2)}"
            if paper.completed:
                line += f" {_fmt(paper.area, 7)}"
            else:
                line += f" {paper.note[:7]:>7}"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--methods", default="modular,direct",
        help="comma-separated subset of modular,direct,lavagno",
    )
    parser.add_argument(
        "--names", default=None,
        help="comma-separated benchmark subset (default: all 23)",
    )
    parser.add_argument(
        "--no-minimize", action="store_true",
        help="skip two-level minimisation (omits the area columns)",
    )
    args = parser.parse_args(argv)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    unknown = set(methods) - set(_PAPER_METHODS)
    if unknown:
        parser.error(f"unknown methods: {sorted(unknown)}")
    if not methods:
        parser.error("--methods names no method")
    names = None
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
        missing = set(names) - set(BENCHMARKS)
        if missing:
            parser.error(f"unknown benchmarks: {sorted(missing)}")

    rows = table_rows(
        names=names, methods=methods, minimize=not args.no_minimize,
    )
    print(format_table(rows, methods))

    if not args.no_minimize and "modular" in methods:
        for baseline in ("direct", "lavagno"):
            if baseline in methods:
                delta = aggregate_area(rows, baseline_method=baseline)
                if delta is not None:
                    print(
                        f"\naverage area change of modular vs {baseline}: "
                        f"{delta * 100:+.1f}% "
                        f"(positive = modular smaller; paper reports "
                        f"{'+12%' if baseline == 'direct' else '+9%'})"
                    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
