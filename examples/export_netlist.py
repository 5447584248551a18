"""Synthesise a benchmark and export the circuit as a BLIF netlist.

BLIF is what the SIS flow the paper built on consumed; the emitted file
feeds straight into classic technology mapping or modern readers (ABC,
Yosys).  The netlist includes the inserted state signals as ordinary
feedback gates.

Usage::

    python examples/export_netlist.py [benchmark] [output.blif]
"""

import sys

from repro.bench import BENCHMARKS, load_benchmark
from repro.csc import modular_synthesis
from repro.logic import write_synthesis_blif
from repro.stategraph import build_state_graph
from repro.verify import verify_result


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "nak-pa"
    out = sys.argv[2] if len(sys.argv) > 2 else f"{name}.blif"
    if name not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark {name!r}")

    stg = load_benchmark(name)
    graph = build_state_graph(stg)
    result = modular_synthesis(graph)

    report = verify_result(result, stg, level="hazards")
    if not report.ok:
        raise SystemExit(
            f"refusing to export an unverified circuit: "
            f"{report.violations[:3]}"
        )

    text = write_synthesis_blif(result, stg.inputs, model=name)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{name}: {result.final_signals} signals, "
          f"{result.literals} literals, conformance verified, hazard-free")
    print(f"wrote {out} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
