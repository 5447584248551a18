"""Design a custom asynchronous DMA-grant controller from scratch.

This walks the whole API surface a designer would touch:

1. build the STG with the phase-cycle generator (a request forks two
   concurrent engine handshakes, a done pulse closes the cycle);
2. validate the specification (1-safe, consistent, live);
3. inspect the state graph and its CSC conflicts;
4. synthesise with the modular method;
5. verify the circuit: complete state coding, closed-loop conformance
   and hazard-freedom (excitation persistency) in one checker pass.

Run with::

    python examples/custom_controller.py
"""

from repro.bench.generators import Par, build_g
from repro.csc import modular_synthesis
from repro.logic import equations
from repro.stategraph import build_state_graph, csc_conflicts
from repro.stg import load_stg, validate_stg
from repro.verify import verify_result


def design_stg():
    """A DMA-grant controller: req forks two engines, done acknowledges."""
    text = build_g(
        "dma-grant",
        inputs=["req", "e1", "e2"],
        outputs=["g1", "g2", "done"],
        cycle=[
            "req+",
            Par(["g1+", "e1+"], ["g2+", "e2+"]),
            "done+",
            "req-",
            Par(["g1-", "e1-"], ["g2-", "e2-"]),
            "done-",
        ],
    )
    print("generated .g specification:\n")
    print(text)
    return load_stg(text)


def main():
    stg = design_stg()
    validate_stg(stg, require_live=True)
    print("validation: 1-safe, consistent, live\n")

    graph = build_state_graph(stg)
    conflicts = csc_conflicts(graph)
    print(f"state graph: {graph.num_states} states, "
          f"{graph.num_edges} edges")
    print(f"CSC conflicts: {len(conflicts)} pair(s)")
    for a, b in conflicts:
        print(f"  states {a} and {b} share code "
              f"{''.join(map(str, graph.code_of(a)))} but excite "
              f"{dict(graph.excitation(a))} vs {dict(graph.excitation(b))}")

    result = modular_synthesis(graph)
    print(f"\nsynthesised with {result.state_signals} state signal(s); "
          f"{result.literals} literals\n")
    for line in equations(result.covers, result.expanded.signals):
        print(f"  {line}")

    report = verify_result(result, stg, level="hazards")
    print(f"\nverification ({', '.join(report.checks)}): "
          f"verdict={report.verdict} "
          f"({report.states_explored} closed-loop states explored)")
    for cex in report.violations:
        print(f"  {cex.kind} after {' '.join(cex.trace) or 'reset'}: "
              f"{cex.detail}")
    if report.ok:
        print("  the circuit conforms and is hazard-free")


if __name__ == "__main__":
    main()
