"""Quickstart: synthesise an asynchronous controller from an STG.

The specification below is a classic minimal example of a complete state
coding violation: after ``b-`` the circuit is back at the all-zero code
it started from, yet this time it must raise ``c`` -- the code alone
cannot tell the two situations apart.  The modular partitioning method
finds the violation, inserts one state signal, and derives hazard-aware
two-level logic for every output.

Run with::

    python examples/quickstart.py
"""

from repro import load_stg, modular_synthesis
from repro.logic import equations

SPEC = """
.model quickstart
.inputs req
.outputs grant done
.graph
req+ grant+
grant+ req-
req- grant-
grant- done+
done+ done-
done- req+
.marking { <done-,req+> }
.end
"""


def main():
    stg = load_stg(SPEC)
    print(f"specification: {stg.name}")
    print(f"  inputs : {', '.join(stg.inputs)}")
    print(f"  outputs: {', '.join(stg.outputs)}")

    result = modular_synthesis(stg)

    print("\nsynthesis summary")
    print(f"  states : {result.initial_states} -> {result.final_states}")
    print(f"  signals: {result.initial_signals} -> {result.final_signals} "
          f"({result.state_signals} state signal(s) inserted)")
    print(f"  area   : {result.literals} literals")
    print(f"  time   : {result.seconds:.3f} s")

    print("\nper-output modules")
    for module in result.modules:
        if module.input_set is None:
            print(f"  {module.output}: no CSC conflict, no module needed")
            continue
        keep = ", ".join(module.input_set.kept_signals) or "(none)"
        print(f"  {module.output}: input set {{{keep}}}, "
              f"{module.num_macro_states} modular states, "
              f"{module.signals_added} signal(s) added")

    print("\nnext-state equations")
    for line in equations(result.covers, result.expanded.signals):
        print(f"  {line}")


if __name__ == "__main__":
    main()
