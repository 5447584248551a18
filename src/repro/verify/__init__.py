"""Gate-level verification of synthesised circuits.

The synthesis flow ends with two-level covers; this package closes the
loop: it builds a gate-level circuit model from the covers
(:mod:`repro.verify.circuit`) and model-checks it against the STG's
state graph acting as the environment -- the "circuit verification
process" the paper argues partitioning simplifies (Section 3.1).

:mod:`repro.verify.checker` is the one checker: every verdict on
whether a result is CSC-clean, conformant or hazard-free comes from
:func:`~repro.verify.checker.verify_result` (a synthesis result) or
:func:`~repro.verify.checker.check_circuit` (any gate netlist).  Its
levels build on each other: ``csc`` re-checks complete state coding on
the expanded graph; ``conformance`` explores every interleaving of
circuit and environment under the speed-independent (unbounded gate
delay) model and reports unexpected outputs, missing outputs and
deadlocks; ``hazards`` adds excitation persistency, the
semi-modularity condition, reporting output hazards and
semi-modularity violations of inserted state signals apart.  Each
violation carries a minimal, replayable counterexample trace.
:mod:`repro.verify.mutate` seeds circuit mutants (flipped cube
literals, dropped cover terms, swapped reset values) that the negative
test suite uses to prove the checker actually catches broken circuits.
"""

from repro.verify.checker import (
    CEX_KINDS,
    VERIFY_LEVELS,
    ClosedLoop,
    Counterexample,
    TraceReplayError,
    VerifyReport,
    check_circuit,
    replay_counterexample,
    replay_trace,
    reset_vector,
    verify_result,
)
from repro.verify.circuit import Circuit
from repro.verify.mutate import (
    MUTATION_KINDS,
    Mutant,
    mutant_circuit,
    mutate_result,
    observable_check,
)

__all__ = [
    "CEX_KINDS",
    "Circuit",
    "ClosedLoop",
    "Counterexample",
    "MUTATION_KINDS",
    "Mutant",
    "TraceReplayError",
    "VERIFY_LEVELS",
    "VerifyReport",
    "check_circuit",
    "mutant_circuit",
    "mutate_result",
    "observable_check",
    "replay_counterexample",
    "replay_trace",
    "reset_vector",
    "verify_result",
]
