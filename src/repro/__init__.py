"""Modular partitioning for asynchronous circuit synthesis.

Reproduction of Puri & Gu, *A Modular Partitioning Approach for Asynchronous
Circuit Synthesis*, DAC 1994.

The public API is re-exported here; see the subpackages for details:

* :mod:`repro.petrinet` -- Petri net kernel (places, transitions, markings,
  reachability).
* :mod:`repro.stg` -- signal transition graphs, including the ``.g`` astg
  file format.
* :mod:`repro.stategraph` -- state graphs with consistent state assignment
  and CSC conflict detection.
* :mod:`repro.sat` -- a DPLL branch-and-bound SAT solver.
* :mod:`repro.csc` -- the SAT-CSC encoding, the direct (Vanbekbergen-style)
  method and the paper's modular partitioning method.
* :mod:`repro.logic` -- two-level logic covers and an espresso-like
  minimizer used for the area (literal-count) results.
* :mod:`repro.verify` -- the one checker of a result: CSC, closed-loop
  conformance and hazard-freedom.
* :mod:`repro.baselines` -- the Lavagno/Moon-style state-table baseline.
* :mod:`repro.bench` -- the Table-1 benchmark suite and runner.
"""

from repro.petrinet import Marking, PetriNet
from repro.stg import (
    SignalTransitionGraph,
    SignalType,
    load_stg,
    parse_g,
    write_g,
)
from repro.stategraph import StateGraph, build_state_graph, csc_conflicts
from repro.csc import (
    DirectResult,
    ModularResult,
    direct_synthesis,
    modular_synthesis,
)
from repro.logic import Cover, Cube, espresso, literal_count
from repro.runtime.options import SynthesisOptions
from repro.verify import check_circuit, verify_result

__version__ = "1.0.0"


def synthesize(stg, method="modular", options=None):
    """Synthesise ``stg`` with one call: the recommended entry point.

    A thin facade over :func:`repro.runtime.run.run_synthesis`: hand it
    anything :func:`repro.stg.load.load_stg` accepts (a parsed STG, a
    ``.g`` file path, or raw ``.g`` text), pick a ``method``
    (``"modular"``, ``"direct"`` or ``"lavagno"``), tune it
    with a :class:`~repro.runtime.options.SynthesisOptions`, and get a
    :class:`~repro.runtime.report.RunReport` back -- ``report.result``
    holds the method's result object, ``report.status`` /
    ``report.exit_code`` the verdict, and no
    :class:`~repro.errors.ReproError` ever propagates.

    >>> report = repro.synthesize(stg, options=SynthesisOptions(
    ...     engine="hybrid", minimize=False))
    >>> report.status
    'ok'
    """
    from repro.runtime.run import run_synthesis

    return run_synthesis(stg, method=method, options=options)


__all__ = [
    "Cover",
    "Cube",
    "DirectResult",
    "Marking",
    "ModularResult",
    "PetriNet",
    "SignalTransitionGraph",
    "SignalType",
    "StateGraph",
    "SynthesisOptions",
    "build_state_graph",
    "check_circuit",
    "csc_conflicts",
    "direct_synthesis",
    "espresso",
    "literal_count",
    "load_stg",
    "modular_synthesis",
    "parse_g",
    "synthesize",
    "verify_result",
    "write_g",
    "__version__",
]
