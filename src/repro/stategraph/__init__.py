"""State graphs with consistent state assignment.

The state graph is the finite automaton of all reachable STG markings,
each carrying a binary code over the STG signals (paper, Section 2).  This
package builds state graphs from STGs (:mod:`repro.stategraph.build`),
detects USC/CSC conflicts and computes state-signal lower bounds
(:mod:`repro.stategraph.csc`), and implements the ε-merging quotient that
produces the paper's modular state graphs
(:mod:`repro.stategraph.quotient`).
"""

from repro.stategraph.graph import EPSILON, StateGraph
from repro.stategraph.build import (
    InconsistentStgError,
    build_state_graph,
    infer_signal_values,
)
from repro.stategraph.csc import (
    code_classes,
    conflicted_outputs,
    csc_conflicts,
    csc_conflicts_and_bound,
    csc_lower_bound,
    max_csc,
    paper_lower_bound,
    usc_pairs,
)
from repro.stategraph.quotient import QuotientGraph, quotient, refine
from repro.stategraph.view import StateGraphView

__all__ = [
    "EPSILON",
    "InconsistentStgError",
    "QuotientGraph",
    "StateGraph",
    "StateGraphView",
    "build_state_graph",
    "code_classes",
    "conflicted_outputs",
    "csc_conflicts",
    "csc_conflicts_and_bound",
    "csc_lower_bound",
    "infer_signal_values",
    "max_csc",
    "paper_lower_bound",
    "quotient",
    "refine",
    "usc_pairs",
]
