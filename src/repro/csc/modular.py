"""Modular state graph generation and constraint satisfaction (Figure 4).

Given an output's input signal set, derive the modular state graph Σ_o by
merging away every other signal's transitions, carry the already-inserted
state signals over with Figure 3's merge rules, and solve a (small)
SAT-CSC instance for the new state signals this output needs.
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.errors import SynthesisError
from repro.csc.solve import DEFAULT_MAX_SIGNALS, solve_state_signals
from repro.stategraph.quotient import quotient


class PartitionResult:
    """Outcome of :func:`partition_sat` for one output.

    Attributes
    ----------
    output:
        The output this module belongs to.
    quotient:
        The :class:`~repro.stategraph.quotient.QuotientGraph` whose macro
        graph is the modular state graph Σ_o.
    macro_assignment:
        Values of the *new* state signals on the macro states.
    outcome:
        The :class:`~repro.csc.solve.SolveOutcome` (formula sizes, solver
        statistics, number of signals).
    """

    def __init__(self, output, quotient_graph, macro_assignment, outcome):
        self.output = output
        self.quotient = quotient_graph
        self.macro_assignment = macro_assignment
        self.outcome = outcome

    @property
    def num_macro_states(self):
        return self.quotient.graph.num_states

    @property
    def signals_added(self):
        return self.macro_assignment.num_signals

    def __repr__(self):
        return (
            f"PartitionResult({self.output!r}, "
            f"macro_states={self.num_macro_states}, "
            f"signals_added={self.signals_added})"
        )


#: Signal cap for non-final fallback attempts; keeps doomed projections
#: from burning time before a less aggressive one is tried.
_FALLBACK_SIGNAL_CAP = 4


def partition_sat(graph, output, input_set, existing, limits=None,
                  max_signals=DEFAULT_MAX_SIGNALS, name_start=0,
                  signal_prefix="csc", engine="hybrid", budget=None,
                  fallback=False, cache=None, sat_mode="incremental"):
    """Solve the CSC constraints of one output on its modular graph.

    The greedy input-set derivation only guarantees the conflict count
    does not grow; occasionally the projection it picks is *unsolvable*
    (hiding a mode signal can merge two structurally identical phases so
    tightly that no stable separation exists).  When that happens the
    most recently hidden signal is restored and the module re-solved --
    degenerating, in the worst case, to the whole graph restricted to
    this output's conflicts.  This fallback is a documented deviation
    from the paper (DESIGN.md §5).

    Parameters
    ----------
    graph:
        The complete state graph Σ.
    output:
        The output signal being processed.
    input_set:
        The :class:`~repro.csc.input_set.InputSetResult` for this output.
    existing:
        State-signal :class:`~repro.csc.assignment.Assignment` over Σ.
    limits:
        SAT budget per formula.
    name_start:
        Index from which new state signals are numbered (state signal
        names are global across the synthesis run).
    budget / fallback / sat_mode:
        Optional run-wide :class:`~repro.runtime.budget.Budget`, the
        engine-fallback ladder switch and the incremental/one-shot SAT
        mode, all forwarded to the solve loop.
    cache:
        Optional :class:`~repro.perf.ProjectionCache` over ``graph``.
        The input-set derivation already projected every prefix of
        ``removal_order``, so with the run's shared cache both the
        initial projection and every un-hiding fallback step are hits.

    Returns
    -------
    PartitionResult
    """
    hidden = list(input_set.removal_order)
    last_error = None
    while True:
        if budget is not None:
            budget.checkpoint(f"module:{output}")
        with obs.span("project", output=output) as project_span:
            if cache is not None:
                q = cache.project(hidden)
            else:
                q = quotient(graph, hidden)
            project_span.add("macro_states", q.graph.num_states)
        restricted = existing.restricted(input_set.kept_state_signals)
        merged = restricted.merged_over(q.blocks)
        if merged is None:
            raise SynthesisError(
                f"state-signal values do not merge over the modular graph "
                f"of {output!r}; the input set derivation should have "
                "prevented this"
            )
        cap = max_signals if not hidden else min(
            max_signals, _FALLBACK_SIGNAL_CAP
        )
        try:
            outcome = solve_state_signals(
                q,
                outputs=[output],
                extra_codes=merged.cur_bits(),
                limits=limits,
                max_signals=cap,
                engine=engine,
                on_limit="skip",
                budget=budget,
                fallback=fallback,
                sat_mode=sat_mode,
            )
        except SynthesisError as exc:
            if not hidden:
                raise
            last_error = exc
            hidden.pop()  # restore the most recently hidden signal
            continue
        names = [
            f"{signal_prefix}{name_start + k}" for k in range(outcome.m)
        ]
        macro_assignment = Assignment(names, outcome.rows)
        result = PartitionResult(output, q, macro_assignment, outcome)
        result.fallback_unhidden = sorted(
            set(input_set.removal_order) - set(hidden)
        )
        result.fallback_error = last_error
        return result
