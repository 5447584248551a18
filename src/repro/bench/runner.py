"""Benchmark runners: one Table-1 row per method per benchmark."""

from __future__ import annotations

from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.csc.direct import direct_synthesis
from repro.csc.errors import BacktrackLimitError
from repro.csc.synthesis import modular_synthesis
from repro.obs import Stopwatch
from repro.runtime.options import SynthesisOptions
from repro.sat.solver import Limits
from repro.stategraph.build import build_state_graph

#: Default direct-method budget standing in for the paper's backtrack
#: limit / 3600 s abort.
DEFAULT_DIRECT_LIMITS = Limits(max_backtracks=200_000, max_seconds=120.0)


class MethodRow:
    """Measured results of one method on one benchmark.

    Mirrors a Table-1 cell group: final states/signals, two-level area,
    CPU time, or an abort note.
    """

    def __init__(self, benchmark, method, initial_states, initial_signals,
                 final_states=None, final_signals=None, area=None,
                 cpu=None, note=None, formula_sizes=()):
        self.benchmark = benchmark
        self.method = method
        self.initial_states = initial_states
        self.initial_signals = initial_signals
        self.final_states = final_states
        self.final_signals = final_signals
        self.area = area
        self.cpu = cpu
        self.note = note
        self.formula_sizes = list(formula_sizes)

    @property
    def completed(self):
        return self.note is None

    def __repr__(self):
        if not self.completed:
            return (
                f"MethodRow({self.benchmark!r}, {self.method!r}, "
                f"note={self.note!r})"
            )
        return (
            f"MethodRow({self.benchmark!r}, {self.method!r}, "
            f"states={self.final_states}, signals={self.final_signals}, "
            f"area={self.area}, cpu={self.cpu:.2f}s)"
        )


def _graph(name, graph=None):
    """``graph``, or benchmark ``name``'s state graph when none is passed."""
    return build_state_graph(load_benchmark(name)) if graph is None else graph


def run_modular(name, minimize=True, graph=None):
    """Run the paper's method on one benchmark."""
    graph = _graph(name, graph)
    result = modular_synthesis(
        graph, options=SynthesisOptions(minimize=minimize)
    )
    return MethodRow(
        name, "modular",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
        formula_sizes=result.formula_sizes(),
    )


def run_direct(name, limits=None, minimize=True, graph=None,
               engine="hybrid"):
    """Run the Vanbekbergen-style direct method on one benchmark.

    Hitting the backtrack/time budget produces a row with
    ``note="backtrack-limit"`` instead of raising, mirroring the paper's
    aborted entries.
    """
    graph = _graph(name, graph)
    limits = DEFAULT_DIRECT_LIMITS if limits is None else limits
    watch = Stopwatch()
    try:
        result = direct_synthesis(graph, options=SynthesisOptions(
            limits=limits, minimize=minimize, engine=engine,
        ))
    except BacktrackLimitError:
        return MethodRow(
            name, "direct",
            initial_states=graph.num_states,
            initial_signals=len(graph.signals),
            cpu=watch.elapsed(),
            note="backtrack-limit",
        )
    sizes = [
        (attempt.num_clauses, attempt.num_vars)
        for attempt in result.attempts
    ]
    return MethodRow(
        name, "direct",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
        formula_sizes=sizes,
    )


def run_lavagno(name, minimize=True, graph=None):
    """Run the Lavagno/Moon-style state-table baseline."""
    from repro.baselines.lavagno import lavagno_synthesis

    graph = _graph(name, graph)
    result = lavagno_synthesis(
        graph, options=SynthesisOptions(minimize=minimize)
    )
    return MethodRow(
        name, "lavagno",
        initial_states=graph.num_states,
        initial_signals=len(graph.signals),
        final_states=result.final_states,
        final_signals=result.final_signals,
        area=result.literals,
        cpu=result.seconds,
    )


def _method_rows(name, graph, methods, minimize, direct_limits):
    """All requested methods on one benchmark (shared state graph)."""
    runners = {
        "modular": lambda: run_modular(
            name, minimize=minimize, graph=graph
        ),
        "direct": lambda: run_direct(
            name, limits=direct_limits, minimize=minimize, graph=graph
        ),
        "lavagno": lambda: run_lavagno(
            name, minimize=minimize, graph=graph
        ),
    }
    return {method: runners[method]() for method in methods}


def table_rows(names=None, methods=("modular", "direct", "lavagno"),
               minimize=True, direct_limits=None):
    """Run the selected methods over the suite.

    Returns ``{name: {method: MethodRow}}`` in suite order.
    """
    names = list(BENCHMARKS) if names is None else list(names)
    rows = {}
    for name in names:
        rows[name] = _method_rows(name, _graph(name), methods, minimize,
                                  direct_limits)
    return rows


def aggregate_area(rows, baseline_method, reference_method="modular"):
    """Average relative area change of ``reference`` vs ``baseline``.

    Returns the mean of ``(baseline - reference) / baseline`` over the
    benchmarks where both completed: positive numbers mean the reference
    method (the paper's) produced smaller covers.
    """
    ratios = []
    for per_method in rows.values():
        reference = per_method.get(reference_method)
        baseline = per_method.get(baseline_method)
        if (
            reference is not None and baseline is not None
            and reference.completed and baseline.completed
            and baseline.area
        ):
            ratios.append((baseline.area - reference.area) / baseline.area)
    if not ratios:
        return None
    return sum(ratios) / len(ratios)
