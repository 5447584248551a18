"""Ablation benches for the design choices DESIGN.md calls out.

* SAT engine: paper-era chronological DPLL vs modern CDCL vs the default
  hybrid vs the follow-up paper's area-optimising BDD engine, for both
  methods.
* Assignment polishing: area with and without the excitation-shrinking
  post-pass.
* Output processing order: smallest-module-first heuristic vs naive
  alphabetical order.
* Implementation style: single complex gate per signal vs generalised
  C-element (SET/RESET networks).
"""

import pytest

from benchmarks.conftest import run_once
from repro.csc.direct import direct_synthesis
from repro.csc.errors import BacktrackLimitError, SynthesisError
from repro.csc.synthesis import modular_synthesis
from repro.sat.solver import Limits
from repro.runtime.options import SynthesisOptions

ENGINES = ["dpll", "cdcl", "hybrid", "bdd"]
MEDIUM = "mmu1"
LARGE = "mmu0"

ABLATION_LIMITS = Limits(max_backtracks=100_000, max_seconds=10.0)


@pytest.mark.parametrize("engine", ENGINES)
def test_modular_engine(benchmark, state_graphs, engine):
    graph = state_graphs(LARGE)

    def flow():
        try:
            return modular_synthesis(
                graph,
                options=SynthesisOptions(minimize=False, engine=engine),
            )
        except SynthesisError as exc:
            # The paper-era chronological solver can fail to decide the
            # harder modular instances within budget -- itself a finding.
            return exc

    result = run_once(benchmark, flow)
    failed = isinstance(result, SynthesisError)
    benchmark.extra_info.update(
        {
            "engine": engine,
            "failed": failed,
            "final_signals": None if failed else result.final_signals,
        }
    )
    if engine != "dpll":
        assert not failed


@pytest.mark.parametrize("engine", ENGINES)
def test_direct_engine(benchmark, state_graphs, engine):
    graph = state_graphs(LARGE)

    def flow():
        try:
            return direct_synthesis(
                graph,
                options=SynthesisOptions(
                    limits=ABLATION_LIMITS, minimize=False, engine=engine
                ),
            )
        except BacktrackLimitError as exc:
            return exc

    result = run_once(benchmark, flow)
    benchmark.extra_info.update(
        {
            "engine": engine,
            "aborted": isinstance(result, BacktrackLimitError),
        }
    )


@pytest.mark.parametrize("polish", [False, True], ids=["raw", "polished"])
def test_polish_ablation(benchmark, state_graphs, polish):
    graph = state_graphs(MEDIUM)
    result = run_once(
        benchmark, modular_synthesis, graph,
        options=SynthesisOptions(polish=polish),
    )
    benchmark.extra_info.update(
        {
            "polish": polish,
            "final_states": result.final_states,
            "area_literals": result.literals,
        }
    )
    assert result.literals > 0


@pytest.mark.parametrize(
    "style", ["complex-gate", "c-element"]
)
def test_implementation_style(benchmark, state_graphs, style):
    from repro.logic.celement import synthesize_celements
    from repro.logic.extract import synthesize_logic

    graph = state_graphs(MEDIUM)
    result = modular_synthesis(
        graph, options=SynthesisOptions(minimize=False)
    )

    def realise():
        if style == "complex-gate":
            _covers, literals = synthesize_logic(result.expanded)
        else:
            _impls, literals = synthesize_celements(result.expanded)
        return literals

    literals = run_once(benchmark, realise)
    benchmark.extra_info.update({"style": style, "literals": literals})
    assert literals > 0


@pytest.mark.parametrize(
    "order", ["heuristic", "alphabetical"], ids=["heuristic", "alpha"]
)
def test_output_order_ablation(benchmark, state_graphs, order):
    graph = state_graphs(MEDIUM)
    explicit = sorted(graph.non_inputs) if order == "alphabetical" else None
    result = run_once(
        benchmark, modular_synthesis, graph,
        options=SynthesisOptions(minimize=False, output_order=explicit),
    )
    benchmark.extra_info.update(
        {"order": order, "final_signals": result.final_signals}
    )
    assert result.state_signals >= 1
