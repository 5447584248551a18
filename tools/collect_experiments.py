"""Developer tool: collect every EXPERIMENTS.md measurement in one run.

Usage::

    PYTHONPATH=src python tools/collect_experiments.py

Writes ``tools/experiments.json`` with, per benchmark: the modular,
direct (dpll, paper-era limits) and lavagno rows, plus the clause-size
study, the aggregate area deltas, the ablations (SAT engine on mmu0 for
both methods, polish pass, output order), the scaling sweep over
:func:`repro.bench.generators.scaling_family` and the BDD-engine area
comparison.  Every number in EXPERIMENTS.md comes from this file.
"""

import json
import time

from repro.bench.generators import scaling_family
from repro.bench.runner import (
    aggregate_area,
    run_direct,
    run_lavagno,
    run_modular,
)
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.csc.direct import direct_synthesis
from repro.csc.errors import BacktrackLimitError, SynthesisError
from repro.csc.sat_csc import build_csc_formula
from repro.csc.synthesis import modular_synthesis
from repro.obs import Stopwatch
from repro.runtime.options import SynthesisOptions
from repro.sat.solver import Limits
from repro.stategraph.build import build_state_graph
from repro.stategraph.csc import csc_lower_bound
from repro.stg import parse_g

DIRECT_LIMITS = Limits(max_backtracks=150_000, max_seconds=30.0)

#: Direct-method budget of the engine ablation.
ABLATION_LIMITS = Limits(max_backtracks=100_000, max_seconds=10.0)

#: Direct-method budget of the scaling sweep (paper-era dpll engine).
SCALING_LIMITS = Limits(max_backtracks=60_000, max_seconds=10.0)

ENGINES = ("dpll", "cdcl", "hybrid", "bdd")


def method_dict(row):
    if not row.completed:
        return {"note": row.note, "cpu": round(row.cpu, 2)}
    return {
        "final_states": row.final_states,
        "final_signals": row.final_signals,
        "area": row.area,
        "cpu": round(row.cpu, 3),
    }


def clause_study(names=("mr0", "mr1", "mmu0")):
    """Direct vs largest modular formula size, per benchmark.

    The direct formula is built at the CSC lower bound; the modular
    sizes are every formula the (unminimised) modular run solved.
    """
    study = {}
    for name in names:
        graph = build_state_graph(load_benchmark(name))
        m = max(1, int(csc_lower_bound(graph)))
        direct_formula = build_csc_formula(graph, m)
        result = modular_synthesis(
            graph, options=SynthesisOptions(minimize=False)
        )
        sizes = result.formula_sizes()
        largest = max(c for c, _v in sizes)
        study[name] = {
            "direct_clauses": direct_formula.num_clauses,
            "direct_vars": direct_formula.num_vars,
            "modular_sizes": sizes,
            "ratio": round(direct_formula.num_clauses / largest, 1),
        }
    return study


def _timed(synthesise, graph, options, failure=()):
    """``(result, seconds)``; ``result`` is ``None`` when ``failure`` hit."""
    watch = Stopwatch()
    try:
        result = synthesise(graph, options=options)
    except failure:
        result = None
    return result, round(watch.elapsed(), 3)


def engine_ablation(name="mmu0"):
    """Both methods under every SAT engine, no minimisation."""
    graph = build_state_graph(load_benchmark(name))
    study = {"benchmark": name, "modular": {}, "direct": {}}
    for engine in ENGINES:
        # The paper-era chronological solver may fail a modular
        # instance within budget; that is itself a finding.
        result, seconds = _timed(
            modular_synthesis, graph,
            SynthesisOptions(minimize=False, engine=engine),
            SynthesisError,
        )
        study["modular"][engine] = {
            "seconds": seconds,
            "final_signals": result and result.final_signals,
        }
        result, seconds = _timed(
            direct_synthesis, graph,
            SynthesisOptions(limits=ABLATION_LIMITS, minimize=False,
                             engine=engine),
            BacktrackLimitError,
        )
        study["direct"][engine] = {
            "seconds": seconds, "aborted": result is None,
        }
    return study


def polish_ablation(names=("mmu1", "mmu0")):
    """Final states and literals with and without the polish pass."""
    study = {}
    for name in names:
        graph = build_state_graph(load_benchmark(name))
        study[name] = {}
        for polish in (True, False):
            result = modular_synthesis(
                graph, options=SynthesisOptions(polish=polish)
            )
            study[name]["polished" if polish else "raw"] = {
                "final_states": result.final_states,
                "area": result.literals,
            }
    return study


def order_ablation(name="mmu1"):
    """Smallest-module-first output order against alphabetical order."""
    graph = build_state_graph(load_benchmark(name))
    orders = {"heuristic": None, "alphabetical": sorted(graph.non_inputs)}
    study = {"benchmark": name}
    for label, order in orders.items():
        result = modular_synthesis(graph, options=SynthesisOptions(
            minimize=False, output_order=order,
        ))
        study[label] = {
            "final_signals": result.final_signals,
            "state_signals": result.state_signals,
        }
    return study


def scaling_sweep(widths=(1, 2, 3)):
    """Modular vs paper-era direct over the scaling family."""
    study = {}
    for width in widths:
        graph = build_state_graph(parse_g(scaling_family(width)))
        modular, modular_seconds = _timed(
            modular_synthesis, graph, SynthesisOptions(minimize=False)
        )
        direct, direct_seconds = _timed(
            direct_synthesis, graph,
            SynthesisOptions(limits=SCALING_LIMITS, minimize=False,
                             engine="dpll"),
            BacktrackLimitError,
        )
        study[str(width)] = {
            "states": graph.num_states,
            "modular": {"seconds": modular_seconds,
                        "final_signals": modular.final_signals},
            "direct": {"seconds": direct_seconds,
                       "aborted": direct is None},
        }
    return study


def bdd_area(default_areas):
    """Modular areas under the BDD engine against the default engine."""
    rows = {}
    tally = {"smaller": 0, "equal": 0, "larger": 0}
    for name in BENCHMARKS:
        graph = build_state_graph(load_benchmark(name))
        result = modular_synthesis(
            graph, options=SynthesisOptions(engine="bdd")
        )
        default = default_areas[name]
        rows[name] = {"bdd": result.literals, "default": default}
        if result.literals < default:
            tally["smaller"] += 1
        elif result.literals == default:
            tally["equal"] += 1
        else:
            tally["larger"] += 1
    return {"rows": rows, **tally}


def main():
    started = time.time()
    data = {"benchmarks": {}, "clause_study": {}, "area": {}}
    rows_for_area = {}
    for name in BENCHMARKS:
        print(name, flush=True)
        graph = build_state_graph(load_benchmark(name))
        entry = {
            "initial_states": graph.num_states,
            "initial_signals": len(graph.signals),
        }
        modular = run_modular(name, graph=graph)
        entry["modular"] = method_dict(modular)
        direct = run_direct(
            name, graph=graph, limits=DIRECT_LIMITS, engine="dpll"
        )
        entry["direct"] = method_dict(direct)
        lavagno = run_lavagno(name, graph=graph)
        entry["lavagno"] = method_dict(lavagno)
        data["benchmarks"][name] = entry
        rows_for_area[name] = {
            "modular": modular, "direct": direct, "lavagno": lavagno,
        }

    data["clause_study"] = clause_study()
    data["engine_ablation"] = engine_ablation()
    data["polish_ablation"] = polish_ablation()
    data["order_ablation"] = order_ablation()
    data["scaling"] = scaling_sweep()
    data["bdd_area"] = bdd_area({
        name: row["modular"].area for name, row in rows_for_area.items()
    })

    for baseline in ("direct", "lavagno"):
        delta = aggregate_area(rows_for_area, baseline_method=baseline)
        data["area"][f"vs_{baseline}"] = (
            None if delta is None else round(delta * 100, 1)
        )

    data["total_seconds"] = round(time.time() - started, 1)
    with open("tools/experiments.json", "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
    print(f"wrote tools/experiments.json in {data['total_seconds']}s")


if __name__ == "__main__":
    main()
