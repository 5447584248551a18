"""Developer tool: collect every EXPERIMENTS.md measurement in one run.

Writes ``tools/experiments.json`` with, per benchmark: the modular,
direct (dpll, paper-era limits) and lavagno rows, plus the clause-size
study and the aggregate area deltas.
"""

import json
import time

from repro.bench.runner import (
    aggregate_area,
    run_direct,
    run_lavagno,
    run_modular,
)
from repro.bench.suite import BENCHMARKS, load_benchmark
from repro.csc.sat_csc import build_csc_formula
from repro.csc.synthesis import modular_synthesis
from repro.runtime.options import SynthesisOptions
from repro.sat.solver import Limits
from repro.stategraph.build import build_state_graph
from repro.stategraph.csc import csc_lower_bound

DIRECT_LIMITS = Limits(max_backtracks=150_000, max_seconds=30.0)
LAVAGNO_LIMITS = Limits(max_backtracks=100_000, max_seconds=10.0)


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
