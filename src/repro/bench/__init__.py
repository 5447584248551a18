"""The Table-1 benchmark suite and its runners.

The paper evaluates on the classic SIS/HP asynchronous STG benchmarks.
Those files are not redistributable, so this package re-creates the suite
(see DESIGN.md §4): hand-specified handshake controllers for the small
benchmarks and parametric master-read/MMU-style generators for the large
ones, all sized to the paper's "Specifications" columns.

* :mod:`repro.bench.generators` -- the phase-cycle STG builder and the
  scaling family.
* :mod:`repro.bench.specs` -- the 23 benchmark definitions.
* :mod:`repro.bench.suite` -- registry, paper numbers, ``.g`` loading.
* :mod:`repro.bench.runner` -- per-benchmark method runs and Table-1 rows.
* :mod:`repro.bench.table1` -- the command-line table printer.
"""

from repro.bench.suite import (
    BENCHMARKS,
    BenchmarkInfo,
    benchmark_names,
    load_benchmark,
)
from repro.bench.runner import (
    MethodRow,
    run_direct,
    run_lavagno,
    run_modular,
    table_rows,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkInfo",
    "MethodRow",
    "benchmark_names",
    "load_benchmark",
    "run_direct",
    "run_lavagno",
    "run_modular",
    "table_rows",
]
