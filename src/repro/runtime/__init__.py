"""Run budgets, fault injection, and graceful degradation.

The synthesis layers (:mod:`repro.csc`, :mod:`repro.stategraph`,
:mod:`repro.sat`) each bound their own work; this package owns what none
of them can see alone: the **whole run**.

* :mod:`repro.runtime.budget` -- a :class:`Budget` (wall-clock deadline,
  state cap, pooled SAT backtracks) threaded through the pipeline with
  cooperative checkpoints.
* :mod:`repro.runtime.faults` -- deterministic fault injection at named
  points, so every degradation path is testable without pathological
  inputs.
* :mod:`repro.runtime.report` -- :class:`RunReport` with per-module
  ``ok | degraded | skipped`` statuses and the CLI exit-code mapping.
* :mod:`repro.runtime.supervise` -- :class:`RetryPolicy` and
  :class:`WorkerCrashError`, the deterministic respawn/backoff policy of
  the service's worker pool.
* :mod:`repro.runtime.run` -- :func:`run_synthesis`, the budgeted
  orchestrator the command line drives.

Import discipline: the low-level packages import the leaf modules
(:mod:`~repro.runtime.faults`, :mod:`~repro.runtime.budget`) at module
load, so this ``__init__`` must not eagerly import anything that imports
them back.  :func:`run_synthesis` is therefore loaded lazily (PEP 562).
"""

from repro.errors import ReproError
from repro.runtime.budget import Budget, BudgetExhaustedError
from repro.runtime.options import OPTION_FIELDS, SynthesisOptions, coerce_options
from repro.runtime.report import (
    EXIT_CODES,
    MODULE_DEGRADED,
    MODULE_OK,
    MODULE_SKIPPED,
    RUN_DEGRADED,
    RUN_ERROR,
    RUN_OK,
    RUN_TIMEOUT,
    ModuleStatus,
    RunReport,
)
from repro.runtime.supervise import RetryPolicy, WorkerCrashError
from repro.runtime import faults

__all__ = [
    "Budget",
    "BudgetExhaustedError",
    "RetryPolicy",
    "WorkerCrashError",
    "EXIT_CODES",
    "OPTION_FIELDS",
    "SynthesisOptions",
    "coerce_options",
    "MODULE_DEGRADED",
    "MODULE_OK",
    "MODULE_SKIPPED",
    "ModuleStatus",
    "ReproError",
    "RUN_DEGRADED",
    "RUN_ERROR",
    "RUN_OK",
    "RUN_TIMEOUT",
    "RunReport",
    "faults",
    "run_synthesis",
]

# repro.runtime.options is a leaf like budget/report: the synthesis
# layers import SynthesisOptions at load time, so it must not import
# them back (and does not).


def __getattr__(name):
    # Lazy: run.py imports the csc/stategraph layers, which import the
    # leaf modules above at load time -- an eager import here would cycle.
    if name == "run_synthesis":
        from repro.runtime.run import run_synthesis

        return run_synthesis
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
