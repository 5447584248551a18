"""A run-wide resource budget shared by every stage of the pipeline.

The per-solve :class:`~repro.sat.solver.Limits` budget bounds one SAT
call; nothing bounded the *run* -- state-graph construction, the quotient
per output, the grow-``m`` loops, the repair rounds -- so a single hard
instance could still hang the driver.  :class:`Budget` is the global
counterpart: one wall-clock deadline, one state cap, and one pooled SAT
backtrack allowance, passed down through the pipeline and consulted at
cooperative checkpoints.

Design rules:

* **Checkpoints are cheap.**  ``checkpoint()`` is a clock read and a
  comparison; call sites sprinkle it at loop granularity (every few
  hundred markings, once per SAT attempt, once per output module).
* **Sub-budgets are clipped, not allocated.**  ``sub_limits()`` returns a
  :class:`Limits` whose seconds and backtracks never exceed what is left
  globally, so a solve started near the deadline stops at the deadline,
  not at its own nominal budget.
* **Exhaustion is an exception.**  :class:`BudgetExhaustedError` derives
  from :class:`~repro.errors.ReproError`; the orchestrator catches it and
  turns partial progress into a ``timeout`` :class:`RunReport` instead of
  a crash.
"""

from __future__ import annotations

import time

from repro.errors import ReproError
from repro.obs import add as _obs_add


class BudgetExhaustedError(ReproError):
    """A global budget ran out mid-run.

    ``resource`` names the exhausted dimension (``"wall-clock"``,
    ``"states"`` or ``"backtracks"``); ``point`` the checkpoint that
    noticed.  The synthesis layers may attach a partial
    :class:`~repro.runtime.report.RunReport` as ``report``.
    """

    kind = "timeout"

    def __init__(self, message, resource=None, point=None):
        super().__init__(message, resource=resource, point=point)
        self.resource = resource
        self.point = point
        self.report = None


class Budget:
    """Run-wide budget: deadline, state cap, backtrack pool.

    Parameters
    ----------
    max_seconds:
        Wall-clock allowance for the whole run (``None`` = unlimited).
        The deadline starts counting at construction.
    max_states:
        Cap on the number of states/markings any single graph
        construction may generate.
    max_backtracks:
        Total SAT backtrack pool shared by every solve in the run.
    clock:
        Injectable time source (tests pass a fake to make deadlines
        deterministic).
    """

    def __init__(self, max_seconds=None, max_states=None,
                 max_backtracks=None, clock=time.perf_counter):
        self.max_seconds = max_seconds
        self.max_states = max_states
        self.max_backtracks = max_backtracks
        self._clock = clock
        self.started = clock()
        self.backtracks_used = 0
        self.checkpoints = 0
        #: Checkpoint name that exhausted the budget, when one did.
        self.exhausted_at = None

    @classmethod
    def unlimited(cls):
        """A budget that never exhausts (the default for library calls)."""
        return cls()

    # -- wall clock --------------------------------------------------------

    def elapsed(self):
        return self._clock() - self.started

    def remaining_seconds(self):
        """Seconds left before the deadline; ``None`` when unlimited."""
        if self.max_seconds is None:
            return None
        return self.max_seconds - self.elapsed()

    def expired(self):
        remaining = self.remaining_seconds()
        return remaining is not None and remaining <= 0

    def checkpoint(self, point=""):
        """Cooperative deadline check; raises when the budget is gone.

        Checkpoints double as the tracer's heartbeat: each one adds a
        ``checkpoints`` tick to the current span, giving per-phase
        checkpoint counts for free (a no-op with tracing disabled).
        """
        self.checkpoints += 1
        _obs_add("checkpoints")
        if self.expired():
            self.exhausted_at = point
            raise BudgetExhaustedError(
                f"wall-clock budget of {self.max_seconds:.3g}s exhausted"
                + (f" at {point}" if point else ""),
                resource="wall-clock", point=point,
            )

    # -- state cap ---------------------------------------------------------

    def check_states(self, count, point="state-graph"):
        """Raise when ``count`` generated states exceed the cap."""
        if self.max_states is not None and count > self.max_states:
            self.exhausted_at = point
            raise BudgetExhaustedError(
                f"state budget of {self.max_states} exceeded at {point} "
                f"({count} states)",
                resource="states", point=point,
            )

    # -- backtrack pool ----------------------------------------------------

    def remaining_backtracks(self):
        """Backtracks left in the pool; ``None`` when unlimited."""
        if self.max_backtracks is None:
            return None
        return max(0, self.max_backtracks - self.backtracks_used)

    def charge_backtracks(self, used):
        """Debit one solve's backtracks from the shared pool."""
        self.backtracks_used += used

    def sub_limits(self, limits=None):
        """Clip a per-solve :class:`Limits` to what is left globally.

        Returns ``limits`` unchanged when nothing needs clipping, so the
        zero-budget path costs nothing.
        """
        from repro.sat.solver import Limits

        pool = self.remaining_backtracks()
        wall = self.remaining_seconds()
        if pool is None and wall is None:
            return limits
        if wall is not None:
            wall = max(0.0, wall)
        if limits is None:
            return Limits(max_backtracks=pool, max_seconds=wall)
        return Limits(
            max_backtracks=_min_opt(limits.max_backtracks, pool),
            max_seconds=_min_opt(limits.max_seconds, wall),
        )

    # -- reporting ---------------------------------------------------------

    def snapshot(self):
        """Consumption summary for :class:`~repro.runtime.report.RunReport`."""
        return {
            "elapsed_seconds": self.elapsed(),
            "max_seconds": self.max_seconds,
            "max_states": self.max_states,
            "backtracks_used": self.backtracks_used,
            "max_backtracks": self.max_backtracks,
            "checkpoints": self.checkpoints,
            "exhausted_at": self.exhausted_at,
        }

    def __repr__(self):
        return (
            f"Budget(max_seconds={self.max_seconds}, "
            f"max_states={self.max_states}, "
            f"max_backtracks={self.max_backtracks}, "
            f"elapsed={self.elapsed():.3f}s)"
        )


def _min_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
