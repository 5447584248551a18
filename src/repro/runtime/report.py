"""Structured run outcomes: per-module status and overall verdict.

A production driver cannot treat "synthesis" as one opaque call that
either returns or raises: the modular method processes one output at a
time, and a single hard module should degrade (per-output direct
sub-solve, then the repair pass) rather than sink the run.
:class:`RunReport` is the record of that policy -- one
:class:`ModuleStatus` per output, the budget consumed, and the overall
status mapped onto the CLI's exit codes.
"""

from __future__ import annotations

from repro.obs import Counters

#: Per-module statuses.
MODULE_OK = "ok"
MODULE_DEGRADED = "degraded"
MODULE_SKIPPED = "skipped"

#: Overall run statuses, in order of badness.
RUN_OK = "ok"
RUN_DEGRADED = "degraded"
RUN_TIMEOUT = "timeout"
RUN_ERROR = "error"

#: CLI exit code for each overall status.
EXIT_CODES = {
    RUN_OK: 0,
    RUN_ERROR: 1,
    RUN_DEGRADED: 2,
    RUN_TIMEOUT: 3,
}


class ModuleStatus:
    """Outcome of one output's modular pass.

    ``ok``       -- solved on its modular graph, as the paper intends.
    ``degraded`` -- the modular pass failed (budget, unsolvable
                    projection, injected fault) and a per-output direct
                    sub-solve on the full graph covered for it.
    ``skipped``  -- both passes failed; the trailing verify-and-repair
                    rounds are the only remaining safety net.
    """

    def __init__(self, output, status=MODULE_OK, detail=None,
                 signals_added=0, escalations=0):
        self.output = output
        self.status = status
        self.detail = detail
        self.signals_added = signals_added
        #: Number of engine-ladder escalations recorded while solving.
        self.escalations = escalations

    def __repr__(self):
        extra = f", detail={self.detail!r}" if self.detail else ""
        return f"ModuleStatus({self.output!r}, {self.status!r}{extra})"


class RunReport:
    """Outcome of one synthesis run under a budget.

    Attributes
    ----------
    method / engine:
        What was asked for.
    status:
        ``ok``, ``degraded`` (all outputs covered but not all by the
        modular pass), ``timeout`` (budget exhausted; partial results),
        or ``error``.
    modules:
        :class:`ModuleStatus` per output, in processing order.
    result:
        The synthesis result object when one was produced (possibly
        ``None`` on timeout/error).
    error:
        The terminal exception for ``timeout``/``error`` runs.
    budget:
        :meth:`repro.runtime.budget.Budget.snapshot` of consumption.
    metrics:
        :class:`~repro.obs.metrics.Counters` aggregated over the
        modules (and budget consumption) by :meth:`finish` -- the same
        bag type solver results and bench rows carry.
    """

    def __init__(self, method="modular", engine="hybrid"):
        self.method = method
        self.engine = engine
        self.status = RUN_OK
        self.modules = []
        self.result = None
        self.error = None
        self.budget = {}
        self.metrics = Counters()
        self.verified = None
        #: :class:`~repro.verify.checker.VerifyReport` of the
        #: post-synthesis verification pass, set by
        #: :func:`~repro.runtime.run.run_synthesis` (``None`` when no
        #: pass ran, e.g. on timeout/error runs without a result).
        self.verify = None

    # -- construction ------------------------------------------------------

    def add_module(self, output, status=MODULE_OK, detail=None,
                   signals_added=0, escalations=0):
        entry = ModuleStatus(
            output, status=status, detail=detail,
            signals_added=signals_added, escalations=escalations,
        )
        self.modules.append(entry)
        return entry

    def finish(self, status=None, result=None, error=None, budget=None):
        """Seal the report; derives the status and metrics when not forced."""
        if status is not None:
            self.status = status
        elif any(m.status != MODULE_OK for m in self.modules):
            self.status = RUN_DEGRADED
        else:
            self.status = RUN_OK
        if result is not None:
            self.result = result
        if error is not None:
            self.error = error
        if budget is not None:
            self.budget = budget.snapshot()
        self.metrics = self.aggregate()
        return self

    def aggregate(self):
        """Fold the per-module statuses into one :class:`Counters` bag.

        Safe on any report shape: an empty module list yields all-zero
        counters (an empty bag), and a sealed budget snapshot
        contributes its consumption counters.
        """
        metrics = Counters()
        for entry in self.modules:
            metrics.add(f"modules_{entry.status}")
            metrics.add("signals_added", entry.signals_added)
            metrics.add("escalations", entry.escalations)
        if self.verify is not None:
            metrics.add("verify_checks", len(self.verify.checks))
            metrics.add("verify_states", self.verify.states_explored)
            metrics.add("verify_violations", len(self.verify.violations))
        if self.budget.get("backtracks_used"):
            metrics.add("backtracks", self.budget["backtracks_used"])
        if self.budget.get("checkpoints"):
            metrics.add("checkpoints", self.budget["checkpoints"])
        return metrics

    # -- inspection --------------------------------------------------------

    def module(self, output):
        for entry in self.modules:
            if entry.output == output:
                return entry
        return None

    @property
    def degraded_modules(self):
        return [m for m in self.modules if m.status == MODULE_DEGRADED]

    @property
    def skipped_modules(self):
        return [m for m in self.modules if m.status == MODULE_SKIPPED]

    @property
    def escalations(self):
        return sum(m.escalations for m in self.modules)

    @property
    def exit_code(self):
        return EXIT_CODES[self.status]

    def summary(self):
        """One line suitable for a log or the CLI summary."""
        counts = {}
        for entry in self.modules:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        parts = [f"{self.status}"]
        if self.modules:
            detail = ", ".join(
                f"{counts[s]} {s}"
                for s in (MODULE_OK, MODULE_DEGRADED, MODULE_SKIPPED)
                if counts.get(s)
            )
            parts.append(f"modules: {detail}")
        if self.verify is not None:
            if self.verify.skipped is not None:
                parts.append(f"verify skipped ({self.verify.skipped})")
            elif self.verify.violations:
                parts.append(
                    f"verify: {len(self.verify.violations)} violation"
                    + ("s" if len(self.verify.violations) != 1 else "")
                    + f" ({self.verify.level})"
                )
            else:
                parts.append(f"verify: ok ({self.verify.level})")
        if self.budget.get("max_seconds") is not None:
            parts.append(
                f"{self.budget['elapsed_seconds']:.2f}s of "
                f"{self.budget['max_seconds']:.3g}s"
            )
        if self.error is not None:
            message = getattr(self.error, "describe", None)
            parts.append(message() if message else str(self.error))
        return "; ".join(parts)

    def __repr__(self):
        return (
            f"RunReport({self.method}/{self.engine}, {self.status!r}, "
            f"{len(self.modules)} modules)"
        )
