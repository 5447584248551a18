"""The budgeted synthesis orchestrator behind ``python -m repro``.

:func:`run_synthesis` wraps the three synthesis methods in one uniform
contract: it *always* produces a :class:`~repro.runtime.report.RunReport`
-- complete on success, partial on budget exhaustion, structured on any
:class:`~repro.errors.ReproError` -- instead of letting layer-specific
exceptions decide the process outcome.  Only genuine bugs (non-
``ReproError`` exceptions) propagate.
"""

from __future__ import annotations

from repro import obs
from repro.errors import ReproError
from repro.runtime.budget import Budget, BudgetExhaustedError
from repro.runtime.report import (
    RUN_ERROR,
    RUN_TIMEOUT,
    RunReport,
)


def run_synthesis(stg, method="modular", options=None):
    """Synthesise ``stg`` under a global budget; never raise a ReproError.

    Parameters
    ----------
    stg:
        Anything :func:`repro.stg.load.load_stg` accepts -- a
        :class:`~repro.stg.model.SignalTransitionGraph`, a ``.g`` file
        path or raw ``.g`` source text -- or a prebuilt
        :class:`~repro.stategraph.graph.StateGraph`.
    method:
        ``"modular"`` (the paper's), ``"direct"`` (Vanbekbergen-style
        monolithic) or ``"lavagno"`` (sequential state-table baseline).
    options:
        A :class:`~repro.runtime.options.SynthesisOptions`, forwarded to
        the chosen method.  When omitted the orchestrator keeps its
        historically resilient defaults: the engine-fallback ladder is
        on and, for the modular method, drives per-output graceful
        degradation.

    Returns
    -------
    RunReport
        ``report.result`` holds the method's result object when one was
        produced; ``report.status`` / ``report.exit_code`` encode the
        verdict (``ok``/``degraded``/``timeout``/``error``).
    """
    # Imported here, not at module load: these pull in the synthesis
    # layers, which import this package's leaf modules at load time.
    from repro.baselines import lavagno_synthesis
    from repro.csc import direct_synthesis, modular_synthesis
    from repro.runtime.options import coerce_options
    from repro.stategraph.graph import StateGraph
    from repro.stg.load import load_stg

    opts = coerce_options(
        options, "run_synthesis", defaults={"fallback": True}
    )
    if options is None:
        opts = opts.evolve(degrade=opts.fallback)
    if not isinstance(stg, StateGraph):
        stg = load_stg(stg)

    budget = opts.budget
    if budget is None:
        budget = Budget.unlimited()
    opts = opts.evolve(budget=budget)
    engine = opts.engine

    with obs.span("run", method=method, engine=engine) as run_span:
        try:
            if method == "modular":
                result = modular_synthesis(stg, options=opts)
                report = result.report
            elif method == "direct":
                result = direct_synthesis(stg, options=opts)
                report = RunReport(method=method, engine=engine)
                report.finish(budget=budget)
            elif method == "lavagno":
                result = lavagno_synthesis(stg, options=opts)
                report = RunReport(method=method, engine=engine)
                report.finish(budget=budget)
            else:
                raise ValueError(f"unknown synthesis method {method!r}")
        except BudgetExhaustedError as exc:
            report = exc.report
            if report is None:
                report = RunReport(method=method, engine=engine)
                report.finish(status=RUN_TIMEOUT, error=exc, budget=budget)
            report.method = method
            report.engine = engine
            run_span.set("status", report.status)
            return report
        except ReproError as exc:
            report = RunReport(method=method, engine=engine)
            # A solve clipped to the remaining wall time reports its
            # failure as a limit/synthesis error; once the deadline has
            # passed, the deadline is the dominant cause.
            status = RUN_TIMEOUT if budget.expired() else RUN_ERROR
            report.finish(status=status, error=exc, budget=budget)
            run_span.set("status", report.status)
            return report
        report.result = result
        _verify_phase(report, stg, opts, budget)
        run_span.set("status", report.status)
        return report


def _verify_phase(report, stg, opts, budget):
    """Run the post-synthesis verification pass at ``opts.verify_level``.

    Attaches a :class:`~repro.verify.checker.VerifyReport` as
    ``report.verify`` and folds its counters into ``report.metrics``.
    The closed-loop levels are budget-aware: a deadline that expired
    during synthesis, or runs out mid-traversal, skips the pass
    (``skipped="deadline"``/``"budget"``) rather than breaking the
    run's promised wall clock -- the caller decides whether an
    unverified result degrades the verdict.  Each counterexample is
    journalled as a ``verify_violation`` point event.
    """
    from repro.verify.checker import VerifyReport, verify_result

    if report.result is None:
        return
    level = opts.verify_level
    with obs.span("verify", level=level) as verify_span:
        if level != "csc" and budget.expired():
            verify = VerifyReport(level, skipped="deadline")
        else:
            try:
                verify = verify_result(
                    report.result,
                    stg=stg if hasattr(stg, "inputs") else None,
                    level=level, budget=budget,
                )
            except BudgetExhaustedError as exc:
                reason = (
                    "budget" if exc.context.get("resource") == "states"
                    else "deadline"
                )
                verify = VerifyReport(level, skipped=reason)
        report.verify = verify
        report.metrics = report.aggregate()
        verify_span.set("verdict", verify.verdict)
        verify_span.add("verify_checks", len(verify.checks))
        verify_span.add("verify_states", verify.states_explored)
        verify_span.add("verify_violations", len(verify.violations))
        for cex in verify.violations:
            obs.event("verify_violation", level=level, **cex.as_dict())
