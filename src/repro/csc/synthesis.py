"""The complete modular synthesis flow (Figure 6 of the paper).

``modular_synthesis`` drives, for every output signal: input-set
derivation (Figure 2), modular graph construction and SAT solving
(Figures 3-4), and propagation (Figure 5); then expands the complete
state graph with the accumulated state signals and derives two-level
logic.  A verify-and-repair pass guarantees the final expanded graph
satisfies CSC even when greedy per-output decisions leave residual
conflicts (a documented deviation from the paper, which argues the
residue is empty in the worst case after all outputs are processed).
"""

from __future__ import annotations

from repro import obs
from repro.csc.assignment import Assignment
from repro.csc.errors import CscError, SynthesisError
from repro.csc.input_set import determine_input_set
from repro.csc.insertion import expand
from repro.csc.modular import partition_sat
from repro.csc.propagate import propagate
from repro.csc.solve import DEFAULT_MAX_SIGNALS, solve_state_signals
from repro.obs import Stopwatch
from repro.perf import ProjectionCache
from repro.runtime.budget import BudgetExhaustedError
from repro.runtime.faults import should_fire as _fault_fires
from repro.runtime.options import coerce_options
from repro.runtime.report import (
    MODULE_DEGRADED,
    MODULE_OK,
    MODULE_SKIPPED,
    RUN_OK,
    RUN_TIMEOUT,
    RunReport,
)
from repro.stategraph.build import build_state_graph
from repro.stategraph.csc import conflicted_outputs, csc_conflicts
from repro.stategraph.graph import StateGraph
from repro.sat.solver import Limits

_MAX_REPAIR_ROUNDS = 10

#: Per-formula budget applied when the caller passes no explicit limits.
#: Modular instances are tiny; an instance that exhausts this budget is a
#: sign the projection was too aggressive, and the solve policy moves on
#: (larger m, then the partition_sat un-hiding ladder) instead of hanging.
DEFAULT_MODULAR_LIMITS = Limits(max_backtracks=100_000, max_seconds=10.0)

#: Report ``detail`` of an output the complete state graph Σ already
#: determines, and of one whose Σ conflicts the state signals inserted
#: by earlier modules already resolve.  Either way the output gets no
#: input-set derivation, no projection and no solve.
CLEAN_ON_SIGMA = "no CSC conflict on the complete state graph"
CLEAN_WITH_SIGNALS = "no CSC conflict left under the inserted state signals"


class ModuleReport:
    """Per-output record of one modular iteration.

    An output without a CSC conflict is a zero-size module: it was
    skipped, so ``input_set`` and ``partition`` are ``None``, it has no
    macro states and no attempts, and it added no signal.
    """

    def __init__(self, output, input_set=None, partition=None):
        self.output = output
        self.input_set = input_set
        self.partition = partition

    @property
    def num_macro_states(self):
        if self.partition is None:
            return 0
        return self.partition.num_macro_states

    @property
    def signals_added(self):
        if self.partition is None:
            return 0
        return self.partition.signals_added

    @property
    def attempts(self):
        if self.partition is None:
            return []
        return self.partition.outcome.attempts

    def __repr__(self):
        return (
            f"ModuleReport({self.output!r}, "
            f"macro_states={self.num_macro_states}, "
            f"signals_added={self.signals_added})"
        )


class ModularResult:
    """Outcome of :func:`modular_synthesis`.

    Attributes
    ----------
    graph / expanded:
        The complete state graph Σ and its final expansion.
    assignment:
        The accumulated state-signal assignment over Σ.
    modules:
        One :class:`ModuleReport` per output, in processing order.
    repair_attempts:
        Solver statistics of the final repair pass (usually empty).
    covers / literals:
        Minimised two-level covers and total literal count
        (``None`` when ``minimize=False``).
    seconds:
        End-to-end wall-clock time.
    """

    def __init__(self, graph, expanded, assignment, modules,
                 repair_attempts, covers, literals, seconds, report=None):
        self.graph = graph
        self.expanded = expanded
        self.assignment = assignment
        self.modules = modules
        self.repair_attempts = repair_attempts
        self.covers = covers
        self.literals = literals
        self.seconds = seconds
        #: Per-module :class:`~repro.runtime.report.RunReport` of the run.
        self.report = report if report is not None else RunReport()

    @property
    def initial_states(self):
        return self.graph.num_states

    @property
    def final_states(self):
        return self.expanded.num_states

    @property
    def initial_signals(self):
        return len(self.graph.signals)

    @property
    def final_signals(self):
        return len(self.graph.signals) + self.assignment.num_signals

    @property
    def state_signals(self):
        return self.assignment.num_signals

    def formula_sizes(self):
        """(clauses, vars) of every SAT formula solved, in order."""
        sizes = []
        for module in self.modules:
            for attempt in module.attempts:
                sizes.append((attempt.num_clauses, attempt.num_vars))
        for attempt in self.repair_attempts:
            sizes.append((attempt.num_clauses, attempt.num_vars))
        return sizes

    def __repr__(self):
        return (
            f"ModularResult(states {self.initial_states}->"
            f"{self.final_states}, signals {self.initial_signals}->"
            f"{self.final_signals}, literals={self.literals}, "
            f"{self.seconds:.2f}s)"
        )


def modular_synthesis(stg, options=None):
    """Synthesise an STG with the paper's modular partitioning method.

    Parameters
    ----------
    stg:
        A :class:`~repro.stg.model.SignalTransitionGraph`, or an already
        built :class:`~repro.stategraph.graph.StateGraph`.
    options:
        A :class:`~repro.runtime.options.SynthesisOptions`.  The fields
        this method reads:

        * ``limits`` -- SAT budget per modular formula (default
          :data:`DEFAULT_MODULAR_LIMITS`);
        * ``minimize`` -- also derive minimised two-level covers;
        * ``max_signals`` / ``signal_prefix`` -- state-signal cap and
          naming;
        * ``output_order`` -- explicit processing order for the
          non-input signals; the default derives the
          smallest-module-first order (and reuses its pre-scan).
          Either way an output without a CSC conflict is skipped:
          it gets an ``ok`` report entry and no modular pass;
        * ``polish`` -- run the assignment polish pass;
        * ``budget`` -- run-wide :class:`~repro.runtime.budget.Budget`
          bounding the whole call.  On exhaustion the raised
          :class:`~repro.runtime.budget.BudgetExhaustedError` carries
          the partial per-module report as ``exc.report``;
        * ``fallback`` -- the engine-fallback ladder on every solve;
        * ``degrade`` -- a failed per-output modular pass does not
          abort the run: the output falls back to a direct sub-solve on
          the full graph (``degraded``), or is left entirely to the
          trailing verify-and-repair rounds (``skipped``).  The outcome
          of every module is recorded in ``result.report``;
          degraded/skipped outputs have no :class:`ModuleReport` in
          ``result.modules``.

    All projections of one run -- the ordering pre-scan, every greedy
    input-set trial, the partition fallback ladder -- go through one
    shared :class:`~repro.perf.ProjectionCache`, so the complete state
    graph is merged from scratch at most a handful of times per run.

    Returns
    -------
    ModularResult
    """
    opts = coerce_options(options, "modular_synthesis")
    watch = Stopwatch()
    limits = opts.resolved_limits(DEFAULT_MODULAR_LIMITS)
    max_signals = opts.resolved_max_signals(DEFAULT_MAX_SIGNALS)
    signal_prefix = opts.resolved_prefix("csc")
    engine = opts.engine
    sat_mode = opts.sat_mode
    budget = opts.budget
    fallback = opts.fallback
    degrade = opts.degrade

    rcache = artifact_key = None
    if opts.cache_dir is not None:
        from repro.perf.result_cache import (
            ResultCache,
            graph_fingerprint,
            options_fingerprint,
        )

        rcache = ResultCache(opts.cache_dir, max_bytes=opts.cache_max_bytes)
        opts_fp = options_fingerprint(opts, "modular")
        if isinstance(stg, StateGraph):
            base_fp = graph_fingerprint(stg)
        else:
            from repro.stg.canonical import g_fingerprint

            base_fp = g_fingerprint(stg)
        artifact_key = ResultCache.key(base_fp, opts_fp, "artifact", "modular")
        cached = rcache.get("artifact", artifact_key)
        if cached is not None:
            return cached

    if isinstance(stg, StateGraph):
        graph = stg
    else:
        graph = build_state_graph(stg, budget=budget)

    cache = ProjectionCache(graph)
    root = cache.project(())
    on_sigma = conflicted_outputs(root)
    prescan = {}
    if opts.output_order:
        outputs = list(opts.output_order)
    else:
        outputs, prescan = _default_output_order(graph, cache, on_sigma)
    unknown = set(outputs) - graph.non_inputs
    if unknown:
        raise ValueError(f"not non-input signals: {sorted(unknown)}")

    report = RunReport(method="modular", engine=engine)
    assignment = Assignment.empty(graph.num_states)
    modules = []
    # Inserting state signals only splits code classes, so the set of
    # conflicted outputs only shrinks: re-check it once per change of
    # the assignment, never one output at a time.
    conflicted = on_sigma
    checked = 0
    try:
        for output in outputs:
            if budget is not None:
                budget.checkpoint(f"module:{output}")
            if output in conflicted and assignment.num_signals != checked:
                checked = assignment.num_signals
                conflicted = _still_conflicted(root, assignment, conflicted)
            clean = None
            if output not in on_sigma:
                clean = CLEAN_ON_SIGMA
            elif output not in conflicted:
                clean = CLEAN_WITH_SIGNALS
            assignment = _solve_module(
                graph, output, assignment, modules, report,
                limits=limits, max_signals=max_signals,
                signal_prefix=signal_prefix, engine=engine,
                sat_mode=sat_mode,
                budget=budget, fallback=fallback, degrade=degrade,
                cache=cache, prescan=prescan, clean=clean,
            )

        with obs.span("repair"):
            assignment, expanded, repair_attempts = _repair(
                graph, assignment, limits, max_signals, signal_prefix,
                engine, budget=budget, fallback=fallback,
                sat_mode=sat_mode, clean_on_sigma=not on_sigma,
            )
        if opts.polish:
            from repro.csc.polish import polish_assignment

            if budget is not None:
                budget.checkpoint("polish")
            with obs.span("polish"):
                polished = polish_assignment(graph, assignment)
                # Polish hands back its input when it has nothing to do;
                # the graph _repair expanded then still stands.
                if polished is not assignment:
                    assignment = polished
                    expanded = expand(graph, assignment)
        _assert_realizable(graph, assignment)

        covers = literals = None
        if opts.minimize:
            from repro.logic.extract import synthesize_logic

            if budget is not None:
                budget.checkpoint("minimize")
            with obs.span("minimize"):
                covers, literals = synthesize_logic(expanded)
    except BudgetExhaustedError as exc:
        # Leave a faithful partial record: everything not yet finished is
        # skipped, and the report travels on the exception.
        done = {entry.output for entry in report.modules}
        for output in outputs:
            if output not in done:
                report.add_module(
                    output, MODULE_SKIPPED, detail="budget exhausted"
                )
        report.finish(status=RUN_TIMEOUT, error=exc, budget=budget)
        exc.report = report
        raise
    report.finish(budget=budget)
    result = ModularResult(
        graph, expanded, assignment, modules, repair_attempts, covers,
        literals, watch.elapsed(), report=report,
    )
    if (rcache is not None and _cache_safe(budget)
            and report.status == RUN_OK):
        rcache.put("artifact", artifact_key, result)
    return result


def _cache_safe(budget):
    """May this run's results enter the persistent cache?

    A wall or backtrack budget clips per-solve limits
    (:meth:`~repro.runtime.budget.Budget.sub_limits`), so a budgeted
    run can legitimately produce *different* -- still valid -- results
    than an unbudgeted one; caching them under a key that ignores the
    budget would poison later unbudgeted runs.  A pure state cap is
    safe: it only ever aborts, it never alters a result.
    """
    return budget is None or (
        budget.max_seconds is None and budget.max_backtracks is None
    )


def _still_conflicted(root, assignment, outputs):
    """The ``outputs`` still in CSC conflict under ``assignment``.

    ``root`` is the ε-only projection the input-set derivation scores
    first; an output it finds conflict-free there would get an empty
    module.  An inconsistent merge keeps every output as having work.
    """
    merged = assignment.merged_over(root.blocks)
    if merged is None:
        return set(outputs)
    return conflicted_outputs(
        root, outputs=outputs, extra_codes=merged.cur_bits()
    )


def _solve_module(graph, output, assignment, modules, report, *,
                  limits, max_signals, signal_prefix, engine, budget,
                  fallback, degrade, cache=None, prescan=None,
                  sat_mode="incremental", clean=None):
    """One output's modular pass, degrading per policy on failure.

    Returns the extended assignment and appends to ``modules`` /
    ``report`` as a side effect.  ``clean`` is the report detail of an
    output without a CSC conflict (:data:`CLEAN_ON_SIGMA` /
    :data:`CLEAN_WITH_SIGNALS`): the full pass would add no signal and
    make no SAT attempt, so it is skipped.  A ``prescan`` entry (an
    :class:`~repro.csc.input_set.InputSetResult` derived against the
    empty assignment by ``_default_output_order``) is reused verbatim as
    long as no state signal has been inserted yet -- the derivation is a
    pure function of (graph, output, assignment), and the pre-scan
    already ran it.  Once an earlier module has inserted state signals,
    the input set is derived afresh, so those signals can enter it.
    """
    with obs.span("module", output=output) as module_span:
        cause = None
        if _fault_fires("module-solve", detail=output):
            cause = SynthesisError(
                f"injected fault: modular solve failed for {output!r}"
            )
        elif clean is not None:
            modules.append(ModuleReport(output))
            report.add_module(output, MODULE_OK, detail=clean)
            module_span.set("status", MODULE_OK)
            module_span.set("conflict_free", True)
            module_span.add("modules_conflict_free")
            return assignment
        else:
            with obs.span("input_set", output=output) as input_span:
                input_set = None
                if prescan and assignment.num_signals == 0:
                    input_set = prescan.get(output)
                if input_set is not None:
                    obs.add("prescan_reuses")
                    input_span.set("reused", True)
                else:
                    input_set = determine_input_set(
                        graph, output, assignment, cache=cache
                    )
            try:
                partition = partition_sat(
                    graph, output, input_set, assignment, limits=limits,
                    max_signals=max_signals,
                    name_start=assignment.num_signals,
                    signal_prefix=signal_prefix, engine=engine,
                    budget=budget, fallback=fallback, cache=cache,
                    sat_mode=sat_mode,
                )
            except CscError as exc:
                cause = exc

        if cause is not None:
            if not degrade:
                raise cause
            assignment = _degrade_module(
                graph, output, assignment, report, cause,
                limits=limits, max_signals=max_signals,
                signal_prefix=signal_prefix, engine=engine, budget=budget,
                fallback=fallback, sat_mode=sat_mode,
            )
            module_span.set("status", report.modules[-1].status)
            return assignment
        escalations = sum(
            1 for attempt in partition.outcome.attempts if attempt.escalated
        )
        with obs.span("propagate", output=output):
            assignment = propagate(assignment, partition)
        modules.append(ModuleReport(output, input_set, partition))
        report.add_module(
            output, MODULE_OK, signals_added=partition.signals_added,
            escalations=escalations,
        )
        module_span.set("status", MODULE_OK)
        module_span.add("signals_added", partition.signals_added)
        return assignment


def _degrade_module(graph, output, assignment, report, cause, *,
                    limits, max_signals, signal_prefix, engine, budget,
                    fallback, sat_mode="incremental"):
    """Per-output direct sub-solve on the full graph (degraded mode).

    The modular pass failed for this output; instead of aborting the
    whole run, solve its conflicts monolithically on Σ -- the shape the
    repair pass uses -- and record the module as ``degraded``.  If even
    that fails, record ``skipped`` and leave the output to the trailing
    verify-and-repair rounds.
    """
    try:
        outcome = solve_state_signals(
            graph,
            outputs=[output],
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
            extra_excited=assignment.excitation_bits(),
            limits=limits,
            max_signals=max_signals,
            engine=engine,
            on_limit="skip",
            budget=budget,
            fallback=fallback,
            sat_mode=sat_mode,
        )
    except CscError as exc:
        report.add_module(
            output, MODULE_SKIPPED,
            detail=f"{cause}; direct sub-solve failed: {exc}",
        )
        return assignment
    names = [
        f"{signal_prefix}{assignment.num_signals + k}"
        for k in range(outcome.m)
    ]
    escalations = sum(
        1 for attempt in outcome.attempts if attempt.escalated
    )
    report.add_module(
        output, MODULE_DEGRADED, detail=str(cause),
        signals_added=outcome.m, escalations=escalations,
    )
    return assignment.extended(names, outcome.rows)


def _assert_realizable(graph, assignment):
    problems = assignment.check_input_realizability(graph)
    if problems:
        raise SynthesisError(
            f"assignment serialises a state signal before an input on "
            f"{len(problems)} edge(s): unrealisable ordering"
        )


def _default_output_order(graph, cache, conflicted):
    """Process outputs with the smallest modular graphs first.

    Local conflicts (completion pulses, echo tails) then insert their
    state signals before the join outputs run; the joins' input-set
    derivation keeps those signals, which often resolves their corner
    conflicts for free.  The paper leaves the iteration order open; this
    is the ordering that makes its "state signals are shared between
    modules" behaviour reliable.

    ``conflicted`` holds the outputs with a CSC conflict on Σ's ε-only
    projection.  Any other output is a zero-size module: it gets no
    derivation, sorts first under the key ``(0, 0, name)``, and the
    solve loop skips it.  Every conflicted output keeps the key
    ``(macro states, conflicts, name)`` of its derived module.

    Returns ``(order, prescan)``: the pre-scan's per-output
    :class:`~repro.csc.input_set.InputSetResult` objects (derived
    against the empty assignment) ride along so the solve loop never
    repeats the derivation, and the shared ``cache`` keeps every
    projection computed here warm for ``partition_sat``.
    """
    empty = Assignment.empty(graph.num_states)
    keys = {}
    prescan = {}
    with obs.span("output_order"):
        for output in sorted(graph.non_inputs):
            if output not in conflicted:
                keys[output] = (0, 0, output)
                continue
            input_set = determine_input_set(graph, output, empty, cache=cache)
            prescan[output] = input_set
            macro = cache.project(
                input_set.hidden_signals
            ).graph.num_states
            keys[output] = (macro, input_set.conflicts, output)
    return sorted(keys, key=keys.get), prescan


def _repair(graph, assignment, limits, max_signals, signal_prefix, engine,
            budget=None, fallback=False, sat_mode="incremental",
            clean_on_sigma=False):
    """Resolve residual conflicts until the expanded graph satisfies CSC.

    Each round: expand, look for CSC violations among expanded states, map
    them back to Σ state pairs, and solve a (small) whole-graph formula
    that distinguishes them on top of the existing assignment.

    ``clean_on_sigma`` says the conflict pass found no conflicted
    non-input on Σ's ε-only projection.  With no state signal inserted,
    that already decides CSC: a code class there holds one implied value
    per non-input (merged ε-blocks carry every member's), and with equal
    codes equal implied values mean equal non-input excitation.  The
    first round then skips its conflict search.
    """
    repair_attempts = []
    extra_pairs = []
    for _round in range(_MAX_REPAIR_ROUNDS):
        if budget is not None:
            budget.checkpoint("repair")
        obs.add("repair_rounds")
        expanded, origins = expand(graph, assignment, return_origins=True)
        if clean_on_sigma and not assignment.num_signals:
            return assignment, expanded, repair_attempts
        violations = csc_conflicts(expanded)
        if not violations:
            return assignment, expanded, repair_attempts
        new_pairs = set()
        for p, q in violations:
            a, b = sorted((origins[p], origins[q]))
            if a != b:
                new_pairs.add((a, b))
        new_pairs -= set(extra_pairs)
        if not new_pairs:
            raise SynthesisError(
                "repair pass cannot make progress on expansion-level "
                "CSC violations"
            )
        extra_pairs.extend(sorted(new_pairs))
        outcome = solve_state_signals(
            graph,
            extra_codes=assignment.cur_bits(),
            extra_implied=assignment.implied_bits(),
            extra_excited=assignment.excitation_bits(),
            extra_conflict_pairs=tuple(extra_pairs),
            limits=limits,
            max_signals=max_signals,
            engine=engine,
            on_limit="skip",
            budget=budget,
            fallback=fallback,
            sat_mode=sat_mode,
        )
        names = [
            f"{signal_prefix}{assignment.num_signals + k}"
            for k in range(outcome.m)
        ]
        assignment = assignment.extended(names, outcome.rows)
        repair_attempts.extend(outcome.attempts)
    raise SynthesisError(
        f"CSC repair did not converge in {_MAX_REPAIR_ROUNDS} rounds"
    )
