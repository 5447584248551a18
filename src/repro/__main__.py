"""Command-line synthesis driver.

Usage::

    python -m repro SPEC.g [options]     synthesise one specification
    python -m repro serve [options]      run the HTTP synthesis service
    python -m repro generate [options]   emit random live/safe STGs

The first positional argument selects the mode: the literal words
``serve`` and ``generate`` dispatch to the service front end
(:mod:`repro.service`) and the synthetic workload generator
(:mod:`repro.stg.generate`); anything else is a ``.g`` specification
path, preserving the historical single-spec invocation byte for byte.

Synthesis mode reads an astg ``.g`` specification, synthesises it with
the modular partitioning method (or a chosen alternative), verifies
the result at gate level, and prints the next-state equations --
optionally writing a BLIF netlist.  With ``--json`` the human
narration is replaced by one canonical ``repro-api/1`` response
document on stdout (the same bytes the service serves), leaving exit
codes and stderr diagnostics untouched.

Options:

``--method modular|direct|lavagno``   synthesis method (default modular)
``--engine hybrid|dpll|cdcl|bdd``     SAT engine (default hybrid)
``--sat-mode incremental|oneshot``    incremental assumption-based SAT
                                      vs cold solver per formula
``--timeout SECONDS``                 global wall-clock budget
``--max-states N``                    cap on generated state-graph states
``--no-fallback``                     disable engine escalation and
                                      per-module degradation
``--cache-dir PATH``                  persistent result cache directory
``--no-cache``                        ignore ``--cache-dir``
``--cache-max-bytes N``               LRU size bound on the result cache
``--blif PATH``                       write the circuit netlist
``--verify-level csc|conformance|hazards``
                                      verification depth: static CSC
                                      re-check, closed-loop conformance,
                                      or conformance plus semi-modularity
                                      / hazard-freedom (default hazards)
``--no-verify``                       skip the closed-loop model check
                                      (same as --verify-level csc)
``--quiet``                           only print the summary line
``--json``                            print the run as one repro-api/1
                                      response document instead of the
                                      human narration
``--trace FILE.jsonl``                write the span journal to FILE
                                      (``.gz`` suffix gzips it)
``--metrics``                        print run-wide counter totals
                                     (plus derived cache hit rates)
``--metrics-tree``                   print the span tree with per-span
                                     self time vs child time
``--metrics-prom PATH``              write counters/histograms/gauges
                                     in Prometheus text format
``--trace-memory``                   record tracemalloc peak-memory
                                     gauges per top-level span
``--profile-top N``                  print the N heaviest span names

Observability flags compose with ``--quiet`` as follows: ``--quiet``
suppresses the *human* narration (the per-signal equations), never the
machine-readable outputs -- a requested trace file is always written,
and ``--metrics``/``--profile-top`` tables are explicit requests so
they print regardless.  The trace file is written even when the run
fails or times out, so a journal of a bad run still shows where it
went wrong.

Exit codes: ``0`` success, ``1`` error (bad input, failed synthesis or
verification), ``2`` success with degradation (some output needed a
fallback pass, or verification was skipped at the deadline), ``3``
budget exhausted (partial per-module results on stderr).  The
observability flags never change the exit code: a run that traces
successfully but degrades still exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import obs
from repro.errors import ReproError
from repro.logic import equations, write_synthesis_blif
from repro.runtime.budget import Budget
from repro.runtime.options import SynthesisOptions
from repro.runtime.report import RUN_ERROR, RUN_TIMEOUT
from repro.runtime.run import run_synthesis
from repro.stg import load_stg, validate_stg

_METHODS = ("modular", "direct", "lavagno")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "generate":
        return _generate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Synthesise an asynchronous circuit from an STG.",
    )
    parser.add_argument("spec", help="astg .g specification file")
    parser.add_argument(
        "--method", choices=sorted(_METHODS), default="modular"
    )
    parser.add_argument(
        "--engine", choices=["hybrid", "dpll", "cdcl", "bdd"],
        default="hybrid",
    )
    parser.add_argument(
        "--sat-mode", choices=["incremental", "oneshot"],
        default="incremental",
        help="incremental: one assumption-based solver per grow-m loop "
             "(learned clauses carry across attempts); oneshot: cold "
             "solver per formula (paper-faithful baseline)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="global wall-clock budget for the whole run",
    )
    parser.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="abort when a state graph exceeds N states",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="disable the engine-fallback ladder and module degradation",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent result cache directory (reused across runs)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir for this run",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used result-cache records past N "
             "total bytes (default: unbounded)",
    )
    parser.add_argument("--blif", metavar="PATH", default=None)
    parser.add_argument(
        "--verify-level", choices=["csc", "conformance", "hazards"],
        default="hazards",
        help="verification depth: csc re-checks state coding statically, "
             "conformance model-checks the gate-level closed loop, "
             "hazards adds semi-modularity / output-hazard freedom "
             "(default hazards)",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the closed-loop model check (forces --verify-level csc)",
    )
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--json", action="store_true",
        help="print one repro-api/1 response document on stdout instead "
             "of the human summary and equations",
    )
    parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write a JSONL span journal (written even under --quiet)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print run-wide counter totals after the summary",
    )
    parser.add_argument(
        "--metrics-tree", action="store_true",
        help="print the span tree with self time vs child time",
    )
    parser.add_argument(
        "--metrics-prom", metavar="PATH", default=None,
        help="write counters/histograms/gauges as Prometheus text",
    )
    parser.add_argument(
        "--trace-memory", action="store_true",
        help="record tracemalloc peak-memory gauges per top-level span",
    )
    parser.add_argument(
        "--profile-top", type=int, default=None, metavar="N",
        help="print the N heaviest span names by total wall clock",
    )
    args = parser.parse_args(argv)

    try:
        stg = load_stg(args.spec)
        validate_stg(stg)
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {args.spec}: {exc.describe()}", file=sys.stderr)
        return 1

    observe = bool(
        args.trace or args.metrics or args.profile_top
        or args.metrics_tree or args.metrics_prom or args.trace_memory
    )
    tracer = None
    if observe:
        tracer = obs.install(obs.Tracer(
            journal=args.trace,
            keep_events=args.metrics_tree,
            memory=args.trace_memory,
        ))
    try:
        code = _run(args, stg, tracer)
    finally:
        # Close (and flush) the journal even when the run failed: a
        # trace of a bad run is the one worth reading.
        if tracer is not None:
            obs.uninstall()
            tracer.close()
    if tracer is not None:
        _print_observability(args, tracer)
    return code


def _run(args, stg, tracer):
    budget = Budget(max_seconds=args.timeout, max_states=args.max_states)
    cache_dir = None if args.no_cache else args.cache_dir
    options = SynthesisOptions(
        engine=args.engine, sat_mode=args.sat_mode, budget=budget,
        fallback=not args.no_fallback, degrade=not args.no_fallback,
        cache_dir=cache_dir, cache_max_bytes=args.cache_max_bytes,
        verify_level="csc" if args.no_verify else args.verify_level,
    )
    report = run_synthesis(stg, method=args.method, options=options)

    if report.status == RUN_ERROR:
        print(f"error: {report.error.describe()}", file=sys.stderr)
        _print_json(args, report, stg)
        return 1
    if report.status == RUN_TIMEOUT:
        print(f"timeout: {report.summary()}", file=sys.stderr)
        _print_modules(report)
        _print_json(args, report, stg)
        return 3

    result = report.result
    degraded = bool(report.degraded_modules or report.skipped_modules)
    verify = report.verify
    verified = ""
    if verify is not None and not args.no_verify:
        if verify.skipped is not None:
            # Synthesis finished on the wire; a model check would push
            # the run past its promised deadline (or state budget).
            verified = f", verify skipped ({verify.skipped})"
            degraded = True
        elif verify.violations:
            print(
                f"error: synthesised circuit does not conform: "
                f"{verify.violations[:3]}",
                file=sys.stderr,
            )
            _print_json(args, report, stg)
            return 1
        elif verify.truncated:
            # The exploration cap cut the pass short: a clean-so-far
            # traversal is not a proof.
            verified = ", verify inconclusive (state cap)"
            degraded = True
        elif verify.level == "hazards":
            verified = ", conformance verified, hazard-free"
        elif verify.level == "conformance":
            verified = ", conformance verified"
        else:
            verified = ", csc verified"

    if args.json:
        _print_json(args, report, stg)
    else:
        print(
            f"{stg.name}: {result.initial_states} -> "
            f"{result.final_states} states, {result.initial_signals} -> "
            f"{result.final_signals} signals, {result.literals} literals, "
            f"{result.seconds:.2f}s ({args.method}/{args.engine}{verified})"
        )
        if not args.quiet:
            for line in equations(result.covers, result.expanded.signals):
                print(f"  {line}")

    if args.blif:
        text = write_synthesis_blif(result, stg.inputs, model=stg.name)
        with open(args.blif, "w", encoding="utf-8") as handle:
            handle.write(text)
        if not args.json:
            print(f"wrote {args.blif}")

    if degraded:
        print(f"degraded: {report.summary()}", file=sys.stderr)
        _print_modules(report, only_degraded=True)
        return 2
    return 0


def _print_json(args, report, stg):
    """The ``--json`` document on stdout (stdout carries nothing else).

    The ``verified`` verdict and the ``verify`` document both derive
    from the run's own verification pass (``report.verify``).
    """
    if not args.json:
        return
    from repro import api

    response = api.response_from_report(report, model=stg.name)
    print(api.to_json_bytes(response).decode("utf-8"))


def _serve_main(argv):
    """``python -m repro serve``: run the HTTP synthesis service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve synthesis over HTTP (POST /synthesize, "
                    "GET /metrics, GET /healthz).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 picks a free one (printed on the ready line)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="shared result-cache directory: whole responses replay "
             "from it and workers reuse its artifact records",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes, i.e. the bound on concurrently "
             "executing requests",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the gate-level conformance check on each result",
    )
    parser.add_argument(
        "--executor", choices=["process", "thread", "inline"],
        default="process",
        help="worker pool flavour (thread/inline are for tests and "
             "debugging; process is the real deployment)",
    )
    args = parser.parse_args(argv)

    from repro.service import run_server

    return run_server(
        host=args.host, port=args.port, cache_dir=args.cache_dir,
        jobs=args.jobs, verify=not args.no_verify, executor=args.executor,
    )


def _generate_main(argv):
    """``python -m repro generate``: emit random live/safe STGs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro generate",
        description="Generate random live/safe free-choice STGs "
                    "(.g text on stdout, or files under --out-dir).",
    )
    parser.add_argument("--count", type=int, default=1, metavar="N")
    parser.add_argument("--signals", type=int, default=6, metavar="N")
    parser.add_argument(
        "--width", type=int, default=2, metavar="N",
        help="maximum concurrent branches per Par phase (1 disables "
             "concurrency)",
    )
    parser.add_argument(
        "--csc-density", type=float, default=0.0, metavar="P",
        help="probability in [0,1] of a CSC-conflict echo tail per phase",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument(
        "--out-dir", metavar="PATH", default=None,
        help="write one <name>.g file per circuit instead of stdout",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print one JSON line of structure stats per circuit "
             "on stderr",
    )
    args = parser.parse_args(argv)

    from repro.stg.generate import generate_corpus

    try:
        corpus = generate_corpus(
            args.count, signals=args.signals, width=args.width,
            csc_density=args.csc_density, seed=args.seed,
        )
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            for generated in corpus:
                path = os.path.join(args.out_dir, f"{generated.name}.g")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(generated.g_text)
            print(f"wrote {len(corpus)} circuits to {args.out_dir}")
        else:
            for generated in corpus:
                sys.stdout.write(generated.g_text)
    except BrokenPipeError:
        # Downstream (e.g. ``| head``) closed the pipe; that is its
        # prerogative, not an error worth a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    if args.stats:
        for generated in corpus:
            line = {"name": generated.name, "seed": generated.seed}
            line.update(generated.stats())
            print(json.dumps(line, sort_keys=True), file=sys.stderr)
    return 0


def _print_observability(args, tracer):
    """Counter totals / span profile on stdout.

    These are explicit requests, so they print even under ``--quiet``
    and on failed runs (the tracer has already folded whatever spans
    completed before the failure).
    """
    from repro.obs import (
        build_forest,
        format_counters,
        format_profile,
        format_tree,
        prometheus_text,
        with_derived,
    )

    if args.metrics:
        totals = with_derived(tracer.counter_totals())
        print(format_counters(totals) if totals else "metrics: none recorded")
    if args.metrics_tree:
        roots = build_forest(tracer.events)
        print(format_tree(roots) if roots else "metrics-tree: no spans")
    if args.profile_top:
        print(format_profile(tracer.stats, top=args.profile_top))
    if args.metrics_prom:
        text = prometheus_text(
            counters=with_derived(tracer.counter_totals()),
            histograms=tracer.histograms,
            gauges=tracer.gauges,
        )
        with open(args.metrics_prom, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.metrics_prom}")


def _print_modules(report, only_degraded=False):
    """Per-module statuses on stderr (partial results / degradations)."""
    for module in report.modules:
        if only_degraded and module.status == "ok":
            continue
        detail = f" ({module.detail})" if module.detail else ""
        print(f"  {module.output}: {module.status}{detail}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
