"""In-memory span recorder and the layer wrappers of the traced run.

The traced run wraps each layer's public function *where its callers
look it up*: every ``repro.*`` module global bound to the function is
rebound to a wrapper (so ``from x import f`` call sites are covered), and
methods are wrapped on their class.  Each call records a span -- name,
start, end, parent span, circuit or request tag -- in memory; the
spans are written out once, when the benchmark ends.  A layer's self time
is its span's duration minus the part its child spans cover.

A few hot helpers are *counted*, not timed (``expand``,
``csc_conflicts``, polish's acceptance test): their callers' self time
then keeps the work, so ``csc.polish`` is the whole of the polish pass.

Nothing here changes what a wrapped function computes; ``Tracing`` restores
every original on exit and ``Tracing.restored()`` proves it.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

#: (span name, module, attribute) of every timed layer boundary of the
#: synthesis pipeline.  Two SAT entry points share the ``sat.solve``
#: name: a nested same-name span is not counted as a second call.
SYNTHESIS_LAYERS = (
    ("runtime.run", "repro.runtime.run", "run_synthesis"),
    ("stg.parse", "repro.stg.parse", "parse_g"),
    ("petrinet.reachability", "repro.petrinet.reachability",
     "reachability_graph"),
    ("stategraph.build", "repro.stategraph.build", "build_state_graph"),
    ("csc.input_set", "repro.csc.input_set", "determine_input_set"),
    ("perf.project", "repro.perf.projection", "ProjectionCache.project"),
    ("csc.partition_sat", "repro.csc.modular", "partition_sat"),
    ("sat.solve", "repro.sat", "solve_with"),
    ("sat.solve", "repro.sat.incremental", "IncrementalSolver.solve"),
    ("csc.propagate", "repro.csc.propagate", "propagate"),
    ("csc.polish", "repro.csc.polish", "polish_assignment"),
    ("logic.minimize", "repro.logic.extract", "synthesize_logic"),
    ("verify.verify", "repro.verify.checker", "verify_result"),
)

#: Layer boundaries of the service front end (parent process only).
SERVICE_LAYERS = (
    ("service.request", "repro.service", "SynthesisService.synthesize"),
    ("service.parse", "repro.service", "parse_request"),
    ("service.fingerprint", "repro.api", "SynthesisRequest.fingerprint"),
    ("service.cache_get", "repro.perf.result_cache", "ResultCache.get"),
    ("service.cache_put", "repro.perf.result_cache", "ResultCache.put"),
    ("service.execute", "repro.service", "SynthesisService._execute"),
)

#: Counted-only helpers: (counter name, module, attribute).
COUNTED = (
    ("csc.expand", "repro.csc.insertion", "expand"),
    ("stategraph.csc_conflicts", "repro.stategraph.csc", "csc_conflicts"),
    ("csc.polish_accepts", "repro.csc.polish", "_accepts"),
)

#: Root span names: the benchmark's own timed regions, not layers.
ROOTS = frozenset({"bench.setup", "bench.circuit", "service.request"})


class Recorder:
    """Spans and counts of one traced run, kept in memory.

    A span is the list ``[id, name, parent, start, end, tag]``; ``tag``
    is the circuit name or request number, inherited from the parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._next_id = 0
        self._requests = 0
        self._polish_seen = set()

    # -- spans -------------------------------------------------------------

    def open(self, name, tag=None):
        parent = self._current.get()
        if tag is None and parent is not None:
            tag = parent[5]
        self._next_id += 1
        span = [self._next_id, name, parent[0] if parent else None,
                time.perf_counter(), None, tag]
        self.spans.append(span)
        return span, self._current.set(span)

    def close(self, span, token):
        span[4] = time.perf_counter()
        self._current.reset(token)

    def request_tag(self):
        self._requests += 1
        return f"req{self._requests}"

    # -- counts ------------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def count_call(self, name, result):
        """Book one call of a counted helper (see :data:`COUNTED`)."""
        self.add(f"{name}_calls")
        current = self._current.get()
        in_polish = current is not None and current[1] == "csc.polish"
        if name == "csc.expand" and in_polish:
            self.add("csc.polish_trials")
        elif name == "csc.polish_accepts" and in_polish:
            # The first acceptance test of a polish call checks the
            # input assignment; every later one judges a flip.
            if current[0] not in self._polish_seen:
                self._polish_seen.add(current[0])
            elif result:
                self.add("csc.polish_flips")

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _resolve(module_name, attribute):
    """``(owner, name, function)`` for ``module.attr`` or ``module.Cls.attr``."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _timed(recorder, name, function, hooks=(None, None)):
    """A span-recording wrapper.

    ``hooks`` is ``(before, after)``: ``before(span, args)`` runs once the
    span is open and returns a state; ``after(recorder, args, result,
    state)`` books counts read off the call's arguments and result.
    """
    before, after = hooks
    if inspect.iscoroutinefunction(function):
        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            tag = recorder.request_tag() if name == "service.request" else None
            span, token = recorder.open(name, tag)
            state = before(span, args) if before else None
            try:
                result = await function(*args, **kwargs)
            finally:
                recorder.close(span, token)
            if after:
                after(recorder, args, result, state)
            return result
        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span, token = recorder.open(name)
        state = before(span, args) if before else None
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(span, token)
        if after:
            after(recorder, args, result, state)
        return result
    return wrapper


def _counted(recorder, name, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        result = function(*args, **kwargs)
        recorder.count_call(name, result)
        return result
    return wrapper


def _size(counter, size):
    def after(recorder, _args, result, _state):
        recorder.add(counter, size(result))
    return after


def _project_hits(recorder, args, _result, hits_before):
    """Projection-cache hits, read off the cache's own hit counter."""
    recorder.add("perf.project_hits", args[0].hits - hits_before)


def _key_execute(span, args):
    """Tag a ``service.execute`` span so worker spans can graft under it."""
    span.append(request_key(args[1]))


_HOOKS = {
    "perf.project": (lambda _span, args: args[0].hits, _project_hits),
    "petrinet.reachability": (None, _size("petrinet.markings", len)),
    "stategraph.build": (
        None, _size("stategraph.states", lambda graph: graph.num_states)
    ),
    "verify.verify": (
        None,
        _size("verify.states_explored", lambda report: report.states_explored),
    ),
    "service.execute": (_key_execute, None),
}


class Tracing:
    """Install span wrappers on entry, restore every original on exit.

    ``layers`` is a sequence of ``(name, module, attribute)`` triples;
    the :data:`COUNTED` helpers are always installed too.
    """

    def __init__(self, recorder, layers=SYNTHESIS_LAYERS):
        self.recorder = recorder
        self.layers = tuple(layers)
        self._patched = []  # (owner, name, original)

    def __enter__(self):
        for name, module, attribute in self.layers:
            owner, attr, original = _resolve(module, attribute)
            self._install(owner, attr, original, _timed(
                self.recorder, name, original, _HOOKS.get(name, (None, None))
            ))
        for name, module, attribute in COUNTED:
            owner, attr, original = _resolve(module, attribute)
            self._install(
                owner, attr, original,
                _counted(self.recorder, name, original),
            )
        return self.recorder

    def _install(self, owner, attr, original, wrapper):
        if inspect.isclass(owner):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function: rebind it in every repro module that
        # imported it by name, so each caller's lookup finds the wrapper.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every patched attribute holds its original again."""
        return all(
            (owner.__dict__[attr] if inspect.isclass(owner)
             else getattr(owner, attr)) is original
            for owner, attr, original in self._patched
        )


# -- worker-side tracing for the service's process pool ---------------------


def request_key(document):
    """Key shared by a parent ``_execute`` span and its worker's spans."""
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def worker_init(out_dir):
    """Pool initializer: trace synthesis layers inside this worker.

    ``repro.service._execute_request`` is rebound to a wrapper that
    records the request's span tree and appends it, keyed by
    :func:`request_key`, to ``<out_dir>/worker-<pid>.jsonl`` -- a pool
    worker has no exit hook, so each request is flushed as it finishes.
    The pool pickles the function by name, so the worker's lookup finds
    the wrapper.
    """
    import repro.service

    recorder = Recorder()
    Tracing(recorder).__enter__()
    original = repro.service._execute_request
    path = os.path.join(out_dir, f"worker-{os.getpid()}.jsonl")

    @functools.wraps(original)
    def traced_execute(document, *args, **kwargs):
        span, token = recorder.open("service.worker", "worker")
        try:
            return original(document, *args, **kwargs)
        finally:
            recorder.close(span, token)
            record = {
                "key": request_key(document),
                "spans": recorder.spans,
                "counts": recorder.counts,
            }
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            recorder.spans = []
            recorder.counts = {}

    repro.service._execute_request = traced_execute


def graft_worker_spans(recorder, out_dir):
    """Adopt the workers' span trees under the matching ``service.execute``
    spans; returns how many worker requests found no parent."""
    parents = {}
    for span in recorder.spans:
        if span[1] == "service.execute" and len(span) > 6:
            parents[span[6]] = span
    orphans = 0
    for entry in sorted(os.listdir(out_dir)):
        if not entry.startswith("worker-"):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                parent = parents.get(record["key"])
                if parent is None:
                    orphans += 1
                    continue
                remap = {}
                for span in record["spans"]:
                    recorder._next_id += 1
                    remap[span[0]] = recorder._next_id
                for span in record["spans"]:
                    recorder.spans.append([
                        remap[span[0]], span[1],
                        remap.get(span[2], parent[0]),
                        span[3], span[4], parent[5],
                    ])
                for name, amount in record["counts"].items():
                    recorder.add(name, amount)
    return orphans


# -- attribution -------------------------------------------------------------


def self_times(spans):
    """``{span id: self seconds}`` -- duration minus direct children."""
    covered = {}
    for span in spans:
        if span[2] is not None:
            covered[span[2]] = covered.get(span[2], 0.0) + span[4] - span[3]
    return {
        span[0]: (span[4] - span[3]) - covered.get(span[0], 0.0)
        for span in spans
    }


def layer_totals(spans):
    """Per span name: ``{"self": s, "inclusive": s, "calls": n}``.

    A span nested directly in a same-name span adds self time but is not
    a separate call (and adds no inclusive time).
    """
    own = self_times(spans)
    by_id = {span[0]: span for span in spans}
    totals = {}
    for span in spans:
        entry = totals.setdefault(
            span[1], {"self": 0.0, "inclusive": 0.0, "calls": 0}
        )
        entry["self"] += own[span[0]]
        parent = by_id.get(span[2])
        if parent is None or parent[1] != span[1]:
            entry["calls"] += 1
            entry["inclusive"] += span[4] - span[3]
    return totals, min(own.values(), default=0.0)


#: Per-layer metrics a traced run prints, with their units.  Every ``_s``
#: metric is a self time except ``service.execute_s``, the whole time
#: spent awaiting the pool (its self time is ``service.queue_wait_s``).
PER_LAYER = {
    "csc.polish_s": "s",
    "csc.polish_trials": "count",
    "csc.polish_flips": "count",
    "csc.polish_accept_ratio": "ratio",
    "csc.expand_calls": "count",
    "stategraph.csc_conflicts_calls": "count",
    "logic.minimize_s": "s",
    "csc.input_set_s": "s",
    "csc.input_set_calls": "count",
    "perf.project_s": "s",
    "perf.project_calls": "count",
    "perf.proj_hit_rate": "ratio",
    "petrinet.reachability_s": "s",
    "petrinet.markings": "count",
    "stategraph.build_s": "s",
    "stategraph.states": "count",
    "stg.parse_s": "s",
    "setup.parse_s": "s",
    "setup.reachability_s": "s",
    "csc.partition_sat_s": "s",
    "csc.modules": "count",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "csc.propagate_s": "s",
    "csc.state_signals_total": "count",
    "verify.verify_s": "s",
    "verify.states_explored": "count",
    "service.parse_s": "s",
    "service.fingerprint_s": "s",
    "service.cache_get_s": "s",
    "service.cache_put_s": "s",
    "service.execute_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_s": "s",
    "service.hit_rate": "ratio",
    "service.dedup_count": "count",
    "load.lateness_p95_ms": "ms",
    "runtime.run_s": "s",
    "runtime.unattributed_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.attribution_error": "ratio",
}

#: Largest tolerated gap between the attributed time and the wall clock.
ATTRIBUTION_TOLERANCE = 0.01

#: Largest tolerated share of ``runtime.run`` that no wrapped layer
#: covers (its self time over its inclusive time).  Traced runs read
#: about 2% on ``table1`` and 5% on ``clean_wide``; ``service_mix`` sets
#: its own limit.
UNWRAPPED_LIMIT = 0.15


def by_root(spans):
    """Spans grouped by the name of the root span they descend from."""
    by_id = {span[0]: span for span in spans}
    groups = {}
    for span in spans:
        root = span
        while root[2] is not None:
            root = by_id[root[2]]
        groups.setdefault(root[1], []).append(span)
    return groups


def setup_metrics(spans, wall):
    """The traced set-up's split: parsing and reachability self time.

    Returns ``(metrics, problems)`` like :func:`layer_metrics`.
    """
    totals, min_self = layer_totals(spans)
    metrics = {
        "setup.parse_s": totals.get("stg.parse", {}).get("self", 0.0),
        "setup.reachability_s": totals.get(
            "petrinet.reachability", {}
        ).get("self", 0.0),
    }
    return metrics, _attribution_problems(totals, min_self, wall)[1]


def _attribution_problems(totals, min_self, wall,
                          unwrapped_limit=UNWRAPPED_LIMIT):
    """``(error, problems)``: the roots' and layers' self times must sum
    to ``wall``, and no self time may be negative (a span outliving its
    parent).

    Self times sum to the root spans' durations by construction, so the
    sum only confirms that the root spans and the benchmark's stopwatch
    agree.  The check that can fail on the program is the one on
    ``runtime.run``'s unwrapped share, at most ``unwrapped_limit``.
    """
    layered = sum(v["self"] for k, v in totals.items() if k not in ROOTS)
    unattributed = sum(v["self"] for k, v in totals.items() if k in ROOTS)
    error = abs(layered + unattributed - wall) / wall
    problems = []
    if error > ATTRIBUTION_TOLERANCE:
        problems.append(
            f"attribution: layers {layered:.4f}s + unattributed "
            f"{unattributed:.4f}s != wall {wall:.4f}s"
        )
    if min_self < -1e-6:
        problems.append(f"attribution: negative self time {min_self:.6f}s")
    run = totals.get("runtime.run")
    if run and run["self"] > unwrapped_limit * run["inclusive"]:
        problems.append(
            f"attribution: {run['self']:.4f}s of runtime.run's "
            f"{run['inclusive']:.4f}s is in no wrapped layer"
        )
    return error, problems


def layer_metrics(spans, counts, wall, unwrapped_limit=UNWRAPPED_LIMIT):
    """Per-layer metrics of traced work whose root spans took ``wall``
    seconds by the benchmark's own stopwatch.

    ``spans`` are the spans of that work, ``counts`` the counts booked
    while it ran.  Returns ``(metrics, problems)``; ``problems`` lists
    failed attribution checks (see :func:`_attribution_problems`).
    """
    totals, min_self = layer_totals(spans)

    def self_s(name):
        return totals.get(name, {}).get("self", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    metrics = dict.fromkeys(PER_LAYER, 0)
    metrics.update({
        "csc.polish_trials": counts.get("csc.polish_trials", 0),
        "csc.polish_flips": counts.get("csc.polish_flips", 0),
        "csc.polish_accept_ratio": ratio(
            counts.get("csc.polish_flips", 0),
            counts.get("csc.polish_trials", 0),
        ),
        "csc.expand_calls": counts.get("csc.expand_calls", 0),
        "stategraph.csc_conflicts_calls": counts.get(
            "stategraph.csc_conflicts_calls", 0
        ),
        "csc.input_set_calls": calls("csc.input_set"),
        "perf.project_calls": calls("perf.project"),
        "perf.proj_hit_rate": ratio(
            counts.get("perf.project_hits", 0), calls("perf.project")
        ),
        "petrinet.markings": counts.get("petrinet.markings", 0),
        "stategraph.states": counts.get("stategraph.states", 0),
        "csc.modules": calls("csc.partition_sat"),
        "sat.solve_calls": calls("sat.solve"),
        "verify.states_explored": counts.get("verify.states_explored", 0),
        "service.execute_s": totals.get("service.execute", {}).get(
            "inclusive", 0.0
        ),
        "service.queue_wait_s": self_s("service.execute"),
    })
    for name in totals:
        metric = f"{name}_s"
        if metric in PER_LAYER and name != "service.execute":
            metrics[metric] = self_s(name)
    metrics["runtime.unattributed_s"] = sum(
        v["self"] for k, v in totals.items() if k in ROOTS
    )
    error, problems = _attribution_problems(
        totals, min_self, wall, unwrapped_limit
    )
    metrics["obs.attribution_error"] = error
    return metrics, problems


def share_notes(spans, wall, top=8):
    """Human-readable lines: the largest self times as shares of ``wall``."""
    totals, _ = layer_totals(spans)
    ranked = sorted(totals.items(), key=lambda item: -item[1]["self"])
    return [
        f"self {name} {entry['self']:.4f}s {entry['self'] / wall:.1%} "
        f"calls={entry['calls']}"
        for name, entry in ranked[:top]
    ]
