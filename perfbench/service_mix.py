"""Service workload: an open-loop upload mix against the HTTP service.

An in-process ``SynthesisService`` (process executor, ``jobs=1``, a fresh
``cache_dir`` per run) serves ``start_server`` on loopback.  The corpus is
a draw of distinct ``generate_stg(signals=6, width=2, csc_density=0.3)``
circuits; each is uploaded :data:`REPEATS` times in an order drawn from
the run's seed (see :func:`draw_corpus`), so a third of the requests are
misses (synthesis, hazards verification, cache write) and the rest are
replays from the cache or in-flight dedups.

The corpus itself is drawn with the fixed :data:`CORPUS_SEED`: these
small circuits differ a lot in size (some need state signals, most do
not), and a fresh draw of 150 per run moved the workload's total
literals by about 9% and its miss latencies by 20% from seed to seed.
The run's seed decides the upload order, which decides which uploads
meet in flight and how misses and replays interleave.

Load is an open loop: request ``i`` is due at ``i / RATE`` seconds and is
sent on the first free one of :data:`CONNECTIONS` keep-alive connections.
Latency is timed from when a request was due, so a stall shows in every
request it delays; how late the generator ran is reported too.  All of
it runs on one asyncio event loop in this process.

The worker pool is built with the ``spawn`` start method so that its
worker is a direct child of this process: once the pool is shut down the
worker is reaped and its peak RSS counts in ``peak_rss_mb``.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import calibrate
import checks
import probe
import spans

#: Latency limit on ``latency_p95_ms``: twice the p95 of a lightly
#: loaded service (12.5-17.8 ms at 15 requests/s).
LATENCY_LIMIT_MS = 35.0

#: Arrival rate of the open loop, in requests per second: the highest
#: rate of a sweep (``sweep.py``, 10 s per run, 6 to 8 runs per rate up
#: to 90/s, on a 2-vCPU x86 virtual machine) whose p95 stayed under
#: :data:`LATENCY_LIMIT_MS` on every run.  p95 read 24.1-30.7 ms at
#: 30/s, 30.5-36.5 ms at 45/s, 30.2-40.5 ms at 60/s, 32-334 ms at 90/s
#: and 270-330 ms in two runs at 120/s.  Up to 30/s the generator also
#: sent on time (p95 2-3 ms late); at 45/s and 60/s requests waited
#: 7-52 ms for a free connection.
RATE = 30.0

#: Uploads of every circuit.
REPEATS = 3

#: Rounds (one new circuit each, a tenth of a second at :data:`RATE`)
#: over which a circuit's replays are spread.
REPLAY_WINDOW = 10

#: Keep-alive client connections (at most the machine's processor count).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Seed of the corpus draw (see the module docstring).
CORPUS_SEED = 0

#: Largest share of the worker's ``runtime.run`` that no wrapped layer
#: may cover (see ``spans.UNWRAPPED_LIMIT``).  On these small circuits
#: the synthesis driver's own work between layers is a large share:
#: traced runs read 24-36%.
UNWRAPPED_LIMIT = 0.6

#: Modules the service workload loads; their import is part of set-up.
MODULES = ("repro.service", "repro.api", "repro.runtime.run",
           "repro.stg.generate")


def draw_corpus(seed, count):
    """``count`` distinct circuits and the upload schedule drawn by
    ``seed``.

    Returns ``(circuits, warmup, schedule)``: ``circuits`` are ``(name,
    body)`` pairs, ``warmup`` one more distinct circuit for warming the
    pool, ``schedule`` the circuit index of every request in order.
    Circuits with equal request fingerprints are drawn only once, so each
    one misses exactly once.

    The schedule introduces the circuits in a seeded order, one per
    *round*, and puts each circuit's replays in rounds drawn from the
    :data:`REPLAY_WINDOW` rounds starting with its own; a round is its
    circuit's first upload, then its replays shuffled.  First uploads
    (the misses) thus arrive
    evenly over the run.  A plain shuffle of all uploads put half of the
    misses in the first fifth of the run, where they queued for the one
    worker, and the depth of that queue depended on the seed.
    """
    from repro.api import SynthesisRequest
    from repro.stg.generate import generate_stg

    rng = random.Random(CORPUS_SEED)
    seen = set()
    circuits = []
    while len(circuits) < count + 1:
        generated = generate_stg(
            signals=6, width=2, csc_density=0.3, seed=rng.randrange(2**31)
        )
        key = SynthesisRequest(g_text=generated.g_text).fingerprint()
        if key not in seen:
            seen.add(key)
            circuits.append((generated.name, generated.g_text.encode()))
    warmup = circuits.pop()
    order = random.Random(seed)
    introduced = list(range(count))
    order.shuffle(introduced)
    rounds = [[circuit] for circuit in introduced]
    for index, circuit in enumerate(introduced):
        last = min(count - 1, index + REPLAY_WINDOW - 1)
        for _ in range(REPEATS - 1):
            rounds[order.randint(index, last)].append(circuit)
    schedule = []
    for requests in rounds:
        replays = requests[1:]
        order.shuffle(replays)
        # The first upload leads its round, so it is the miss.
        schedule += requests[:1] + replays
    return circuits, warmup, schedule


async def _post(reader, writer, body):
    """One ``POST /synthesize`` on a keep-alive connection."""
    writer.write(
        b"POST /synthesize HTTP/1.1\r\nHost: perfbench\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _sep, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def _init_worker(trace_dir):
    """Pool initializer: take reference readings and, when tracing, trace
    the synthesis layers."""
    calibrate.start_worker_sampler()
    if trace_dir is not None:
        spans.worker_init(trace_dir)


class Server:
    """A booted service on loopback, warmed by one request.

    ``pools`` holds every worker pool the service's executor factory
    built (a crash respawns one); ``pool`` is the live one.  Its worker
    takes reference readings for its whole life (see ``calibrate.py``).
    """

    def __init__(self, service, server, port, cache_dir, pools):
        self.service = service
        self.server = server
        self.port = port
        self.cache_dir = cache_dir
        self.pools = pools

    @property
    def pool(self):
        return self.pools[-1]

    @classmethod
    async def boot(cls, out_dir, warmup, trace_dir=None):
        """Boot and warm a server; with ``trace_dir`` its worker traces
        the synthesis layers into that directory."""
        from repro.service import SynthesisService, start_server

        pools = []

        def make_pool():
            pool = ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker, initargs=(trace_dir,),
            )
            pools.append(pool)
            return pool

        cache_dir = tempfile.mkdtemp(prefix="service-cache-", dir=out_dir)
        service = SynthesisService(
            cache_dir=cache_dir, jobs=1, executor=make_pool
        )
        server = await start_server(service)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            status, _payload = await _post(reader, writer, warmup[1])
        finally:
            writer.close()
            await writer.wait_closed()
        if status != 200:
            raise RuntimeError(f"warm-up request failed with {status}")
        return cls(service, server, port, cache_dir, pools)

    async def worker_sampler(self):
        """The live worker's reference readings so far."""
        loop = asyncio.get_running_loop()
        return calibrate.Sampler.from_readings(
            await loop.run_in_executor(self.pool, calibrate.readings)
        )

    async def close(self):
        self.server.close()
        await self.server.wait_closed()
        await asyncio.to_thread(self.service.close)
        # The service waits only for its live pool; a pool it discarded
        # after a worker crash is waited for here.
        for pool in self.pools:
            await asyncio.to_thread(pool.shutdown, True)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


async def drive(server, circuits, schedule, sampler):
    """Run the open loop; returns one record per request.

    Each request's ``latency`` is its raw latency (``done - due``) at
    reference speed: the readings taken inside it (this process's, and
    for a miss the worker's too) are excluded, and the speed is the one
    both processes read around it while no request was in flight (see
    ``calibrate.idle_sampler``).
    """
    start = time.perf_counter() + 0.05
    pending = list(enumerate(schedule))
    pending.reverse()
    records = []

    async def connection():
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            while pending:
                index, circuit = pending.pop()
                due = start + index / RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                status, payload = await _post(
                    reader, writer, circuits[circuit][1]
                )
                records.append({
                    "circuit": circuit, "due": due, "sent": sent,
                    "done": time.perf_counter(), "status": status,
                    "payload": payload,
                })
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    worker = await server.worker_sampler()
    idle = calibrate.idle_sampler(
        (sampler, worker), [(r["due"], r["done"]) for r in records]
    )
    for record in records:
        record["raw_latency"] = record["done"] - record["due"]
        missed = record["status"] == 200 and b'"cache":"miss"' in (
            record["payload"]
        )
        samplers = (sampler, worker) if missed else (sampler,)
        record["latency"] = calibrate.scaled(
            record["due"], record["done"], samplers, idle
        )
    return records, start


def judge(records, circuits):
    """Check every response.

    A request fails on a non-200 status, a document whose status is not
    ``ok`` or whose hazards verdict is not clean, or a duplicate that is
    not byte-identical: every replay of a circuit must carry the same
    bytes, equal to the miss's document with its tier set to ``hit``.

    Returns ``(failures, misses, tiers)``: ``misses`` maps a circuit to
    its miss document and latency; ``tiers`` maps ``miss`` and ``hit`` to
    the latencies of misses and of replays sent after their circuit's
    miss had completed.  An in-flight dedup follower, which waits for the
    miss's synthesis, counts in neither.
    """
    failures = []
    answers = {}
    for record in records:
        name = circuits[record["circuit"]][0]
        if record["status"] != 200:
            failures.append(f"{name}: HTTP {record['status']}")
            continue
        doc = json.loads(record["payload"])
        if doc.get("status") != "ok" or doc.get("verified") is not True:
            failures.append(
                f"{name}: status {doc.get('status')} "
                f"verified {doc.get('verified')}"
            )
            continue
        answers.setdefault(record["circuit"], []).append((doc, record))
    misses = {}
    tiers = {"miss": [], "hit": []}
    for circuit, answered in answers.items():
        name = circuits[circuit][0]
        miss = [(doc, record) for doc, record in answered
                if doc["cache"] == "miss"]
        hits = [record for doc, record in answered if doc["cache"] == "hit"]
        bodies = {record["payload"] for record in hits}
        if len(miss) != 1 or len(bodies) > 1:
            failures.append(
                f"{name}: {len(miss)} misses, {len(bodies)} distinct replays"
            )
            continue
        doc, record = miss[0]
        if bodies and json.loads(bodies.pop()) != dict(doc, cache="hit"):
            failures.append(f"{name}: replay differs from the miss")
            continue
        misses[circuit] = (doc, record["latency"])
        tiers["miss"].append(record["latency"])
        tiers["hit"] += [hit["latency"] for hit in hits
                         if hit["sent"] >= record["done"]]
    return failures, misses, tiers


def _rows(circuits, misses):
    rows = []
    for circuit, (doc, latency) in sorted(misses.items()):
        quality = (doc["final_states"], doc["final_signals"],
                   len(doc["state_signals"]), doc["literals"])
        rows.append(checks.row(circuits[circuit][0], quality, [latency]))
    return rows


def circuit_count(seconds):
    return max(1, math.ceil(RATE * seconds / REPEATS))


async def _timed(seed, seconds, out_dir, sampler):
    """Set-up rounds, then the load on the last round's server.

    A round is a fresh interpreter importing the program and drawing the
    corpus, plus booting a server here and warming its pool.
    """
    circuits, warmup, schedule = draw_corpus(seed, circuit_count(seconds))
    rounds = []
    server = None
    while probe.more_rounds(rounds):
        if server is not None:
            await server.close()
        elapsed = probe.fresh_seconds("service_mix", seed, seconds)
        start = time.perf_counter()
        server = await Server.boot(out_dir, warmup)
        rounds.append(elapsed + sampler.scaled(start, time.perf_counter()))
    try:
        records, start = await drive(server, circuits, schedule, sampler)
    finally:
        await server.close()
    return statistics.median(rounds), records, start, circuits


def measure(seed, seconds, out_dir, sampler):
    """The timed run: end-to-end metrics and per-circuit rows."""
    setup_s, records, start, circuits = asyncio.run(
        _timed(seed, seconds, out_dir, sampler)
    )
    failures, misses, tiers = judge(records, circuits)
    rows = _rows(circuits, misses)
    latency = [r["latency"] for r in records]
    raw = [r["raw_latency"] for r in records]
    lateness = [r["sent"] - r["due"] for r in records]
    totals = checks.totals(rows)
    p95 = checks.quantile(latency, 0.95) * 1e3
    metrics = {
        "setup_s": setup_s,
        # The load's wall time is fixed by its schedule; the seconds the
        # requests took are what the program's speed moves.
        "suite_s": math.fsum(latency),
        "circuit_geomean_ms": checks.geomean(
            [latency for _doc, latency in misses.values()]
        ) * 1e3,
        "literals_total": totals["literals_total"],
        "signals_total": totals["signals_total"],
        "states_total": totals["states_total"],
        "latency_p50_ms": checks.quantile(latency, 0.5) * 1e3,
        "latency_p95_ms": p95,
        "miss_p50_ms": checks.quantile(tiers["miss"], 0.5) * 1e3,
        "hit_p50_ms": checks.quantile(tiers["hit"], 0.5) * 1e3,
    }
    notes = [
        f"requests={len(records)} circuits={len(circuits)} rate={RATE}/s "
        f"connections={CONNECTIONS} hits={len(tiers['hit'])} "
        f"load wall={max(r['done'] for r in records) - start:.3f}s",
        f"generator lateness p50={checks.quantile(lateness, 0.5) * 1e3:.3f}ms"
        f" p95={checks.quantile(lateness, 0.95) * 1e3:.3f}ms",
        f"latency_p95_ms={p95:.1f} limit={LATENCY_LIMIT_MS}"
        f" {'met' if p95 <= LATENCY_LIMIT_MS else 'MISSED'}"
        f" raw p50={checks.quantile(raw, 0.5) * 1e3:.3f}ms"
        f" p95={checks.quantile(raw, 0.95) * 1e3:.3f}ms",
    ]
    return {
        "metrics": metrics, "rows": rows, "attempted": len(records),
        "failures": failures, "notes": notes,
    }


async def _traced(seed, seconds, out_dir, trace_dir, sampler):
    circuits, warmup, schedule = draw_corpus(seed, circuit_count(seconds))
    server = await Server.boot(out_dir, warmup)
    try:
        untraced, _ = await drive(server, circuits, schedule, sampler)
    finally:
        await server.close()

    recorder = spans.Recorder()
    tracing = spans.Tracing(
        recorder, spans.SYNTHESIS_LAYERS + spans.SERVICE_LAYERS
    )
    server = await Server.boot(out_dir, warmup, trace_dir)
    for entry in os.listdir(trace_dir):  # drop the warm-up's spans
        os.remove(os.path.join(trace_dir, entry))
    before = _service_totals(server.service)
    try:
        with tracing:
            traced, _ = await drive(server, circuits, schedule, sampler)
    finally:
        await server.close()
    after = _service_totals(server.service)
    load = {name: after[name] - before[name] for name in after}
    return untraced, traced, recorder, tracing.restored(), load, circuits


def _service_totals(service):
    """The service's own request counters and request-seconds so far."""
    counters = service.counters
    return {
        "requests": counters.get("service_requests"),
        "hits": counters.get("service_cache_hits"),
        "dedups": counters.get("service_inflight_dedup"),
        "seconds": service.histograms["service_request_seconds"].total,
    }


def traced(seed, seconds, out_dir, sampler):
    """The traced run: an untraced load, then the same load traced."""
    trace_dir = tempfile.mkdtemp(prefix="worker-spans-", dir=out_dir)
    try:
        (untraced, traced_records, recorder, restored, load,
         circuits) = asyncio.run(
            _traced(seed, seconds, out_dir, trace_dir, sampler)
        )
        orphans = spans.graft_worker_spans(recorder, trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    recorder.write(os.path.join(out_dir, f"spans-service_mix-s{seed}.jsonl"))

    failures, misses, _tiers = judge(traced_records, circuits)
    untraced_failures, untraced_misses, _tiers = judge(untraced, circuits)
    failures += [f"untraced {failure}" for failure in untraced_failures]
    if not restored:
        failures.append("wrappers not restored")
    if orphans:
        failures.append(f"{orphans} worker span trees without a parent")
    for circuit, (doc, _latency) in misses.items():
        before = untraced_misses.get(circuit, ({}, 0))[0]
        fields = ("final_states", "final_signals", "state_signals", "literals")
        if any(doc[f] != before.get(f) for f in fields):
            failures.append(f"{circuits[circuit][0]}: traced result differs")

    # The service's own request-seconds are the wall clock the spans
    # must account for.
    metrics, problems = spans.layer_metrics(
        recorder.spans, recorder.counts, load["seconds"], UNWRAPPED_LIMIT
    )
    failures += problems
    metrics["service.hit_rate"] = load["hits"] / load["requests"]
    metrics["service.dedup_count"] = load["dedups"]
    metrics["load.lateness_p95_ms"] = checks.quantile(
        [r["sent"] - r["due"] for r in traced_records], 0.95
    ) * 1e3
    metrics["obs.trace_overhead"] = (
        statistics.mean(r["latency"] for r in traced_records)
        / statistics.mean(r["latency"] for r in untraced)
    )
    rows = _rows(circuits, misses)
    metrics["csc.state_signals_total"] = checks.totals(rows)[
        "state_signals_total"
    ]
    return {
        "metrics": metrics, "rows": rows,
        "attempted": len(untraced) + len(traced_records),
        "failures": failures,
        "notes": spans.share_notes(recorder.spans, load["seconds"]),
    }
