"""Synthesis-as-a-service: the asyncio HTTP front end.

``python -m repro serve`` turns the synthesis pipeline into a small
HTTP service speaking the versioned :mod:`repro.api` wire format:

``POST /synthesize``
    Body is either raw astg ``.g`` source or a ``repro-api/1`` request
    document (:class:`~repro.api.SynthesisRequest` as JSON).  The reply
    is a canonical ``repro-api/1`` response document -- the exact bytes
    :func:`repro.api.to_json_bytes` produces, so duplicate uploads
    replay byte-identically.
``GET /metrics``
    Prometheus text exposition of the service counters
    (``service_requests``, ``service_cache_hits``, ...), the request
    latency histogram and the shared result-cache statistics.
``GET /healthz``
    Liveness probe: ``{"status": "ok", "inflight": n}``.

The front end is a single asyncio event loop; synthesis itself runs on
a bounded worker pool (``--jobs`` processes).  Three layers keep one
request from being computed twice:

1. **Response replay** -- with ``--cache-dir`` set, complete responses
   are stored in the shared sharded :class:`~repro.perf.result_cache.
   ResultCache` under the ``response`` record kind, keyed by
   :meth:`~repro.api.SynthesisRequest.fingerprint` (canonical ``.g``
   text plus the synthesis-relevant knobs), so a repeated upload --
   even reformatted -- replays the stored bytes without touching a
   worker.  Budgeted requests (``timeout_seconds`` set) are never
   cached: a wall-clock-bounded outcome is not a pure function of the
   input (the same contract the artifact cache enforces).
2. **In-flight coalescing** -- concurrent identical requests
   single-flight on the leader's future; followers are counted as
   ``service_inflight_dedup`` and served the ``"hit"``-tier bytes.
3. **Worker caches** -- executing workers share the same cache
   directory for artifact records, so a fresh request for an already
   synthesised circuit (under different verify or server knobs) skips
   synthesis.

HTTP status codes classify *transport* outcomes only: a synthesis
error or timeout is still a valid API response (200) carrying its own
``status``/``exit_code``; 4xx means the request never reached a worker
(malformed document, invalid STG); 5xx is reserved for infrastructure
failure -- a worker pool that kept dying past the
:class:`~repro.runtime.supervise.RetryPolicy` budget.  A dead pool is
respawned with the policy's deterministic backoff
(``service_worker_respawns``).  This pool is the repository's one
worker pool: synthesis itself always runs serially inside a worker.

Observability: each request runs under a ``service_request`` span (so
``--trace`` journals the service like any run), latencies land in the
``service_request_seconds`` histogram, and the counters feed the
derived ``service_cache_hit_rate`` gauge (``docs/observability.md``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import sys
import time
import traceback
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

from repro import api, obs
from repro.errors import ReproError
from repro.obs.export import prometheus_text
from repro.obs.metrics import Counters, Histogram
from repro.obs.profile import with_derived
from repro.perf.result_cache import ResultCache
from repro.runtime.supervise import RetryPolicy, WorkerCrashError

#: Result-cache record kind holding whole serialized responses.
RESPONSE_KIND = "response"

#: Largest request body the HTTP layer accepts (a ``.g`` upload is
#: kilobytes; anything near this bound is not a circuit).
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def parse_request(body):
    """Decode a ``POST /synthesize`` body into a
    :class:`~repro.api.SynthesisRequest`.

    A body whose first non-blank character is ``{`` is parsed as a
    ``repro-api/1`` request document; anything else is taken as raw
    ``.g`` source with default knobs.  Raises
    :class:`~repro.api.ApiError` on anything malformed.
    """
    if isinstance(body, (bytes, bytearray)):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise api.ApiError(f"body is not UTF-8 text: {exc}") from exc
    stripped = body.lstrip()
    if not stripped:
        raise api.ApiError("empty request body")
    if stripped.startswith("{"):
        value = api.from_json(body)
        if not isinstance(value, api.SynthesisRequest):
            raise api.ApiError(
                "body must be a request document, not a response"
            )
        return value
    return api.SynthesisRequest(g_text=body)


def _execute_request(document, cache_dir=None, verify=True):
    """Run one request end to end; returns the response as a
    ``repro-api/1`` dict.

    Module-level with JSON-safe arguments so it pickles into a process
    pool worker.  The parent already validated the document and the
    ``.g`` text, so an exception escaping here is an infrastructure
    failure, which the service surfaces as HTTP 500.
    """
    from repro.runtime.run import run_synthesis
    from repro.stg.parse import parse_g

    request = api.from_json(document)
    stg = parse_g(request.g_text)
    options = request.to_options(cache_dir=cache_dir)
    if not verify:
        # Server-side opt-out (--no-verify): downgrade to the static
        # CSC re-check regardless of what the request asked for.
        options = options.evolve(verify_level="csc")
    report = run_synthesis(stg, method=request.method, options=options)
    response = api.response_from_report(report, model=stg.name)
    return api.to_json(response)


class SynthesisService:
    """The transport-independent request handler behind the HTTP layer.

    Parameters
    ----------
    cache_dir:
        Shared :class:`~repro.perf.result_cache.ResultCache` directory.
        ``None`` disables response replay (responses report
        ``cache="off"``) and worker-side artifact caching.
    jobs:
        Worker pool width -- the bound on concurrently *executing*
        requests (each worker runs one synthesis serially; the service
        parallelises across requests, not within one).
    verify:
        Honour each request's ``verify_level`` (default ``"hazards"``:
        gate-level conformance plus persistency) and record the verdict
        in ``response.verified``/``response.verify``.  ``False``
        downgrades every request to the static ``csc`` re-check.
    executor:
        ``"process"`` (default), ``"thread"``, ``"inline"`` (run in the
        event loop thread -- deterministic, for tests), or a zero-arg
        factory returning a :class:`concurrent.futures.Executor` (used
        for every (re)spawn).
    retry:
        :class:`~repro.runtime.supervise.RetryPolicy` governing pool
        respawns after a worker crash; defaults to ``RetryPolicy()``.
    """

    def __init__(self, cache_dir=None, jobs=1, verify=True,
                 executor="process", retry=None):
        self.jobs = max(1, int(jobs))
        self.verify = bool(verify)
        self.cache_dir = (
            os.fspath(cache_dir) if cache_dir is not None else None
        )
        self.cache = (
            ResultCache(self.cache_dir) if self.cache_dir else None
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.counters = Counters()
        self.histograms = {
            "service_request_seconds": Histogram("service_request_seconds"),
        }
        self._executor_spec = executor
        self._executor = None
        self._generation = 0
        self._inflight = {}

    # -- request handling --------------------------------------------------

    async def synthesize(self, body):
        """Handle one upload; returns ``(http_status, payload_bytes)``.

        Never raises on a request-shaped failure: malformed input comes
        back 400, an unrecoverable worker crash 500, everything else
        200 with the outcome encoded in the response document.
        """
        start = time.perf_counter()
        self._tick("service_requests")
        with obs.span("service_request") as span:
            try:
                status, payload = await self._synthesize(body, span)
            finally:
                elapsed = time.perf_counter() - start
                self.histograms["service_request_seconds"].observe(elapsed)
                obs.observe("service_request_seconds", elapsed)
            span.set("http_status", status)
        return status, payload

    async def _synthesize(self, body, span):
        try:
            request = parse_request(body)
        except api.ApiError as exc:
            return self._reject(400, str(exc))
        try:
            # ``g_text`` is literal source by contract: parse_g, never
            # load_stg, so an upload cannot name a server-side path.
            from repro.stg.parse import parse_g
            from repro.stg.validate import validate_stg

            validate_stg(parse_g(request.g_text))
        except ReproError as exc:
            return self._reject(
                400, f"invalid specification: {exc.describe()}"
            )
        fingerprint = request.fingerprint()
        span.set("fingerprint", fingerprint[:12])

        cacheable = (
            self.cache is not None and request.timeout_seconds is None
        )
        if cacheable:
            payload = self.cache.get(RESPONSE_KIND, fingerprint)
            if payload is not None:
                self._tick("service_cache_hits")
                span.set("tier", "hit")
                return 200, bytes(payload)

        pending = self._inflight.get(fingerprint)
        if pending is not None:
            # Coalesce onto the identical request already executing;
            # shield so one impatient client cannot cancel the leader.
            self._tick("service_inflight_dedup")
            span.set("tier", "dedup")
            try:
                _miss, hit_bytes = await asyncio.shield(pending)
            except WorkerCrashError as exc:
                return self._reject(500, str(exc))
            return 200, hit_bytes

        task = asyncio.ensure_future(
            self._lead(request, fingerprint, cacheable)
        )
        self._inflight[fingerprint] = task
        task.add_done_callback(
            lambda _t: self._inflight.pop(fingerprint, None)
        )
        span.set("tier", "miss" if cacheable else "off")
        try:
            miss_bytes, _hit = await asyncio.shield(task)
        except WorkerCrashError as exc:
            return self._reject(500, str(exc))
        return 200, miss_bytes

    async def _lead(self, request, fingerprint, cacheable):
        """Execute once for every coalesced requester.

        Returns ``(first_bytes, hit_bytes)``: the leader's own response
        (tier ``"miss"``, or ``"off"`` when uncacheable) and the
        ``"hit"`` variant -- the bytes stored for replay and served to
        every follower, so all non-first responses are byte-identical.
        """
        self._tick("service_cache_misses")
        response_doc = await self._execute(
            api.to_json(request), fingerprint
        )
        response = api.from_json(response_doc)
        if response.status in ("error", "timeout"):
            self._tick("service_errors")
        first = response.evolve(cache="miss" if cacheable else "off")
        hit_bytes = api.to_json_bytes(response.evolve(cache="hit"))
        if cacheable and response.ok:
            self.cache.put(RESPONSE_KIND, fingerprint, hit_bytes)
        return api.to_json_bytes(first), hit_bytes

    # -- worker pool -------------------------------------------------------

    async def _execute(self, document, token):
        """Dispatch to the pool, respawning it on crash per the policy."""
        attempt = 0
        while True:
            generation = self._generation
            try:
                return await self._submit(document)
            except BrokenExecutor as exc:
                # Only the first observer of a broken generation kills
                # it; collateral failures must not shoot the fresh pool.
                if self._generation == generation:
                    self._discard_executor()
                    self._tick("service_worker_respawns")
                    obs.add("worker_deaths")
                attempt += 1
                if attempt > self.retry.retries:
                    raise WorkerCrashError(
                        f"service worker died {attempt} times on request "
                        f"{token[:12]}: {exc or type(exc).__name__}"
                    ) from exc
                await asyncio.sleep(self.retry.delay(attempt, token=token))

    async def _submit(self, document):
        call = functools.partial(
            _execute_request, document,
            cache_dir=self.cache_dir, verify=self.verify,
        )
        if self._executor_spec == "inline":
            return call()
        if self._executor is None:
            self._executor = self._make_executor()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, call)

    def _make_executor(self):
        spec = self._executor_spec
        if callable(spec):
            return spec()
        if spec == "process":
            # Never fork: by the time the pool spawns lazily, the event
            # loop and the executor manager thread exist, and a fork
            # then copies locks mid-flight -- workers deadlock on the
            # first submit.  A forkserver (or spawn) context starts
            # workers from a thread-free process.
            import multiprocessing

            try:
                context = multiprocessing.get_context("forkserver")
            except ValueError:  # pragma: no cover - platform-dependent
                context = multiprocessing.get_context("spawn")
            return ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        if spec == "thread":
            return ThreadPoolExecutor(max_workers=self.jobs)
        raise ValueError(
            f"executor must be 'process', 'thread', 'inline' or a "
            f"factory, not {spec!r}"
        )

    def _discard_executor(self):
        self._generation += 1
        pool = self._executor
        self._executor = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self):
        """Release the worker pool (idempotent)."""
        pool = self._executor
        self._executor = None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- introspection -----------------------------------------------------

    def metrics_text(self):
        """The ``/metrics`` body: Prometheus text of counters,
        the latency histogram, and derived hit rates."""
        totals = Counters()
        totals.merge(self.counters)
        if self.cache is not None:
            stats = self.cache.stats()
            for name in ("hits", "misses", "stale", "stores",
                         "evictions", "io_errors"):
                totals.add(f"result_cache_{name}", stats[name])
        return prometheus_text(
            counters=with_derived(totals), histograms=self.histograms
        )

    def health(self):
        """The ``/healthz`` body."""
        return {"status": "ok", "inflight": len(self._inflight)}

    # -- internals ---------------------------------------------------------

    def _tick(self, counter):
        self.counters.add(counter)
        obs.add(counter)

    def _reject(self, status, message):
        self._tick("service_errors")
        body = json.dumps(
            {"schema": api.API_SCHEMA, "kind": "error", "error": message},
            sort_keys=True,
        ).encode("utf-8")
        return status, body


# -- the HTTP layer --------------------------------------------------------


async def handle_connection(service, reader, writer):
    """Serve HTTP/1.1 requests on one connection until it closes."""
    try:
        while True:
            parsed = await _read_request(reader)
            if parsed is None:
                break
            method, path, headers, body, overlong = parsed
            if overlong:
                status, ctype, payload = 413, "application/json", (
                    b'{"error": "request body too large"}'
                )
            else:
                try:
                    status, ctype, payload = await _route(
                        service, method, path, body
                    )
                except Exception:
                    # A bug must not kill the server; it becomes this
                    # request's 500 and is logged for the operator.
                    traceback.print_exc(file=sys.stderr)
                    status, ctype, payload = 500, "application/json", (
                        b'{"error": "internal server error"}'
                    )
            keep = (
                not overlong
                and headers.get("connection", "").lower() != "close"
            )
            writer.write(_render_response(status, ctype, payload, keep))
            await writer.drain()
            if not keep:
                break
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionResetError,
    ):
        pass  # client went away mid-request; nothing to answer
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _read_request(reader):
    """One parsed request: ``(method, path, headers, body, overlong)``,
    or ``None`` on a clean EOF between requests."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise asyncio.IncompleteReadError(head, None)
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY_BYTES:
        # Drain what the client already sent, then refuse.
        while length > 0:
            chunk = await reader.read(min(length, 65536))
            if not chunk:
                break
            length -= len(chunk)
        return method, path, headers, b"", True
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body, False


async def _route(service, method, path, body):
    """Dispatch one request; returns ``(status, content_type, bytes)``."""
    path = path.split("?", 1)[0]
    if path == "/synthesize":
        if method != "POST":
            return 405, "application/json", b'{"error": "POST only"}'
        status, payload = await service.synthesize(body)
        return status, "application/json", payload
    if path == "/metrics":
        if method != "GET":
            return 405, "text/plain", b"GET only\n"
        text = service.metrics_text()
        return 200, "text/plain; version=0.0.4", text.encode("utf-8")
    if path == "/healthz":
        if method != "GET":
            return 405, "application/json", b'{"error": "GET only"}'
        payload = json.dumps(service.health(), sort_keys=True)
        return 200, "application/json", payload.encode("utf-8")
    return 404, "application/json", b'{"error": "unknown path"}'


def _render_response(status, content_type, payload, keep_alive):
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + payload


async def start_server(service, host="127.0.0.1", port=0):
    """Bind the service; returns the :class:`asyncio.Server` (port 0
    picks a free port -- read it off ``server.sockets``)."""
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(service, reader, writer),
        host=host, port=port,
    )


def run_server(host="127.0.0.1", port=8080, cache_dir=None, jobs=1,
               verify=True, executor="process"):
    """Blocking entry point behind ``python -m repro serve``.

    Prints one ``serving on http://host:port`` line once the socket is
    bound (the smoke tests and the load generator wait for it), then
    serves until interrupted.
    """

    async def _main():
        service = SynthesisService(
            cache_dir=cache_dir, jobs=jobs, verify=verify,
            executor=executor,
        )
        server = await start_server(service, host=host, port=port)
        bound = server.sockets[0].getsockname()
        print(f"serving on http://{bound[0]}:{bound[1]}", flush=True)
        try:
            async with server:
                await server.serve_forever()
        finally:
            service.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
