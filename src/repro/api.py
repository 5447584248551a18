"""Versioned request/response API for synthesis front ends.

Three consumers used to invent three ad-hoc dict shapes for "one
synthesis run as data": the HTTP service's wire format, the CLI's
machine-readable output, and whole-run replay records in the result
cache.  This module is the one serialization they now share:
:class:`SynthesisRequest` and :class:`SynthesisResponse` are frozen
dataclasses with ``to_json``/``from_json`` round-trips under the
``repro-api/1`` schema tag, so a response cached by the service, a
response printed by ``python -m repro --json``, and a response parsed
by a client are the same document.

The schema is versioned the same way the verification campaign
artifact is (``repro-verify-bench/1``): every document carries
``"schema": "repro-api/1"`` and ``from_json`` refuses anything else, so
a future shape change bumps the tag instead of silently re-reading old
documents.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from repro.sat import ENGINES, SAT_MODES
from repro.verify.checker import VERIFY_LEVELS

#: Schema tag carried by every serialized request/response document.
API_SCHEMA = "repro-api/1"

#: Synthesis methods a request may name.
METHODS = ("modular", "direct", "lavagno")

#: Cache tiers a response may report.
CACHE_TIERS = ("off", "miss", "hit")


class ApiError(ValueError):
    """A request/response document that violates ``repro-api/1``."""


@dataclass(frozen=True)
class SynthesisRequest:
    """One synthesis job as data: the ``.g`` source plus JSON-safe knobs.

    Only knobs with JSON-scalar values appear here -- the run-wide
    budget is the scalar ``timeout_seconds``, not a ``Budget`` object;
    scheduling-only knobs the caller does not own (``cache_dir``, the
    service pool width) belong to the server, not the request, so two
    clients asking for the same circuit dedupe to the same fingerprint.
    """

    g_text: str
    method: str = "modular"
    engine: str = "hybrid"
    sat_mode: str = "incremental"
    minimize: bool = True
    polish: bool = True
    fallback: bool = True
    degrade: bool = True
    timeout_seconds: object = None
    verify_level: str = "hazards"

    def __post_init__(self):
        if not isinstance(self.g_text, str) or not self.g_text.strip():
            raise ApiError("g_text must be non-empty .g source text")
        if self.method not in METHODS:
            raise ApiError(
                f"method must be one of {METHODS}, not {self.method!r}"
            )
        if self.engine not in ENGINES:
            raise ApiError(
                f"engine must be one of {ENGINES}, not {self.engine!r}"
            )
        if self.sat_mode not in SAT_MODES:
            raise ApiError(
                f"sat_mode must be one of {SAT_MODES}, "
                f"not {self.sat_mode!r}"
            )
        if self.timeout_seconds is not None:
            if not isinstance(self.timeout_seconds, (int, float)) \
                    or self.timeout_seconds <= 0:
                raise ApiError(
                    f"timeout_seconds must be a positive number or null, "
                    f"not {self.timeout_seconds!r}"
                )
        if self.verify_level not in VERIFY_LEVELS:
            raise ApiError(
                f"verify_level must be one of {VERIFY_LEVELS}, "
                f"not {self.verify_level!r}"
            )

    def to_options(self, **server_knobs):
        """The :class:`~repro.runtime.options.SynthesisOptions` this
        request asks for.

        ``server_knobs`` (``cache_dir``, ...) are the
        deployment-owned fields merged in by the executing side; a
        ``timeout_seconds`` becomes a fresh :class:`Budget`.
        """
        from repro.runtime.budget import Budget
        from repro.runtime.options import SynthesisOptions

        budget = None
        if self.timeout_seconds is not None:
            budget = Budget(max_seconds=float(self.timeout_seconds))
        return SynthesisOptions(
            engine=self.engine, sat_mode=self.sat_mode,
            minimize=self.minimize, polish=self.polish,
            fallback=self.fallback, degrade=self.degrade,
            budget=budget, verify_level=self.verify_level,
            **server_knobs,
        )

    def fingerprint(self):
        """Content fingerprint for request dedup and response replay.

        Two requests whose ``.g`` documents canonicalise identically
        and whose synthesis-relevant knobs match share a fingerprint --
        the same normalisation the artifact cache keys use, so
        formatting differences in the upload never split the cache.
        """
        import hashlib

        from repro.stg.canonical import g_fingerprint
        from repro.stg.parse import parse_g

        # ``g_text`` is literal source by contract -- parse_g, never
        # load_stg, so a malicious one-line body cannot name a server
        # path.
        base = g_fingerprint(parse_g(self.g_text))
        knobs = json.dumps(
            {
                "method": self.method,
                "engine": self.engine,
                "sat_mode": self.sat_mode,
                "minimize": self.minimize,
                "polish": self.polish,
                "fallback": self.fallback,
                "degrade": self.degrade,
                "timeout_seconds": self.timeout_seconds,
                "verify_level": self.verify_level,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256()
        digest.update(base.encode("ascii"))
        digest.update(b"\x00")
        digest.update(knobs.encode("utf-8"))
        return digest.hexdigest()


@dataclass(frozen=True)
class SynthesisResponse:
    """One synthesis outcome as data.

    Mirrors what the CLI prints: the state/signal counts of the paper's
    Table 1, the inserted state signals, the next-state equations, the
    run's counter bag, and the verdict.  ``cache`` is the tier this
    response was served from (``"off"``, ``"miss"``, ``"hit"``).
    """

    model: str
    method: str
    engine: str
    status: str
    exit_code: int
    initial_states: object = None
    final_states: object = None
    initial_signals: object = None
    final_signals: object = None
    state_signals: tuple = ()
    literals: object = None
    seconds: object = None
    equations: tuple = ()
    modules: tuple = ()
    counters: tuple = ()
    verified: object = None
    verify: object = None
    error: object = None
    cache: str = "off"

    def __post_init__(self):
        if self.cache not in CACHE_TIERS:
            raise ApiError(
                f"cache must be one of {CACHE_TIERS}, not {self.cache!r}"
            )
        object.__setattr__(self, "state_signals", tuple(self.state_signals))
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(
            self, "modules",
            tuple((str(o), str(s)) for o, s in self.modules),
        )
        object.__setattr__(
            self, "counters",
            tuple(sorted((str(k), v) for k, v in dict(self.counters).items())),
        )

    @property
    def ok(self):
        return self.status in ("ok", "degraded")

    def evolve(self, **changes):
        """A copy with the given fields replaced."""
        return replace(self, **changes)


def response_from_report(report, model=None, verified=None, cache="off"):
    """Build a :class:`SynthesisResponse` from a finished
    :class:`~repro.runtime.report.RunReport`.

    ``model`` overrides the model name (needed on timeout/error runs,
    which carry no result to read it from); ``verified`` records a
    conformance-check verdict the caller ran, if any -- when omitted
    it is derived from the run's own verification pass
    (``report.verify``), whose full verdict document lands in
    ``response.verify``.  The static ``csc`` level yields no
    closed-loop verdict, so it leaves ``verified`` at ``None`` unless
    it actually found a conflict.
    """
    result = report.result
    verify_doc = None
    run_verify = getattr(report, "verify", None)
    if run_verify is not None:
        verify_doc = run_verify.as_dict()
        if verified is None:
            verdict = run_verify.verdict
            if run_verify.level != "csc" or verdict is False:
                verified = verdict
    fields = {}
    equations_lines = ()
    if result is not None:
        fields = {
            "initial_states": result.initial_states,
            "final_states": result.final_states,
            "initial_signals": result.initial_signals,
            "final_signals": result.final_signals,
            "literals": result.literals,
            "seconds": round(result.seconds, 6),
        }
        names = getattr(getattr(result, "assignment", None), "names", None)
        if names is not None:
            fields["state_signals"] = tuple(names)
        if result.covers is not None:
            from repro.logic import equations

            equations_lines = tuple(
                equations(result.covers, result.expanded.signals)
            )
    error = None
    if report.error is not None:
        describe = getattr(report.error, "describe", None)
        error = describe() if describe else str(report.error)
    return SynthesisResponse(
        model=model or getattr(getattr(result, "graph", None), "name", "stg"),
        method=report.method,
        engine=report.engine,
        status=report.status,
        exit_code=report.exit_code,
        equations=equations_lines,
        modules=tuple((m.output, m.status) for m in report.modules),
        counters=tuple(sorted(report.metrics.as_dict().items())),
        verified=verified,
        verify=verify_doc,
        error=error,
        cache=cache,
        **fields,
    )


def to_json(value):
    """Serialize a request or response to a ``repro-api/1`` dict."""
    if not isinstance(value, (SynthesisRequest, SynthesisResponse)):
        raise ApiError(
            f"to_json() takes a SynthesisRequest or SynthesisResponse, "
            f"not {type(value).__name__}"
        )
    kind = "request" if isinstance(value, SynthesisRequest) else "response"
    document = {"schema": API_SCHEMA, "kind": kind}
    payload = asdict(value)
    if kind == "response":
        payload["state_signals"] = list(value.state_signals)
        payload["equations"] = list(value.equations)
        payload["modules"] = [list(pair) for pair in value.modules]
        payload["counters"] = {name: count for name, count in value.counters}
    document.update(payload)
    return document


def to_json_bytes(value):
    """Canonical UTF-8 encoding of :func:`to_json`.

    Sorted keys and fixed separators make the encoding a function of
    the content alone -- the property the service's replay cache and
    the load test's byte-identity check rely on.
    """
    return json.dumps(
        to_json(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def from_json(document):
    """Parse a ``repro-api/1`` dict (or JSON text/bytes) back to a value.

    Raises :class:`ApiError` on a wrong/missing schema tag, an unknown
    ``kind``, or field values that violate the dataclass contracts.
    """
    if isinstance(document, (bytes, bytearray)):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ApiError(f"not a JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise ApiError(
            f"expected a JSON object, not {type(document).__name__}"
        )
    schema = document.get("schema")
    if schema != API_SCHEMA:
        raise ApiError(
            f"schema must be {API_SCHEMA!r}, not {schema!r}"
        )
    kind = document.get("kind")
    payload = {
        key: value for key, value in document.items()
        if key not in ("schema", "kind")
    }
    try:
        if kind == "request":
            return SynthesisRequest(**payload)
        if kind == "response":
            if isinstance(payload.get("counters"), dict):
                payload["counters"] = sorted(payload["counters"].items())
            if payload.get("modules") is not None:
                payload["modules"] = [
                    tuple(pair) for pair in payload["modules"]
                ]
            return SynthesisResponse(**payload)
    except TypeError as exc:
        raise ApiError(f"malformed {kind} document: {exc}") from exc
    raise ApiError(f"kind must be 'request' or 'response', not {kind!r}")
