"""Deterministic fault injection for exercising degradation paths.

Real budget exhaustions need pathological inputs (a 35k-clause formula, a
200k-marking net) that make tests slow and flaky.  Instead, the pipeline
consults this registry at a handful of **named injection points**; a test
arms a point for a bounded number of shots and the instrumented site
fails exactly as the real failure would -- same exception class, same
:data:`~repro.sat.solver.LIMIT` status -- with zero cost when no fault is
armed.

Injection points
----------------
``solver-limit``
    :func:`repro.sat.solve_with` returns a ``LIMIT`` result without
    searching.  ``detail`` is the engine name, so a fault can target one
    rung of the fallback ladder.
``reachability-overflow``
    :func:`repro.petrinet.reachability.reachability_graph` raises
    :class:`~repro.petrinet.errors.UnboundedNetError` immediately.
``bdd-blowup``
    :func:`repro.sat.bdd_engine.solve_bdd` reports ``LIMIT`` as if the
    node table overflowed.
``parse-error``
    :func:`repro.stg.parse.parse_g` raises
    :class:`~repro.stg.errors.GFormatError`.
``module-solve``
    The modular synthesis loop fails one output's module with a
    :class:`~repro.csc.errors.SynthesisError`, before the input-set
    derivation, for every output it visits -- including outputs
    without a CSC conflict, whose pass it would otherwise skip.
    ``detail`` is the output signal name.
``cache-corrupt-record``
    :meth:`repro.perf.result_cache.ResultCache.get` treats the record
    it just read as corrupt: the stale self-heal path runs against a
    byte-good record.  ``detail`` is the record kind.
``cache-io-error``
    :class:`~repro.perf.result_cache.ResultCache` fails one filesystem
    operation as an :class:`OSError` would: a ``get`` becomes a counted
    I/O miss, a ``put`` is skipped.  ``detail`` is ``"get"`` or
    ``"put"``.

Environment arming (``REPRO_FAULTS``)
-------------------------------------
CI's fault matrix arms points for a *whole test run* through the
``REPRO_FAULTS`` environment variable: a comma-separated list of
``point`` or ``point:times`` entries (``times`` omitted = unlimited
shots), parsed by :func:`load_env` at import.  Env-armed faults live in
their own registry so per-test :func:`clear` fixtures -- which exist
for test isolation -- do not silently disarm the matrix; use
``clear(env=True)`` to drop them too.

This module is deliberately a leaf (no :mod:`repro` imports) so every
layer can consult it without cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: The names the pipeline is instrumented with.
POINTS = (
    "solver-limit",
    "reachability-overflow",
    "bdd-blowup",
    "parse-error",
    "module-solve",
    "cache-corrupt-record",
    "cache-io-error",
)

#: Environment variable :func:`load_env` reads.
ENV_VAR = "REPRO_FAULTS"

_active = {}
_env_active = {}


class FaultSpec:
    """One armed injection point.

    Parameters
    ----------
    point:
        One of :data:`POINTS`.
    times:
        Number of shots before the fault disarms itself (``None`` =
        unlimited).
    match:
        Optional predicate on the site's ``detail`` argument; the fault
        only fires (and only consumes a shot) when it returns true.
    """

    def __init__(self, point, times=1, match=None):
        if point not in POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; known: {POINTS}"
            )
        self.point = point
        self.remaining = times
        self.match = match
        #: Number of times this fault actually fired.
        self.fired = 0

    @property
    def armed(self):
        return self.remaining is None or self.remaining > 0

    def _fire(self):
        self.fired += 1
        if self.remaining is not None:
            self.remaining -= 1


def inject(point, times=1, match=None):
    """Arm ``point``; returns the :class:`FaultSpec` handle."""
    spec = FaultSpec(point, times=times, match=match)
    _active[point] = spec
    return spec


def clear(point=None, env=False):
    """Disarm one point, or every point when ``point`` is ``None``.

    Environment-armed faults (:func:`load_env`) survive by default so a
    test fixture's ``clear()`` cannot silently disarm a CI fault
    matrix; pass ``env=True`` to drop them too.
    """
    if point is None:
        _active.clear()
        if env:
            _env_active.clear()
    else:
        _active.pop(point, None)
        if env:
            _env_active.pop(point, None)


def load_env(spec=None):
    """Arm faults from a ``REPRO_FAULTS``-style specification string.

    ``spec`` is a comma-separated list of ``point`` or ``point:times``
    entries; omitted ``times`` means unlimited shots.  ``None`` reads
    :data:`ENV_VAR` from the environment.  Replaces any previously
    env-armed faults and returns the new :class:`FaultSpec` handles.
    Unknown points and malformed shot counts raise :class:`ValueError`
    -- a typo in a CI matrix should fail loudly, not silently test
    nothing.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR, "")
    _env_active.clear()
    specs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        point, _, times_text = item.partition(":")
        point = point.strip()
        if times_text.strip() == "":
            times = None
        else:
            try:
                times = int(times_text)
            except ValueError:
                raise ValueError(
                    f"{ENV_VAR}: bad shot count {times_text!r} for "
                    f"point {point!r}"
                ) from None
        handle = FaultSpec(point, times=times)
        _env_active[point] = handle
        specs.append(handle)
    return specs


@contextmanager
def injected(point, times=1, match=None):
    """Context manager arming ``point`` for the body, disarming after."""
    spec = inject(point, times=times, match=match)
    try:
        yield spec
    finally:
        if _active.get(point) is spec:
            _active.pop(point, None)


def should_fire(point, detail=None):
    """Consult the registry at an instrumented site.

    Returns True (and consumes one shot) when an armed fault matches;
    the no-fault fast path is two dict lookups.  Test-armed faults
    (:func:`inject`) take precedence over env-armed ones
    (:func:`load_env`) for the same point.
    """
    for registry in (_active, _env_active):
        spec = registry.get(point)
        if spec is None or not spec.armed:
            continue
        if spec.match is not None and not spec.match(detail):
            continue
        spec._fire()
        return True
    return False


def active():
    """Snapshot of the armed points (for diagnostics).

    Merges both registries; a point armed in both shows the test-armed
    spec (the one :func:`should_fire` consults first).
    """
    merged = {
        point: spec for point, spec in _env_active.items() if spec.armed
    }
    merged.update(
        (point, spec) for point, spec in _active.items() if spec.armed
    )
    return merged


load_env()
