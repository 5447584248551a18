"""Worker-crash recovery policy for the synthesis service's pool.

A bare :class:`~concurrent.futures.ProcessPoolExecutor` treats a worker
death as fatal: one process killed by the OS (OOM killer, SIGKILL, a
segfaulting native extension) raises
:class:`~concurrent.futures.process.BrokenProcessPool` out of *every*
outstanding future.  The service (:mod:`repro.service`) owns the
repository's one worker pool and treats such a death as a recoverable
event: it discards the broken pool generation, respawns a fresh one and
resubmits the request after a backoff delay, until the
:class:`RetryPolicy` budget is spent -- then the request fails with a
:class:`WorkerCrashError`.

Backoff is seeded and repeatable: :meth:`RetryPolicy.delay` mixes the
attempt number and a task token through SHA-256, so two runs of the
same workload sleep the same schedule -- no ``random`` module state, no
wall-clock dependence.

This module is runtime-layer: it knows nothing about synthesis or HTTP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import ReproError


class WorkerCrashError(ReproError):
    """A worker process died (SIGKILL, OOM, segfault) or the pool broke.

    Carries ``kind="worker"`` so drivers classify infrastructure deaths
    apart from solve failures; raised per request once the retry budget
    is spent, instead of a raw
    :class:`~concurrent.futures.process.BrokenProcessPool` traceback.
    """

    kind = "worker"


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and after what delay, a crashed pool is respawned.

    Parameters
    ----------
    retries:
        Attempts *beyond the first* a task may use before its failure
        becomes final.  ``0`` disables retrying (failures escalate to
        the caller immediately).
    backoff:
        Base delay in seconds before the first retry round; each later
        round doubles it (exponential backoff).
    backoff_cap:
        Upper bound on any single delay.
    seed:
        Mixed into the deterministic jitter so concurrent services do
        not sleep in lockstep, while two runs of the same workload
        still sleep the same schedule.
    """

    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, not {self.retries!r}")
        if self.backoff < 0:
            raise ValueError(
                f"backoff must be >= 0, not {self.backoff!r}"
            )

    def delay(self, attempt, token=""):
        """Seconds to sleep before retry round ``attempt`` (1-based).

        ``min(cap, backoff * 2**(attempt-1))`` scaled by a deterministic
        jitter in ``[0.5, 1.0)`` derived from ``(seed, token, attempt)``
        -- repeatable across runs, de-synchronised across tokens.
        """
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        base = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        digest = hashlib.sha256(
            f"{self.seed}\x1f{token}\x1f{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2 ** 32
        return base * (0.5 + fraction / 2)
