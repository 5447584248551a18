"""Reference-speed calibration of the benchmark's timings.

On a shared machine the processor's speed drifts: its two vCPUs are
siblings of one core, and whenever the sibling is busy (with another
tenant's work or another process of the program) a thread runs about a
third slower.  The same synthesis run measured over one minute took between
58 ms and 87 ms depending on the five-second window, and a circuit's
speed can change while it runs.

A :class:`Sampler` therefore takes a short reference reading -- a fixed
pure-Python loop -- on a timer every :data:`PERIOD_S` seconds *while* the
measured work runs (from a ``SIGALRM`` handler, which interrupts the
work between bytecodes).  A timed interval is reported at *reference
speed*::

    reported = (raw - readings inside) * READING_NOMINAL_S / mean reading

so it reads as the seconds the work takes when one reading takes
:data:`READING_NOMINAL_S`.  Readings taken inside the interval are
subtracted from it, and their mean tells the speed the work ran at.  The
reference loop is independent of the program under test, so a faster
program still reads faster; only the machine's momentary speed cancels
out.  Over six passes of the Table-1 suite, readings every 20 ms brought
the pass-to-pass variation of the suite time from 13% (raw) to under 3%,
where one reading before and after each circuit left 9%.

The batch workloads run in one thread, so the readings inside an interval
are the right ones.  The service workload runs in two processes, whose
readings slow each other's: its times are scaled by readings taken while
no request is in flight (:func:`idle_sampler`).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Seconds between reference readings.  A cache replay or a small
#: circuit takes a few milliseconds: with readings every 20 ms the
#: median service miss spread by 19% over five runs (quartile distance
#: over median) and the median Table-1 circuit by 14%; every 5 ms, by
#: 14% and 4% over ten.
PERIOD_S = 0.005

#: Loop iterations of one reference reading.
READING_ITERATIONS = 500

#: Nominal seconds of one reading: its time on an idle 2-vCPU x86 virtual
#: machine under CPython 3.11 when the sibling vCPU is idle too.
READING_NOMINAL_S = 0.000085

#: Readings that judge an interval holding fewer: the nearest ones.
MIN_READINGS = 4


def _spin(iterations):
    table = {}
    for i in range(iterations):
        table[(i * 7919) % 1543] = table.get((i * 31) % 1543, 0) + i
    return len(table)


class Sampler:
    """Reference readings taken on a timer; scales intervals by them.

    Use as a context manager around the measured work, in the main thread
    of the process doing it.  ``Sampler.from_readings`` rebuilds one from
    readings another process took (see :func:`readings`).
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    @classmethod
    def from_readings(cls, readings):
        sampler = cls()
        sampler.starts, sampler.durations = readings
        return sampler

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _read(self, _signum, _frame):
        start = time.perf_counter()
        _spin(READING_ITERATIONS)
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def during(self, start, end):
        """``(spent, unit)``: seconds of readings taken from ``start`` to
        ``end``, and the mean reading then (of the nearest
        :data:`MIN_READINGS` when fewer fell inside)."""
        low = bisect.bisect_left(self.starts, start)
        high = bisect.bisect_left(self.starts, end)
        spent = sum(self.durations[low:high])
        if high - low < MIN_READINGS:
            low = max(0, min(low - MIN_READINGS // 2,
                             len(self.starts) - MIN_READINGS))
            high = low + MIN_READINGS
        return spent, statistics.fmean(self.durations[low:high])

    def scaled(self, start, end):
        """Seconds from ``start`` to ``end`` at reference speed, readings
        taken inside excluded."""
        return scaled(start, end, (self,), self)


def scaled(start, end, samplers, reference):
    """Seconds from ``start`` to ``end`` at the speed ``reference`` read
    then, as seconds at reference speed; every reading the processes
    ``samplers`` took inside is excluded."""
    spent = sum(sampler.during(start, end)[0] for sampler in samplers)
    return (end - start - spent) * READING_NOMINAL_S / reference.during(
        start, end
    )[1]


def idle_sampler(samplers, busy):
    """The readings of ``samplers`` taken outside every ``(start, end)``
    interval of ``busy``, pooled into one sampler.

    When a program runs in two processes, a reading in one is slowed by
    the other's work on the sibling vCPU.  Readings taken while the
    program is idle read only the machine's speed, so the program's own
    processes slowing each other still shows in the scaled times.
    """
    edges = []
    for start, end in sorted(busy):
        if edges and start <= edges[-1][1]:
            edges[-1][1] = max(edges[-1][1], end)
        else:
            edges.append([start, end])
    starts = [start for start, _end in edges]
    pooled = []
    for sampler in samplers:
        for start, duration in zip(sampler.starts, sampler.durations):
            i = bisect.bisect_right(starts, start + duration) - 1
            if i < 0 or edges[i][1] < start:
                pooled.append((start, duration))
    pooled.sort()
    return Sampler.from_readings(
        ([start for start, _d in pooled], [d for _s, d in pooled])
    )


#: The sampler of a pool worker started by :func:`start_worker_sampler`.
_worker_sampler = None


def start_worker_sampler():
    """Pool initializer: take readings in this worker for its lifetime."""
    global _worker_sampler
    _worker_sampler = Sampler().__enter__()


def readings():
    """This worker's readings so far, as ``(starts, durations)``."""
    return list(_worker_sampler.starts), list(_worker_sampler.durations)
