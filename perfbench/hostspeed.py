"""Host speed, sampled while the benchmark runs, and timings corrected for it.

The benchmark's reference host (a 2-core x86 VM on a shared machine) runs
the same code at speeds that differ by up to 2x, switching between them
within a millisecond and drifting for minutes.  The process is not
descheduled (CPU time equals wall time), so the slow phases cannot be
filtered out after the fact, and the share of time spent in them differs
from run to run by more than a performance change should be allowed to.

So every ``INTERVAL_S`` a timer signal runs a fixed probe of interpreter
and small-array work, the mix the solver spends its time on, and times it.
The probe runs twice per tick and only the second, warm run is timed, so
that it measures the host rather than what the program left in the caches.
A timed operation's corrected time is its wall time, minus the time spent
in the probe, times the mean over the probe samples around it of
``REF_PROBE_S / probe time``: the time the operation would have taken at
the probe's typical speed on the reference host.  The probe does not run
the code under test, so a change that makes the program slower or faster
moves the corrected time by the same share as the wall time.

The signal handler runs between bytecodes of the main thread; the
benchmark stays a single process and a single thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.004
# Median warm probe time on the reference host (2-core x86 VM, Python
# 3.11.7, numpy 2.4.6); a corrected time is in seconds at that speed.
REF_PROBE_S = 3.9e-05
# An operation shorter than the interval holds no sample of its own; its
# correction comes from the samples nearest to it.
MIN_SAMPLES = 8


class _Node:
    __slots__ = ("key", "next")


_TABLE = np.linspace(0.0, 1.0, 64).reshape((2,) * 6)
_NODES = [_Node() for _ in range(64)]
for _i, _node in enumerate(_NODES):
    _node.key, _node.next = _i, _NODES[(7 * _i) % 64]


def _probe() -> float:
    total = 0
    for i in range(200):
        total += i * i
    seen = {}
    for node in _NODES:
        seen[node.key] = node.next.key + len(seen)
    for axis in range(3):
        total += float(_TABLE.sum(axis=axis).max())
    return total + len(seen)


@dataclass(frozen=True)
class Op:
    """One timed operation: wall-clock span and its time outside the probe."""
    start: float
    end: float
    raw_s: float


class HostSpeed:
    """Context manager that samples the host speed while it is entered."""

    def __init__(self):
        self.times: list[float] = []   # when each sample was taken
        self.rates: list[float] = []   # REF_PROBE_S / probe time
        self.spent = 0.0               # seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        _probe()
        t1 = clock()
        _probe()
        t2 = clock()
        self.times.append(t2)
        self.rates.append(REF_PROBE_S / (t2 - t1))
        self.spent += clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Call fn(*args); return its result and an Op for corrected()."""
        spent0, t0 = self.spent, time.perf_counter()
        out = fn(*args)
        t1, spent1 = time.perf_counter(), self.spent
        return out, Op(t0, t1, (t1 - t0) - (spent1 - spent0))

    def corrected(self, op: Op) -> float:
        """op's time at the reference speed; call after the samples around
        op have been taken (on exit, at the latest)."""
        lo = bisect.bisect_left(self.times, op.start)
        hi = bisect.bisect_right(self.times, op.end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return op.raw_s * statistics.fmean(self.rates[lo:hi])
