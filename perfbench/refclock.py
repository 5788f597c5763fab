"""Host-speed reference: times are reported in units of a fixed reference run.

The benchmark shares a few cores of a host whose speed flips between a fast
and a slow mode (about 1.6x apart) every few seconds and drifts over minutes;
CPU time moves the same way.  A raw wall-clock median therefore moves with
the host, not the program.  So while jobs run, an interval timer interrupts
the benchmark every ``EVERY_S`` seconds -- inside a job as well as between
jobs -- to time a short slice of fixed pure-Python reference work of the same
kind as tateshift's (modular row reduction over Python ints, tuple and dict
churn), which no change to the program can touch.  A job's time is its wall
time less the slices taken inside it, scaled by the mean host speed over
the job:

    calibrated = net wall time * mean(NOMINAL_S / slice) over the job's slices

A set-up probe, which runs in a fresh interpreter, is scaled by the speed
that interpreter measures right after its set-up.

A calibrated time is the time the work would take on a host that runs one
slice in ``NOMINAL_S`` seconds, between the fast and the slow mode of this
project's 2-core development VM.  It still moves one for one with the program's own speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.0006  # one reference slice at the nominal host speed
EVERY_S = 0.05  # timer period: about 1% of the time goes to slices
NEARBY = 6  # slices nearest a job's midpoint, for jobs shorter than that


def _row_reduce(size=8, modulus=(1 << 61) - 1):
    rows = [[(31 * r + 17 * c + r * c * c) % modulus + 1 for c in range(size)]
            for r in range(size)]
    for c in range(size):
        inv = pow(rows[c][c] or 1, -1, modulus)
        rows[c] = [x * inv % modulus for x in rows[c]]
        for r in range(size):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % modulus for a, b in zip(rows[r], rows[c])]
    return rows[0][0]


def _churn(n=250):
    table = {}
    for i in range(n):
        key = (i * 7919 % 61, i % 37)
        table[key] = tuple((i + k) * 3 % 97 for k in range(10))
    return len(table)


def reference_slice() -> float:
    """Seconds taken by one fixed slice of reference work, GC held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _row_reduce()
        _churn()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_now() -> float:
    """Host speed over NEARBY slices taken now, after two to warm up."""
    for _ in range(2):
        reference_slice()
    return statistics.fmean(NOMINAL_S / reference_slice() for _ in range(NEARBY))


class RefClock:
    """Reference slices taken on a timer, and the host speed they imply.

    Use as a context manager around the timed passes.
    """

    def __init__(self):
        self.starts: list[float] = []  # ascending
        self.ends: list[float] = []
        self.speeds: list[float] = []  # NOMINAL_S / slice
        for _ in range(3):  # warm up
            reference_slice()

    def sample(self, *_signal_args):
        start = perf_counter()
        took = reference_slice()
        self.starts.append(start)
        self.speeds.append(NOMINAL_S / took)
        self.ends.append(perf_counter())

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _inside(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.ends, end)

    def net(self, start, end) -> float:
        """Wall time from start to end less the slices taken inside it."""
        lo, hi = self._inside(start, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def speed(self, start, end) -> float:
        """Mean host speed over [start, end], or near its midpoint if short."""
        lo, hi = self._inside(start, end)
        if hi - lo < NEARBY:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - NEARBY // 2, len(self.starts) - NEARBY))
            hi = lo + NEARBY
        return statistics.fmean(self.speeds[lo:hi])

    def calibrate(self, start, end) -> float:
        """Net seconds from start to end, at the nominal host speed."""
        return self.net(start, end) * self.speed(start, end)
