"""Core pace: how fast the interpreter runs right now, from a fixed loop.

On a shared machine the speed of a core moves by 10-45% within seconds
and stays off for minutes, so the best or median latency of one run
moves with it.  ``sample()`` times a fixed pure-Python loop (big-int
shifts and masks, table reads and writes, calls: the kind of work the
program does) and returns its time divided by REFERENCE_S.  A latency
divided by the pace over the same stretch of time is the latency at
reference pace; the benchmark reports times that way, so a slower
program still reads slower, but a slower core does not.  The loop
lives here, never in the program, so it is the same on every commit.

A call of the program can last seconds, longer than the core keeps one
speed, so ``Sampler`` also takes samples while the program runs, from
a SIGALRM handler every INTERVAL_S, and counts the time they take so
the caller can take it out of the call's latency.
"""

from __future__ import annotations

import bisect
import signal
import time

LOOP_STEPS = 12_000
# About the loop's time on an idle core of the machine the benchmark
# was written on (shared 2-core x86-64 VM, Python 3.11.7).  Only a
# scale: it makes paced times read as seconds on that core.
REFERENCE_S = 0.004
INTERVAL_S = 0.1


# Preallocated, so that a sample taken at the program's memory peak
# does not raise the peak RSS the benchmark reports.
_TABLE = bytearray(1024)
_SEEN = bytearray(4096)


def _mix(x: int, i: int, mask: int) -> int:
    return ((x << 5) ^ (x >> 3) ^ i) & mask


def _loop() -> int:
    x, mask = 0x9E3779B97F4A7C15, (1 << 96) - 1
    table, seen = _TABLE, _SEEN
    for i in range(LOOP_STEPS):
        x = _mix(x, i, mask)
        table[i & 1023] = x & 0xFF
        if x & 1:
            x |= table[(i >> 3) & 1023]
        seen[x & 4095] = 1
    return x


def sample() -> float:
    """Time of one loop as a multiple of REFERENCE_S (above 1: slower)."""
    t0 = time.perf_counter()
    _loop()
    return (time.perf_counter() - t0) / REFERENCE_S


class Sampler:
    """Pace samples every INTERVAL_S while active, with their times.

    Use as a context manager around the timed passes.  ``stolen`` is the
    total time the samples took; a caller subtracts its growth over a
    call from the call's latency.
    """

    def __init__(self):
        self.times: list[float] = []
        self.paces: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def take(self) -> None:
        if self._busy:  # an alarm during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        p = sample()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.paces.append(p)
        self.stolen += t1 - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.take()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.take()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def pace_over(self, start: float, end: float) -> float:
        """Mean pace of the samples from the last one before start to the
        first one after end; the caller takes one after its last call."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end) + 1
        window = self.paces[lo:hi]
        # Not statistics.fmean: importing statistics in the timed child
        # raised its peak RSS by 0.4-1.5 MiB, differently from run to run.
        return sum(window) / len(window)
