"""Machine speed, sampled while the benchmark runs.

On a shared virtual machine the speed of a core changes by up to a factor
of two within seconds to minutes, as other tenants load the host.  Wall
clock times then spread more between runs than any change worth measuring.
So an interval timer interrupts the process every ``INTERVAL_S`` seconds
and times a small fixed computation that does not use codeloops.  A call's
time is reported twice: as wall-clock time, and scaled to the speed at
which that computation takes ``REFERENCE_S``, using the samples taken
during the call and within ``WINDOW_S`` of it.  The time the samples
themselves take is removed from both.

The signal handler runs in the one benchmark thread, between bytecodes,
so it adds no thread; system calls interrupted by the signal are retried
by Python.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.1
WINDOW_S = 0.5
REFERENCE_S = 0.0007  # nominal time of one reference computation


def reference_computation(rows: list[int]) -> int:
    """Work like codeloops' own: big-int GF(2) elimination, frozensets, dicts."""
    basis: dict[int, int] = {}
    for m in rows:
        while m:
            lead = m.bit_length() - 1
            if lead not in basis:
                basis[lead] = m
                break
            m ^= basis[lead]
    sets = [frozenset(range(i, i + 12)) for i in range(60)]
    meets: dict[tuple, int] = {}
    for a, b in zip(sets, sets[1:]):
        key = tuple(sorted(a & b))
        meets[key] = meets.get(key, 0) + len(a ^ b)
    return len(basis) + len(meets)


class Speedometer:
    """Context manager that samples speed on a timer while it is entered."""

    def __init__(self):
        rng = random.Random(7)
        self._rows = [rng.getrandbits(128) for _ in range(100)]
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.durations: list[float] = []
        self._previous = None

    def tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_computation(self._rows)
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Wall time of [start, end] less the samples inside it, and that
        time at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.durations[lo:hi])
        window = self.durations[bisect.bisect_left(self.starts, start - WINDOW_S):
                                bisect.bisect_left(self.starts, end + WINDOW_S)]
        if not window:
            raise RuntimeError("no speed sample near a timed interval")
        return busy, busy * REFERENCE_S / statistics.median(window)
