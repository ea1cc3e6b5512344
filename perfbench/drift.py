"""Speed probe that corrects timings for the CPU-speed drift of a shared host.

On a shared virtual machine the same Python code runs up to 1.8x slower
for seconds or minutes at a time, while other tenants load the host.  Taking
the best or the median of repeated timings cannot remove a slow phase that
lasts a whole run.  The probe therefore runs a fixed kernel of about 0.1 ms
from a SIGALRM handler every 20 ms, which samples the interpreter's speed
during the timed calls themselves (a handler runs between two bytecodes of
the main thread).  The kernel is the benchmark's own code, so a change to
the program never changes it.  It creates no object the cyclic garbage
collector tracks, so it does not move the collections of the program it
interrupts, and with them the peak memory.

An interval's corrected time is its duration less the probe's own time in
it, scaled by ``REFERENCE_KERNEL_S`` over the median kernel time of the
samples in and around it: the time the interval would have taken on the
reference machine with no other load.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
REFERENCE_KERNEL_S = 100e-6  # kernel time on the reference machine with no other load
PAD = 3  # samples on each side of an interval that join its speed estimate


_TABLE = {f"k{i}": i % 7 for i in range(150)}
_KEYS = tuple(_TABLE)


def _kernel() -> int:
    acc = 0
    for _ in range(12):
        for key in _KEYS:
            acc = (acc + _TABLE[key]) & 0xFF  # stays a cached small int
    return acc


class SpeedProbe:
    """Samples kernel times while active; ``mark`` indexes the samples."""

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.durations.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.durations)

    def corrected(self, elapsed: float, first: int, last: int) -> float:
        """Corrected time of an interval during which samples first..last-1 were taken."""
        around = self.durations[max(0, first - PAD) : last + PAD]
        if not around:
            return elapsed
        spent = sum(self.durations[first:last])
        return (elapsed - spent) * REFERENCE_KERNEL_S / statistics.median(around)
