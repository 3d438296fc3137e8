"""Speed sampling: a yardstick for the host's speed while an operation runs.

On a shared host a CPU flips between a fast and a slow state (about 1.5x
apart) every few seconds, and the share of slow time drifts over minutes.
So an operation's wall time measures the host as much as the program, and a
kernel timed before or after the operation misses the states it ran in.

``SpeedSampler.sampling`` therefore interrupts the operation itself: every
INTERVAL_S an interval timer raises SIGALRM, and the handler times one pass of
a fixed micro-kernel (pure-Python arithmetic and small numpy calls, the mix
the workloads spend their time in), about 0.4 ms, 1 % of the run. Python runs
the handler between bytecodes, so samples spread over the operation. An
operation's wall time minus the time spent in the handler, divided by the
mean micro-kernel time during it, is its cost in kernel units (the
``solve_cal`` metric). The kernel is the benchmark's own code and never calls
sphslice, so a change to the library moves the operation's time and not the
yardstick. Do not change the kernel or the interval: results measured with
different ones cannot be compared.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
_VECTOR = np.arange(64.0)


def _kernel() -> float:
    total = 0.0
    for i in range(1500):
        total += i * 0.5
    for _ in range(20):
        total += float(np.sum(np.exp(-0.01 * _VECTOR)))
    return total


def kernel_seconds() -> float:
    """Wall time of one pass of the micro-kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedSampler:
    """Times the micro-kernel at regular intervals while ``sampling`` is entered."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, one per alarm
        self.handler_s = 0.0            # time the block spent in the handler

    def _on_alarm(self, signum, frame):
        self.samples.append(kernel_seconds())

    @contextmanager
    def sampling(self):
        """Sample during the block; the main thread only, as signals require."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.handler_s = sum(self.samples)
        if not self.samples:  # an operation shorter than one interval
            self.samples.append(kernel_seconds())
