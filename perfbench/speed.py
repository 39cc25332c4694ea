"""How fast the shared host runs this process right now.

A fixed pure-Python kernel, timed in the CPU time of the thread that runs
it, measures the host's slowdown against the reference speed SPEED_KERNEL_S.
CPU time still grows when other tenants slow the host down, but not while a
thread waits for the GIL, so the samples follow the host and not the
workload's threads. This module imports only the standard library, so it
can sample before the heavy imports of a set-up.
"""

from __future__ import annotations

import statistics
import threading
import time

# CPU time of one `kernel` call on the reference machine (the 2-vCPU VM of
# NOTES.md at a typical moment). Fixed, so that normalised times of
# different commits compare; never retune it in a change that claims a gain.
SPEED_KERNEL_S = 1.0e-3
SPEED_INTERVAL_S = 0.1


def kernel():
    """Fixed pure-Python work; it does not depend on asynclab."""
    x = 0
    for i in range(10_000):
        x += i * i % 7
    return x


def kernel_seconds():
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def slowdown_now(n):
    """Slowdown from `n` kernel calls made now, in the calling thread."""
    return statistics.median(kernel_seconds() for _ in range(n)) / SPEED_KERNEL_S


class SpeedProbe:
    """Samples the slowdown in a background thread every SPEED_INTERVAL_S."""

    def __init__(self):
        self.samples = []        # (perf_counter, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(SPEED_INTERVAL_S):
            seconds = kernel_seconds()
            self.samples.append((time.perf_counter(), seconds))

    def slowdown(self, t0, t1):
        """Mean kernel time in [t0, t1] over the reference kernel time; the
        5 samples nearest the window if it holds fewer. The host switches
        between faster and slower states within seconds, and a pass's wall
        time follows the time average of the two, which the mean of evenly
        spaced samples estimates and the median does not."""
        inside = [v for t, v in self.samples if t0 <= t <= t1]
        if len(inside) < 5:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]
            inside = [v for _, v in nearest]
        return statistics.fmean(inside) / SPEED_KERNEL_S
