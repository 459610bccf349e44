"""Host speed, sampled while the workload runs.

The host this benchmark was written on shares its CPUs with other tenants.
Its speed flips between a fast and a slow state several times a second, and
the share of time spent slow drifts by tens of percent over minutes, so two
runs of the same code a few minutes apart can differ by 40 % or more. A
timer signal interrupts the workload every ``INTERVAL_S`` seconds and times
one pass of ``probe``, a fixed kernel that does not touch khopsim. The mean
probe time over a timed phase tracks the mix of states that phase met, and
the benchmark rescales the phase's timing to the reference probe time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
# About the probe's mean on the 2-vCPU Xeon VM the benchmark was written on.
# It only sets the scale: a scaled time reads as seconds at that speed.
REFERENCE_S = 0.002


def probe() -> float:
    """Time one pass of the kernel: numpy calls on a tiny array, the kind of
    work both workloads spend most of their time on. Of the kernels tried
    (interpreter loop, tiny arrays, 160 KB and 4 MB arrays, dict building),
    it tracked the workloads' own timings best."""
    t0 = time.perf_counter()
    small = np.zeros(6)
    for _ in range(1000):
        small = small * 0.5 + 1.0
    return time.perf_counter() - t0


class Sampler:
    """Collects (start, duration) of a probe on every SIGALRM while started.

    Each probe adds its own time, about 1 % of the wall, to whatever the
    workload was timing when the signal came.
    """

    def __init__(self):
        self.probes = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes.append((start, probe()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Host speed from ``start`` to ``end`` relative to the reference
        (above 1 when faster); over all probes when none started in that
        interval, and 1.0 when there are none at all."""
        window = [d for t, d in self.probes if start <= t <= end]
        window = window or [d for _, d in self.probes]
        if not window:
            return 1.0
        return REFERENCE_S / (sum(window) / len(window))
