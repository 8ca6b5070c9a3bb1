"""Machine-speed normalisation of the end-to-end timings.

The benchmark's timings are meant to move with the program, not with the
host.  On a shared VM the vCPU's speed moves between levels up to ~1.8x
apart, in phases of a fraction of a second to minutes, and process CPU time
moves with it (it is not only steal time).  Raw times of the same code then
spread wider than any useful regression bound.

``SpeedSampler`` runs a fixed probe on a timer (SIGALRM, every
``INTERVAL_S``) in the benchmark's main thread for as long as it is active.
The probe mixes interpreter work and small-array numpy calls, the two kinds
of work silkin's runs are made of, and its wall time is recorded with the
moment it ran.  A timed window ``[t0, t1]`` is then reported as *seconds at
the reference speed*:

    (t1 - t0 - probe time inside the window) * PROBE_REF_S / median probe cost

where the median is over the probes inside the window (at least
``MIN_PROBES``; the nearest ones when the window is shorter).  The probe
does not touch silkin, so a slower program still reads slower; only the
host's speed is divided out.  ``PROBE_REF_S`` is a fixed constant, about
the probe's median cost on the 2-vCPU VM the bounds were set on, so values
are close to that machine's typical seconds.  A memory-bound probe (a pass
over 8 MB) was tried and dropped: it tracked the runs' times worse than
this one.

The process and every child it starts are pinned to one CPU (see
``pin_one_cpu``), so a CLI child runs on the vCPU the probe measures.
"""
from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
MIN_PROBES = 5
PROBE_REF_S = 0.00030
_VEC = np.linspace(0.0, 1.0, 64)


def probe() -> float:
    """The fixed work whose cost tracks the host's speed."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    x = _VEC
    for _ in range(40):
        x = np.exp(-x) * 0.5 + _VEC
    return s + float(x[0])


def pin_one_cpu() -> int:
    """Pin this process (and the children it starts) to one of its allowed CPUs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Probe the host's speed on a timer while active (a context manager)."""

    def __init__(self) -> None:
        self.stamps: list = []  # perf_counter at the end of each probe
        self.costs: list = []  # wall seconds of each probe
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.costs.append(t1 - t0)
        self.stamps.append(t1)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(MIN_PROBES):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_PROBES):
            self._tick()

    def _span(self, t0: float, t1: float) -> tuple:
        """Index range of the probes in [t0, t1], widened to MIN_PROBES around the window."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.stamps)):
            mid = (t0 + t1) / 2
            if lo > 0 and (hi >= len(self.stamps) or mid - self.stamps[lo - 1] <= self.stamps[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the window [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        own = (t1 - t0) - sum(self.costs[lo:hi])
        lo, hi = self._span(t0, t1)
        return own * PROBE_REF_S / statistics.median(self.costs[lo:hi])

    def speed(self) -> tuple:
        """Median, fastest and slowest probe cost so far, in seconds."""
        return statistics.median(self.costs), min(self.costs), max(self.costs)
