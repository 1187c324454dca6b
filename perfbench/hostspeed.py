"""How fast the host runs right now, sampled beside the timed calls.

On a shared host, co-tenants slow this process by up to ~2x in bursts
that last from a second to minutes, with no steal time to show for it:
the slowdown is in the CPU itself (shared cores, caches and memory
bandwidth). A raw wall-clock rate then measures the neighbours as much
as the program. :class:`HostSpeed` runs a fixed calibration kernel every
:data:`PERIOD_S` seconds and records how long it took; dividing a call's
wall time by the kernel's slowdown over the same interval gives the
call's time at nominal host speed.

The kernel runs from a ``SIGALRM`` handler, so in the main thread
between two bytecodes of the timed code and never alongside it. From a
second thread it would run on the other core whenever the timed code
released the GIL (NumPy, BLAS), and would then time the benchmark's own
load on the shared core as well as the neighbours'. Co-tenants slow
interpreter-bound and array-bound code by different amounts, so the
kernel has one half of each kind, like the workloads: a small event loop
over a heap (the edge simulator, the fleet control plane) and small
matrix products and array passes (training, the vectorized serving
path). It takes about a millisecond, so sampling costs the timed code
about one percent.
"""

from __future__ import annotations

import heapq
import signal
import time
from statistics import mean, median

import numpy as np

PERIOD_S = 0.1
#: The kernel's time on a lightly loaded 2-core x86 host (about the 5th
#: percentile of 3000 back-to-back runs). Any fixed value would do: it
#: only sets the scale of "seconds at nominal speed".
NOMINAL_S = 0.65e-3

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((48, 48))
_BLOCK = _RNG.random((48, 256))
_VECTOR = _RNG.random(8192)


def calibration_kernel() -> float:
    """Fixed work: a small heap-driven event loop, then array work."""
    heap, sums, total = [], {}, 0.0
    for i in range(1000):
        heapq.heappush(heap, ((i * 7919) % 1000 * 1e-3 + i, i, i % 13))
        if len(heap) > 64:
            when, _, key = heapq.heappop(heap)
            sums[key] = sums.get(key, 0.0) + when
            total += when
    for _ in range(6):
        total += float(np.maximum(_MATRIX @ _BLOCK, 0.5).sum())
    v = _VECTOR
    for _ in range(4):
        v = np.cumsum(v * 0.5 + 0.25) / v.size
    return total + float(v[-1])


class HostSpeed:
    """Samples the calibration kernel on a timer while in a ``with``."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list = []  # (start, seconds) per kernel run
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end)`` relative to nominal.

        An interval too short to hold a sample uses the sample that
        started nearest to it.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside and self.samples:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return mean(inside) / NOMINAL_S if inside else 1.0

    def summary(self) -> dict:
        """Sample count and the median slowdown over the whole run."""
        durations = [d for _, d in self.samples]
        return {"samples": len(durations),
                "median_slowdown": (median(durations) / NOMINAL_S
                                    if durations else None)}
