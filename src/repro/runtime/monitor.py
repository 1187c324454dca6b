"""Workload monitoring.

The paper adds "performance monitors to the software in charge of the
incoming inferences" that flag workload changes. The monitor keeps a
sliding window of arrival timestamps, reports the sampled incoming IPS,
and raises a change flag when the rate moves by more than a configurable
relative threshold since the last acknowledged level.

Arrivals are stored in one sorted ``float64`` buffer whose live window is
``[lo, hi)``: recording appends at ``hi`` and expiring old arrivals moves
``lo`` with one binary search, so each trim costs O(log n) instead of one
pop per expired arrival. The buffer compacts (or grows) only when it is
full, which keeps retained storage proportional to the window.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WorkloadMonitor"]

#: Initial buffer length; it doubles past the live window when full.
_MIN_BUFFER = 64


class WorkloadMonitor:
    """Sliding-window arrival-rate estimator with change detection."""

    def __init__(self, window_s: float = 1.0, change_threshold: float = 0.10):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if change_threshold < 0:
            raise ValueError("change_threshold must be >= 0")
        self.window_s = window_s
        self.change_threshold = change_threshold
        self._times = np.empty(_MIN_BUFFER)
        self._lo = 0
        self._hi = 0
        # The latest arrival ever recorded: the ordering check must hold
        # even after the window has expired every stored arrival.
        self._last = -np.inf
        self._acknowledged_ips: float | None = None

    @property
    def window(self) -> np.ndarray:
        """Arrivals retained by the last trim, oldest first (a copy)."""
        return self._times[self._lo:self._hi].copy()

    def record_arrival(self, t: float) -> None:
        """Register one inference request at time ``t`` (seconds)."""
        if t < self._last:
            raise ValueError("arrivals must be recorded in time order")
        self._reserve(1)
        self._times[self._hi] = t
        self._hi += 1
        self._last = t
        self._trim(t)

    def observe_many(self, times) -> None:
        """Register a batch of arrival timestamps at once.

        Equivalent to calling :meth:`record_arrival` for each element of
        ``times`` (already sorted, not earlier than anything recorded so
        far) but validated and trimmed once per batch — the simulators
        buffer arrivals between decision ticks and flush them here,
        removing a per-frame method-call hot spot from both the event
        loop and the vectorized fast path.
        """
        batch = np.asarray(times, dtype=np.float64)
        if batch.ndim != 1:
            raise ValueError("times must be a 1-D sequence")
        n = batch.size
        if n == 0:
            return
        if n > 1 and bool(np.any(batch[1:] < batch[:-1])):
            raise ValueError("arrivals must be recorded in time order")
        if batch[0] < self._last:
            raise ValueError("arrivals must be recorded in time order")
        self._reserve(n)
        self._times[self._hi:self._hi + n] = batch
        self._hi += n
        self._last = float(batch[-1])
        self._trim(self._last)

    def _reserve(self, n: int) -> None:
        """Make room for ``n`` more arrivals after ``hi``."""
        if self._hi + n <= self._times.size:
            return
        live = self._hi - self._lo
        need = live + n
        buf = self._times
        if 2 * need > buf.size:
            buf = np.empty(max(2 * need, _MIN_BUFFER))
        buf[:live] = self._times[self._lo:self._hi]
        self._times = buf
        self._lo = 0
        self._hi = live

    def _trim(self, now: float) -> None:
        cutoff = now - self.window_s
        lo = self._lo
        if lo < self._hi and self._times[lo] <= cutoff:
            self._lo = lo + int(np.searchsorted(
                self._times[lo:self._hi], cutoff, side="right"))

    def sampled_ips(self, now: float) -> float:
        """Arrival rate over the trailing window."""
        self._trim(now)
        return (self._hi - self._lo) / self.window_s

    def change_flagged(self, now: float) -> bool:
        """True when the rate drifted beyond the threshold since the last
        acknowledged sample. Acknowledge with :meth:`acknowledge`."""
        current = self.sampled_ips(now)
        if self._acknowledged_ips is None:
            return True
        base = max(self._acknowledged_ips, 1e-9)
        return abs(current - self._acknowledged_ips) / base \
            > self.change_threshold

    def acknowledge(self, now: float) -> float:
        """Mark the current level as handled; returns that level."""
        self._acknowledged_ips = self.sampled_ips(now)
        return self._acknowledged_ips

    def reset(self) -> None:
        self._times = np.empty(_MIN_BUFFER)
        self._lo = 0
        self._hi = 0
        self._last = -np.inf
        self._acknowledged_ips = None
