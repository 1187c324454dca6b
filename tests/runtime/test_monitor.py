"""Workload monitor tests."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import WorkloadMonitor


class TestWorkloadMonitor:
    def test_sampled_rate(self):
        mon = WorkloadMonitor(window_s=1.0)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        assert mon.sampled_ips(1.0) == pytest.approx(9.0)  # 0.0 expired

    def test_window_trims(self):
        mon = WorkloadMonitor(window_s=1.0)
        mon.record_arrival(0.0)
        mon.record_arrival(5.0)
        assert mon.sampled_ips(5.0) == pytest.approx(1.0)

    def test_out_of_order_rejected(self):
        mon = WorkloadMonitor()
        mon.record_arrival(1.0)
        with pytest.raises(ValueError):
            mon.record_arrival(0.5)

    def test_out_of_order_rejected_after_window_expired(self):
        """The ordering check survives a window that trimmed every
        stored arrival."""
        mon = WorkloadMonitor(window_s=1.0)
        mon.record_arrival(5.0)
        assert mon.sampled_ips(100.0) == 0.0
        with pytest.raises(ValueError):
            mon.record_arrival(1.0)
        with pytest.raises(ValueError):
            mon.observe_many([1.0, 2.0])
        mon.observe_many([5.0, 101.0])  # ties with the last are fine
        assert mon.sampled_ips(101.0) == 1.0

    def test_change_flag_lifecycle(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.10)
        for i in range(20):
            mon.record_arrival(i * 0.05)
        assert mon.change_flagged(1.0)  # nothing acknowledged yet
        mon.acknowledge(1.0)
        assert not mon.change_flagged(1.0)

    def test_change_detected_on_rate_jump(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.10)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        mon.acknowledge(1.0)
        # Burst: rate doubles within the next window.
        for i in range(20):
            mon.record_arrival(1.0 + i * 0.05)
        assert mon.change_flagged(2.0)

    def test_small_drift_not_flagged(self):
        mon = WorkloadMonitor(window_s=1.0, change_threshold=0.50)
        for i in range(10):
            mon.record_arrival(i * 0.1)
        mon.acknowledge(1.0)
        for i in range(11):
            mon.record_arrival(1.0 + i * 0.09)
        assert not mon.change_flagged(2.0)

    def test_reset(self):
        mon = WorkloadMonitor()
        mon.record_arrival(0.5)
        mon.acknowledge(1.0)
        mon.reset()
        assert mon.sampled_ips(1.0) == 0.0
        assert mon.change_flagged(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadMonitor(window_s=0.0)
        with pytest.raises(ValueError):
            WorkloadMonitor(change_threshold=-0.1)


class TestObserveMany:
    def test_equivalent_to_per_frame_recording(self):
        times = [0.1, 0.2, 0.2, 0.35, 0.9, 1.4, 2.0]
        one = WorkloadMonitor(window_s=1.0)
        for t in times:
            one.record_arrival(t)
        batch = WorkloadMonitor(window_s=1.0)
        batch.observe_many(times)
        assert one.window.tolist() == batch.window.tolist()
        assert one.sampled_ips(2.0) == batch.sampled_ips(2.0)

    def test_split_batches_equivalent(self):
        times = [i * 0.07 for i in range(50)]
        one = WorkloadMonitor(window_s=0.5)
        one.observe_many(times)
        split = WorkloadMonitor(window_s=0.5)
        split.observe_many(times[:20])
        split.observe_many(times[20:])
        assert one.window.tolist() == split.window.tolist()

    def test_empty_batch_is_noop(self):
        mon = WorkloadMonitor()
        mon.observe_many([])
        assert mon.sampled_ips(1.0) == 0.0

    def test_rejects_unsorted_batch(self):
        mon = WorkloadMonitor()
        with pytest.raises(ValueError):
            mon.observe_many([0.2, 0.1])

    def test_rejects_batch_before_recorded_tail(self):
        mon = WorkloadMonitor()
        mon.record_arrival(1.0)
        with pytest.raises(ValueError):
            mon.observe_many([0.5, 1.5])

    def test_rejects_non_1d(self):
        mon = WorkloadMonitor()
        with pytest.raises(ValueError):
            mon.observe_many([[0.1, 0.2]])


class DequeMonitor:
    """Reference: the pop-per-expired-arrival window."""

    def __init__(self, window_s, change_threshold):
        self.window_s = window_s
        self.change_threshold = change_threshold
        self.arrivals = deque()
        self.acknowledged = None

    def observe(self, times):
        self.arrivals.extend(times)
        self.trim(times[-1])

    def trim(self, now):
        while self.arrivals and self.arrivals[0] <= now - self.window_s:
            self.arrivals.popleft()

    def sampled_ips(self, now):
        self.trim(now)
        return len(self.arrivals) / self.window_s

    def change_flagged(self, now):
        current = self.sampled_ips(now)
        if self.acknowledged is None:
            return True
        base = max(self.acknowledged, 1e-9)
        return abs(current - self.acknowledged) / base \
            > self.change_threshold

    def acknowledge(self, now):
        self.acknowledged = self.sampled_ips(now)
        return self.acknowledged


# Times on a 1/8 s grid: window cutoffs (now - window_s) land exactly on
# recorded arrivals, and zero steps make duplicate timestamps.
steps = st.integers(0, 6).map(lambda k: k / 8)
ops = st.one_of(
    st.tuples(st.just("batch"), st.lists(steps, min_size=1, max_size=12)),
    st.tuples(st.just("one"), steps),
    st.tuples(st.sampled_from(["sample", "flag", "ack"]),
              st.integers(0, 16).map(lambda k: k / 8)),
)


class TestBisectWindow:
    @settings(max_examples=150, deadline=None)
    @given(window=st.sampled_from([0.25, 0.5, 1.0]),
           threshold=st.sampled_from([0.0, 0.1, 0.5]),
           script=st.lists(ops, max_size=40))
    def test_matches_deque_reference(self, window, threshold, script):
        mon = WorkloadMonitor(window_s=window, change_threshold=threshold)
        ref = DequeMonitor(window, threshold)
        clock = 0.0
        for op, arg in script:
            if op == "batch":
                times = []
                for step in arg:
                    clock += step
                    times.append(clock)
                mon.observe_many(times)
                ref.observe(times)
            elif op == "one":
                clock += arg
                mon.record_arrival(clock)
                ref.observe([clock])
            else:
                # Reads at the clock or later, e.g. exactly one window
                # after a recorded arrival.
                now = clock + arg
                assert getattr(mon, {"sample": "sampled_ips",
                                     "flag": "change_flagged",
                                     "ack": "acknowledge"}[op])(now) \
                    == getattr(ref, {"sample": "sampled_ips",
                                     "flag": "change_flagged",
                                     "ack": "acknowledge"}[op])(now)
            assert mon.window.tolist() == list(ref.arrivals)

    def test_storage_bounded_over_long_stream(self):
        """A 1 s window at 1024 arrivals/s, fed in batches of 128 for
        1000 s, keeps a buffer proportional to the window."""
        mon = WorkloadMonitor(window_s=1.0)
        step = 1.0 / 1024  # exact grid: the window count is exact too
        for b in range(8000):
            mon.observe_many([(b * 128 + i) * step for i in range(128)])
            assert mon._times.size <= 4 * (1024 + 128)
        assert mon.sampled_ips((8000 * 128 - 1) * step) == 1024.0
