"""Equivalence suite for the vectorized serving fast path.

``repro.edge.fastsim`` promises **bit-identical** ``RunMetrics``
(including per-tick traces) to the discrete-event oracle, with a
whole-run fallback only on exact event-time ties. These tests pin that
contract: hypothesis drives random workloads, queue capacities,
decision intervals and policies through both engines and compares
every field exactly; random fault specs (every fault category, active
windows, retry budgets) crossed with brownout, partial reconfiguration
and staggered ticks must replay on the fast path without falling back;
micro-batched runs must be declined to the event loop; and a chaos case
checks the dispatcher end-to-end under the heavy fault preset.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import (
    SIM_MODES,
    ServerConfig,
    WorkloadSpec,
    simulate_policy,
)
from repro.edge import fastsim
from repro.edge.server import EdgeServerSimulator
from repro.runtime import make_policy
from repro.runtime.faults import FaultSpec
from repro.runtime.reconfig import PartialReconfigModel

from repro.runtime import Library
from tests.conftest import make_entry as _entry


def build_library(seed: int = 0, thresholds=(0.1, 0.5, 0.9)) -> Library:
    lib = Library(metadata={"dataset": "toy"})
    grid = [(0.0, 0.90, 400.0), (0.4, 0.84, 650.0), (0.8, 0.74, 1100.0)]
    for rate, acc, ips in grid:
        for ct, dacc, dips, rates in zip(
                thresholds,
                (-0.06, -0.02, 0.0),
                (+250.0, +120.0, 0.0),
                ((0.8, 0.15, 0.05), (0.45, 0.30, 0.25),
                 (0.05, 0.15, 0.80))):
            lib.add(_entry(rate=rate, ct=ct, acc=acc + dacc,
                           ips=ips + dips, rates=rates))
        lib.add(_entry(rate=rate, ct=1.0, acc=acc - 0.01, ips=ips - 20.0,
                       variant="backbone"))
    return lib


def run_metrics(policy_lib, workload, config, seed, faults=None):
    sim = EdgeServerSimulator(
        make_policy("adapex", policy_lib), workload, config=config,
        seed=seed, faults=faults)
    return sim.run()


def assert_conserved(m):
    """Every request reaches exactly one terminal state or is still in
    service at the horizon."""
    assert m.processed + m.lost + m.dropped + m.failed + m.shed \
        + m.in_flight == m.total_requests


def assert_identical(a, b):
    """Every RunMetrics field exactly equal, traces compared per key."""
    assert_conserved(a)
    assert_conserved(b)
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    ta, tb = da.pop("trace"), db.pop("trace")
    assert da == db
    assert set(ta) == set(tb)
    for key in ta:
        assert ta[key] == tb[key], f"trace[{key!r}] differs"


workloads = st.builds(
    WorkloadSpec,
    num_cameras=st.integers(1, 12),
    ips_per_camera=st.floats(5.0, 120.0, allow_nan=False),
    duration_s=st.floats(0.5, 12.0, allow_nan=False),
    deviation=st.floats(0.0, 0.6, allow_nan=False),
    deviation_interval_s=st.floats(0.3, 5.0, allow_nan=False),
)


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        workload=workloads,
        seed=st.integers(0, 2**20),
        capacity=st.sampled_from([1, 2, 5, 32, 256]),
        interval=st.floats(0.1, 4.0, allow_nan=False),
    )
    def test_random_conditions(self, workload, seed, capacity, interval):
        lib = build_library()
        cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                   record_trace=True)
        event = run_metrics(lib, workload,
                            ServerConfig(sim_mode="event", **cfg), seed)
        vector = run_metrics(lib, workload,
                             ServerConfig(sim_mode="auto", **cfg), seed)
        assert_identical(event, vector)

    def test_fast_path_actually_engages(self):
        """The default fault-free setup runs on the fast path — guards
        against it silently never running."""
        sim = EdgeServerSimulator(
            make_policy("adapex", build_library()), WorkloadSpec())
        assert fastsim.run_fast(sim) is not None

    def test_golden_conditions(self):
        """The exact conditions pinned by tests/fixtures/golden_trace.json
        agree between the engines (the fixture itself pins event-mode
        values; sim_mode='auto' must reproduce them via the fast path)."""
        workload = WorkloadSpec(num_cameras=6, ips_per_camera=40.0,
                                duration_s=10.0, deviation=0.3,
                                deviation_interval_s=2.0)
        for seed in range(3):
            event = run_metrics(build_library(), workload,
                                ServerConfig(sim_mode="event"), seed)
            auto = run_metrics(build_library(), workload,
                               ServerConfig(sim_mode="auto"), seed)
            assert_identical(event, auto)

    def test_campaign_aggregates_identical(self):
        lib = build_library()
        out = {}
        for mode in ("event", "auto"):
            agg, runs = simulate_policy(
                make_policy("adapex", lib), runs=4,
                workload=WorkloadSpec(num_cameras=4, ips_per_camera=50.0,
                                      duration_s=6.0),
                config=ServerConfig(sim_mode=mode), base_seed=3)
            out[mode] = (dataclasses.asdict(agg),
                         [dataclasses.asdict(r) for r in runs])
        assert out["event"] == out["auto"]


fault_specs = st.builds(
    FaultSpec,
    reconfig_failure_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    reconfig_jitter=st.floats(0.0, 0.9),
    inference_error_prob=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    drop_prob=st.sampled_from([0.0, 0.02, 0.3]),
    spike_prob=st.sampled_from([0.0, 0.3, 1.0]),
    spike_factor=st.floats(1.0, 4.0),
    spike_duration_s=st.floats(0.2, 3.0),
    reconfig_retries=st.integers(0, 3),
    inference_retries=st.integers(0, 3),
    # A zero backoff lands each retry on its own attempt's resume
    # instant — an exact tie the fast path declines by design.
    retry_backoff_s=st.floats(0.01, 0.3),
    active_from_s=st.floats(0.0, 4.0),
).flatmap(lambda spec: st.builds(
    dataclasses.replace, st.just(spec),
    active_until_s=st.one_of(
        st.none(),
        st.floats(spec.active_from_s + 0.1, spec.active_from_s + 8.0))))


class TestFaultReplay:
    @settings(max_examples=60, deadline=None)
    @given(
        faults=fault_specs,
        workload=workloads,
        seed=st.integers(0, 2**20),
        fault_seed=st.integers(0, 2**10),
        capacity=st.sampled_from([1, 3, 32]),
        interval=st.floats(0.1, 3.0),
        offset=st.sampled_from([0.0, 0.37]),
        brownout=st.booleans(),
        partial=st.booleans(),
    )
    def test_fault_campaigns_match_event_loop(
            self, faults, workload, seed, fault_seed, capacity, interval,
            offset, brownout, partial):
        """Any fault spec replays on the fast path (no fallback) with
        every RunMetrics field, trace and conservation ledger identical
        to the event loop."""
        lib = build_library()
        cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                   decision_offset_s=offset)
        if brownout:
            cfg.update(brownout_levels=(0.05, 0.12),
                       brownout_shed_occupancy=0.5)
        if partial:
            cfg["partial_reconfig"] = PartialReconfigModel()

        def sim(mode):
            return EdgeServerSimulator(
                make_policy("adapex", lib), workload,
                config=ServerConfig(sim_mode=mode, **cfg), seed=seed,
                faults=faults, fault_seed=fault_seed)

        fast = fastsim.run_fast(sim("auto"))
        assert fast is not None
        assert_identical(fast, sim("event").run())

    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.sampled_from([(0.02, 0.001), (0.0, 0.002), (1e-4, 0.0)]),
        faults=st.one_of(st.none(), fault_specs),
        workload=workloads,
        seed=st.integers(0, 2**20),
    )
    def test_batched_runs_go_to_event_loop(self, batch, faults, workload,
                                           seed):
        """A batch's size depends on the previous completion, which the
        scan cannot replay: run_fast declines every batched run, and
        sim_mode='auto' then equals the event loop."""
        sim = EdgeServerSimulator(
            make_policy("adapex", build_library()), workload,
            config=ServerConfig(batch_window_s=batch[0],
                                dispatch_overhead_s=batch[1]),
            seed=seed, faults=faults)
        assert fastsim.run_fast(sim) is None
        assert_identical(sim.run(), sim._run_event())


class TestFallback:
    def test_event_mode_forces_oracle(self, monkeypatch):
        """sim_mode='event' never consults the fast path."""
        def boom(sim):  # pragma: no cover - must not be called
            raise AssertionError("fast path used in event mode")
        monkeypatch.setattr(fastsim, "run_fast", boom)
        run_metrics(build_library(), WorkloadSpec(duration_s=2.0),
                    ServerConfig(sim_mode="event"), seed=0)

    def test_tick_tie_falls_back(self):
        """A completion landing exactly on a decision tick is
        scheduling-order ambiguous: run_fast must decline the whole
        run, and the dispatcher must still produce the oracle result."""
        lib = Library(metadata={"dataset": "tie"})
        # Every exit has the same 0.25 s latency, which divides the
        # decision interval exactly: a frame arriving at t=0.0 (forced
        # by the trace below) completes exactly on a tick boundary.
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.25, 0.25, 0.25)))

        class TieTrace:
            duration_s = 1.0
            nominal_ips = 20.0

            def arrival_times(self, seed):
                import numpy as np
                return np.array([0.0, 0.1])

        cfg_v = ServerConfig(sim_mode="auto", decision_interval_s=0.25)
        sim = EdgeServerSimulator(make_policy("adapex", lib), TieTrace(),
                                  config=cfg_v, seed=0)
        assert fastsim.run_fast(sim) is None
        auto = EdgeServerSimulator(
            make_policy("adapex", lib), TieTrace(),
            config=ServerConfig(sim_mode="auto",
                                decision_interval_s=0.25), seed=0).run()
        event = EdgeServerSimulator(
            make_policy("adapex", lib), TieTrace(),
            config=ServerConfig(sim_mode="event",
                                decision_interval_s=0.25), seed=0).run()
        assert_identical(auto, event)


    def test_retry_on_tick_falls_back(self):
        """A reconfiguration retry landing exactly on a decision tick
        is a tie as well: 0.25 s dead time plus 0.25 s backoff after a
        failed attempt on a tick is the next tick of a 0.5 s train."""
        import numpy as np

        class Burst:
            duration_s = 2.0
            nominal_ips = 10.0  # deploy slow, then switch under load

            def arrival_times(self, seed):
                return np.arange(0.0005, 2.0, 0.001)

        def sim(mode, backoff):
            return EdgeServerSimulator(
                make_policy("adapex", build_library()), Burst(),
                config=ServerConfig(sim_mode=mode, decision_interval_s=0.5,
                                    reconfig_time_s=0.25),
                seed=0, faults=FaultSpec(reconfig_failure_prob=1.0,
                                         retry_backoff_s=backoff))

        assert fastsim.run_fast(sim("auto", 0.25)) is None
        assert_identical(sim("auto", 0.25).run(), sim("event", 0.25).run())
        # Off the tick train the same campaign replays on the fast path.
        fast = fastsim.run_fast(sim("auto", 0.2))
        assert fast is not None and fast.reconfig_retries > 0
        assert_identical(fast, sim("event", 0.2).run())


#: Grid step of the tie-heavy scenarios: arrivals, exit latencies and
#: reconfiguration resumes are all multiples of it, so every sum the
#: simulators form is exact and coincidences are exact float ties.
GRID = 1.0 / 256


def grid_library() -> Library:
    """Three accelerators with grid-valued exit latencies; the faster
    ones trade accuracy so load shifts and brownout both reconfigure."""
    lib = Library(metadata={"dataset": "grid"})
    for rate, acc, ips, lats in ((0.0, 0.90, 120.0, (4, 6, 8)),
                                 (0.4, 0.86, 200.0, (2, 4, 6)),
                                 (0.8, 0.80, 320.0, (1, 2, 3))):
        lib.add(_entry(rate=rate, ct=0.5, acc=acc, ips=ips,
                       exit_lats=tuple(k * GRID for k in lats)))
    return lib


class GridTrace:
    """Arrivals on the grid; zero gaps make simultaneous arrivals."""

    def __init__(self, gaps, duration_s):
        self.gaps = gaps
        self.duration_s = duration_s
        self.nominal_ips = 150.0

    def arrival_times(self, seed):
        import numpy as np
        return np.cumsum(np.asarray(self.gaps, dtype=np.float64)) * GRID


class TestTieHeavy:
    def test_grid_campaigns_match_event_loop(self):
        """Overloaded, tie-dense runs: when the fast path accepts a run
        it matches the event loop exactly, and it accepts most runs —
        arrival/completion/resume ties are replayed, not declined."""
        engaged = []

        @settings(max_examples=80, deadline=None, database=None)
        @given(
            gaps=st.lists(st.integers(0, 3), min_size=150, max_size=600),
            capacity=st.integers(1, 3),
            # Off the grid by half a step, ticks never meet a grid
            # completion, but a resume (tick + dead) lands on the grid;
            # on the grid, completions tie with ticks as well.
            offset=st.sampled_from([GRID / 2, GRID / 2, GRID / 2, 0.0]),
            interval=st.sampled_from([0.25, 0.5]),
            brownout=st.booleans(),
            seed=st.integers(0, 2**16),
        )
        def check(gaps, capacity, offset, interval, brownout, seed):
            cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                       decision_offset_s=offset,
                       reconfig_time_s=32 * GRID - offset)
            if brownout:
                # Shedding starts on the bottom rung with the queue
                # possibly above the shed length (1 or 2 frames).
                cfg.update(brownout_levels=(0.08,), brownout_high=0.6,
                           brownout_low=0.2, brownout_shed_occupancy=0.34)
            trace = GridTrace(gaps, duration_s=(sum(gaps) + 64) * GRID)

            def sim(mode):
                return EdgeServerSimulator(
                    make_policy("adapex", grid_library()),
                    trace, config=ServerConfig(sim_mode=mode, **cfg),
                    seed=seed)

            fast = fastsim.run_fast(sim("auto"))
            engaged.append(fast is not None)
            if fast is not None:
                assert_identical(fast, sim("event").run())

        check()
        assert sum(engaged) > len(engaged) / 2

    @pytest.mark.parametrize("capacity,copies", [(64, 1), (1, 2)])
    def test_float_near_ties_match_scalar_recursion(self, capacity, copies):
        """Arrivals at, one ulp before or one ulp after the completion of
        the frame before, under a non-dyadic service time: the closed
        form's rounded cumsum misplaces busy-period starts, so the scan
        only stays exact through its recheck against the exact chain.
        The kernel's state must equal the per-arrival recursion's, and
        the whole run the event loop's."""
        import numpy as np

        service = 0.001
        lib = Library(metadata={"dataset": "ulp"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=1000.0,
                       exit_lats=(service,) * 3))
        rng = np.random.default_rng(0)
        times, c = [], 0.1
        for k in range(2000):
            # The second half never idles (no arrival after the previous
            # completion), so one misplaced start shifts every later
            # completion, the last one included.
            t = float(np.nextafter(c, [c, -np.inf, np.inf][
                rng.integers(0, 3 if k < 1000 else 2)]))
            times += [t] * copies
            c = max(t, c) + service

        class Trace:
            duration_s = 3.0
            nominal_ips = 500.0

            def arrival_times(self, seed):
                return np.array(times)

        def sim(mode):
            return EdgeServerSimulator(
                make_policy("adapex", lib), Trace(),
                config=ServerConfig(sim_mode=mode, queue_capacity=capacity,
                                    decision_offset_s=0.0123), seed=0)

        # The per-arrival admission recursion, one segment, no
        # reconfiguration: the scan must reproduce it bit for bit.
        c_last, qlen, started, lost = float("-inf"), 0, 0, 0
        for t in times:
            while qlen and c_last < t:
                qlen, started, c_last = qlen - 1, started + 1, c_last + service
            if qlen >= capacity:
                lost += 1
            elif qlen == 0 and c_last < t:
                started, c_last = started + 1, t + service
            else:
                qlen += 1
        while qlen:
            qlen, started, c_last = qlen - 1, started + 1, c_last + service

        kernel = fastsim._SerialKernel(sim("auto"), np.array(times), None)
        kernel.entry = lib.entries[0]
        assert kernel.serve(Trace.duration_s, is_tick=False)
        assert (kernel.c_last, kernel.qlen, kernel.started, kernel.lost) \
            == (c_last, 0, started, lost)

        fast = fastsim.run_fast(sim("auto"))
        assert fast is not None
        assert_identical(fast, sim("event").run())

    def test_shedding_starts_above_the_shed_length(self):
        """Shedding switches on with three frames queued and a shed
        length of two: arrivals are shed until enough frames start, even
        when two of them start between one arrival and the next."""
        import numpy as np

        lib = Library(metadata={"dataset": "shed"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.01, 0.01, 0.01)))
        times = np.array([0.0, 0.001, 0.002, 0.003, 0.006, 0.0255])
        sim = EdgeServerSimulator(
            make_policy("adapex", lib), WorkloadSpec(duration_s=1.0),
            config=ServerConfig(queue_capacity=3, brownout_levels=(0.05,),
                                brownout_shed_occupancy=0.5))
        kernel = fastsim._SerialKernel(sim, times, None)
        kernel.entry = lib.entries[0]
        assert kernel.serve(0.005, is_tick=True)
        assert (kernel.qlen, kernel.c_last) == (3, 0.01)
        kernel.shedding = True
        assert kernel.serve(1.0, is_tick=False)
        # 0.006 meets 3 >= 2 queued; by 0.0255 the frames queued at 0.01
        # and 0.02 have started, leaving 1.
        assert (kernel.shed, kernel.lost, kernel.started) == (1, 0, 5)

    def test_carried_completion_on_skipped_tick(self):
        """A frame started before one served boundary and completing on
        a later, skipped tick is a tie too."""
        import numpy as np

        lib = Library(metadata={"dataset": "tie"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.25, 0.25, 0.25)))

        class Trace:
            duration_s = 1.0
            nominal_ips = 20.0

            def arrival_times(self, seed):
                return np.array([0.125, 0.5])

        def served(skipped):
            sim = EdgeServerSimulator(make_policy("adapex", lib), Trace())
            kernel = fastsim._SerialKernel(sim, Trace().arrival_times(0),
                                           None)
            kernel.entry = lib.entries[0]
            assert kernel.serve(0.25, is_tick=True)
            kernel.skipped.append(skipped)
            return kernel.serve(1.0, is_tick=False)

        assert not served(0.375)  # frame 0 completes at 0.375
        assert served(0.4375)

    def test_completion_on_skipped_tick_falls_back(self):
        """With a single entry every tick leaves the kernel's inputs
        unchanged, so no tick serves it — yet a completion landing on
        one (0.3 + 0.2 = 0.5) is still a tie the fast path declines."""
        lib = Library(metadata={"dataset": "tie"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.25, 0.25, 0.25)))

        class Trace:
            duration_s = 1.0
            nominal_ips = 20.0

            def __init__(self, second):
                self.second = second

            def arrival_times(self, seed):
                import numpy as np
                return np.array([0.0, self.second])

        def sim(mode, second):
            return EdgeServerSimulator(
                make_policy("adapex", lib), Trace(second),
                config=ServerConfig(sim_mode=mode, decision_interval_s=0.25,
                                    decision_offset_s=0.125), seed=0)

        # Frame 0 completes at 0.25 (off the 0.375 + k/4 tick train);
        # frame 1 completes at second + 0.25.
        assert fastsim.run_fast(sim("auto", 0.375)) is None
        assert_identical(sim("auto", 0.375).run(), sim("event", 0.375).run())
        fast = fastsim.run_fast(sim("auto", 0.3))
        assert fast is not None and fast.processed == 2
        assert_identical(fast, sim("event", 0.3).run())


class SwitchOnce:
    """Deploys ``first``, then ``second`` from the first tick on."""

    name = "switch-once"

    def __init__(self, first, second):
        self.first, self.second = first, second

    def select(self, workload_ips, current=None):
        return self.first if current is None else self.second


class Arrivals:
    """A fixed arrival trace over one second."""

    duration_s = 1.0
    nominal_ips = 10.0

    def __init__(self, *times):
        self.times = times

    def arrival_times(self, seed):
        import numpy as np
        return np.array(self.times)


class TestInferenceRetries:
    def test_retry_restarts_after_reconfiguration_with_new_entry(self):
        """A frame in service across a reconfiguring tick fails inside
        the dead time, waits at the queue head — where the arrival at
        0.6875 finds the queue full — and restarts at reconfig_until
        with the new entry's latency."""
        slow = _entry(rate=0.0, ct=0.5, acc=0.9, ips=8.0,
                      exit_lats=(0.125,) * 3)
        fast = _entry(rate=0.8, ct=0.5, acc=0.8, ips=64.0,
                      exit_lats=(1 / 64,) * 3)
        # Frame 0 runs 0.4375-0.5625 on `slow`; the tick at 0.5 swaps to
        # `fast` (dead until 0.75). Inside the fault window (until
        # 0.625) its attempt fails; the retry completes outside it.
        sim = EdgeServerSimulator(
            SwitchOnce(slow, fast), Arrivals(0.4375, 0.53125, 0.6875),
            config=ServerConfig(queue_capacity=1, decision_interval_s=0.5,
                                reconfig_time_s=0.25),
            faults=FaultSpec(inference_error_prob=1.0, inference_retries=1,
                             active_until_s=0.625))
        out = fastsim.run_fast(sim)
        assert out is not None
        assert_identical(out, sim._run_event())
        assert (out.processed, out.retries, out.failed, out.lost) \
            == (2, 1, 0, 1)
        assert out.avg_latency_s == 1 / 64

    def test_window_edge_after_refusing_chunk(self, monkeypatch):
        """Two-arrival chunks: the third is refused whole, so the fourth
        starts in the refusal recursion with its first arrival (0.5)
        past the window's opening (0.4375) but its first completion
        (0.375) before it — the chunk must be planned again with the
        window opening mid-chunk."""
        import numpy as np

        monkeypatch.setattr(fastsim, "_CHUNK", 2)
        lib = Library(metadata={"dataset": "edge"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=10.0,
                       exit_lats=(0.125,) * 3))

        class Trace:
            duration_s = 1.0
            nominal_ips = 1.0

            def arrival_times(self, seed):
                return np.array([0.0, 0.015625, 0.03125, 0.046875,
                                 0.5, 0.625])

        sim = EdgeServerSimulator(
            make_policy("adapex", lib), Trace(),
            config=ServerConfig(queue_capacity=1, decision_interval_s=2.0),
            faults=FaultSpec(inference_error_prob=0.5, inference_retries=1,
                             active_from_s=0.4375))
        out = fastsim.run_fast(sim)
        assert out is not None and out.retries > 0
        assert_identical(out, sim._run_event())

    def test_failed_completion_on_skipped_tick_falls_back(self):
        """Every attempt fails; with one entry no tick serves the kernel,
        yet a failed completion landing on one (0.125 + 0.25 = 0.375) is
        a tie the fast path declines."""
        lib = Library(metadata={"dataset": "tie"})
        lib.add(_entry(rate=0.0, ct=0.5, acc=0.9, ips=100.0,
                       exit_lats=(0.25, 0.25, 0.25)))

        def sim(first):
            return EdgeServerSimulator(
                make_policy("adapex", lib), Arrivals(first),
                config=ServerConfig(decision_interval_s=0.25,
                                    decision_offset_s=0.125),
                faults=FaultSpec(inference_error_prob=1.0,
                                 inference_retries=1))

        assert fastsim.run_fast(sim(0.125)) is None
        assert_identical(sim(0.125).run(), sim(0.125)._run_event())
        out = fastsim.run_fast(sim(0.0625))
        assert out is not None and (out.retries, out.failed) == (1, 1)
        assert_identical(out, sim(0.0625)._run_event())


class TestChaos:
    def test_heavy_fault_campaign_matches(self):
        """End-to-end chaos: a --faults heavy campaign produces the same
        aggregates whatever sim_mode asks for (the fast path replays the
        fault plan bit-for-bit, so every mode matches the oracle)."""
        lib = build_library()
        faults = FaultSpec.parse("heavy")
        results = {}
        for mode in SIM_MODES:
            agg, runs = simulate_policy(
                make_policy("adapex", lib), runs=3,
                workload=WorkloadSpec(num_cameras=4, ips_per_camera=40.0,
                                      duration_s=5.0),
                config=ServerConfig(sim_mode=mode), base_seed=1,
                faults=faults, fault_seed=7)
            results[mode] = (dataclasses.asdict(agg),
                             [dataclasses.asdict(r) for r in runs])
        assert results["auto"] == results["event"]


class TestConfig:
    def test_sim_mode_validation(self):
        with pytest.raises(ValueError, match="sim_mode"):
            ServerConfig(sim_mode="warp")

    def test_sim_modes_exported(self):
        assert SIM_MODES == ("auto", "event")
