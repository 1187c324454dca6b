"""Equivalence suite for the vectorized serving fast path.

``repro.edge.fastsim`` promises **bit-identical** ``RunMetrics``
(including per-tick traces) to the discrete-event oracle, with a
whole-run fallback only on exact event-time ties. These tests pin that
contract: hypothesis drives random workloads, queue capacities,
decision intervals and policies through both engines and compares
every field exactly; random fault specs (every fault category, active
windows, retry budgets) crossed with batching, brownout, partial
reconfiguration and staggered ticks must replay on the fast path
without falling back; and a chaos case checks the dispatcher
end-to-end under the heavy fault preset.
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
                             ServerConfig(sim_mode="vector", **cfg), seed)
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
        for mode in ("event", "vector"):
            agg, runs = simulate_policy(
                make_policy("adapex", lib), runs=4,
                workload=WorkloadSpec(num_cameras=4, ips_per_camera=50.0,
                                      duration_s=6.0),
                config=ServerConfig(sim_mode=mode), base_seed=3)
            out[mode] = (dataclasses.asdict(agg),
                         [dataclasses.asdict(r) for r in runs])
        assert out["event"] == out["vector"]


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
        batch=st.sampled_from([(0.0, 0.0), (0.02, 0.001), (0.0, 0.002)]),
        brownout=st.booleans(),
        partial=st.booleans(),
    )
    def test_fault_campaigns_match_event_loop(
            self, faults, workload, seed, fault_seed, capacity, interval,
            offset, batch, brownout, partial):
        """Any fault spec replays on the fast path (no fallback) with
        every RunMetrics field, trace and conservation ledger identical
        to the event loop."""
        lib = build_library()
        cfg = dict(queue_capacity=capacity, decision_interval_s=interval,
                   decision_offset_s=offset, batch_window_s=batch[0],
                   dispatch_overhead_s=batch[1])
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

        fast = fastsim.run_fast(sim("vector"))
        assert fast is not None
        assert_identical(fast, sim("event").run())


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

        cfg_v = ServerConfig(sim_mode="vector", decision_interval_s=0.25)
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

        assert fastsim.run_fast(sim("vector", 0.25)) is None
        assert_identical(sim("auto", 0.25).run(), sim("event", 0.25).run())
        # Off the tick train the same campaign replays on the fast path.
        fast = fastsim.run_fast(sim("vector", 0.2))
        assert fast is not None and fast.reconfig_retries > 0
        assert_identical(fast, sim("event", 0.2).run())


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
        assert results["auto"] == results["event"] == results["vector"]


class TestConfig:
    def test_sim_mode_validation(self):
        with pytest.raises(ValueError, match="sim_mode"):
            ServerConfig(sim_mode="warp")

    def test_sim_modes_exported(self):
        assert SIM_MODES == ("auto", "event", "vector")
