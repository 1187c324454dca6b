"""Correlated-fault chaos suite: rack loss, thundering herds, the
request-conservation ledger under hypothesis, and the coordinator's
capacity-cap invariant."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.cameras import CameraFleet
from repro.edge.server import EdgeServerSimulator
from repro.fleet import (FLEET_FAULT_PRESETS, CoordinationError,
                         ElasticConfig, FleetConfig, FleetFaultPlan,
                         FleetFaultSpec, ReconfigCoordinator,
                         make_tenants, max_concurrent_swaps,
                         simulate_fleet)
from repro.runtime import FaultPlan, Library
from tests.conftest import make_entry


def chaos_config(**kw):
    defaults = dict(num_servers=4, rack_size=2, duration_s=5.0,
                    slo_tiers=(0.05, 0.10))
    defaults.update(kw)
    return FleetConfig(**defaults)


def chaos_tenants(count=12, slo=(0.0, 0.80)):
    return make_tenants(count, cameras=2, ips_per_camera=20.0,
                        slo_tiers=slo)


def generated(tenants, cfg, seed):
    return sum(
        len(CameraFleet(t.workload(cfg.duration_s),
                        seed=(seed, i)).arrival_times())
        for i, t in enumerate(tenants))


class TestRackLoss:
    def test_rack_loss_kills_exactly_one_server_group(self, fleet_library):
        cfg = chaos_config()
        spec = FleetFaultSpec.parse("rack-loss,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, chaos_tenants(), cfg,
                                seed=3, faults=spec, fault_seed=1)
        assert len(result.dead_servers) == cfg.rack_size
        racks = {result.servers[sid].rack for sid in result.dead_servers}
        assert len(racks) == 1  # the failure domain is the whole rack
        assert result.fleet.dead_servers == cfg.rack_size

    def test_dead_servers_stop_at_the_kill_time(self, fleet_library):
        cfg = chaos_config()
        spec = FleetFaultSpec.parse("rack-loss,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, chaos_tenants(), cfg,
                                seed=3, faults=spec, fault_seed=1)
        for sid, kill in result.dead_servers.items():
            assert kill == 2.0
            run = result.servers[sid]
            assert run.killed_at_s == 2.0
            assert run.metrics.duration_s == 2.0  # no serving afterwards

    def test_clean_failover_conserves_modulo_outage_drops(self,
                                                          fleet_library):
        cfg = chaos_config()
        tenants = chaos_tenants()
        spec = FleetFaultSpec.parse("rack-loss,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, tenants, cfg, seed=3,
                                faults=spec, fault_seed=1)
        # rack-loss drops the outage backlog: every generated request is
        # either offered to some server or counted failover-dropped.
        assert result.fleet.total_requests + result.fleet.failover_dropped \
            == generated(tenants, cfg, 3)
        assert result.fleet.failover_dropped > 0
        assert result.fleet.herd_delayed == 0

    def test_reroute_keeps_slo_violations_bounded(self, fleet_library):
        cfg = chaos_config()
        tenants = chaos_tenants(16, slo=(0.0, 0.80))
        spec = FleetFaultSpec.parse("rack-loss,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, tenants, cfg, seed=3,
                                faults=spec, fault_seed=1)
        # Only tenants that touched a dead server can possibly violate:
        # survivors keep serving their own streams untouched.
        touched = {tid for tid, sid in result.assignment.items()
                   if sid in result.dead_servers}
        assert set(result.slo_violations) <= touched
        assert result.fleet.slo_violations <= len(touched)
        # And the failover actually re-homed the stranded streams.
        assert set(result.reroutes) == touched
        assert all(sid not in result.dead_servers
                   for sid in result.reroutes.values())

    def test_campaign_under_faults_is_worker_invariant(self,
                                                       fleet_library):
        cfg = chaos_config()
        spec = FleetFaultSpec.parse("rack-loss")
        runs = [simulate_fleet(fleet_library, chaos_tenants(), cfg,
                               seed=5, faults=spec, fault_seed=2,
                               workers=w) for w in (1, 3)]
        assert runs[0].fleet == runs[1].fleet
        assert runs[0].servers == runs[1].servers
        assert runs[0].dead_servers == runs[1].dead_servers


class TestThunderingHerd:
    def test_herd_replays_the_backlog_instead_of_dropping(self,
                                                          fleet_library):
        cfg = chaos_config()
        tenants = chaos_tenants()
        spec = FleetFaultSpec.parse("thundering-herd,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, tenants, cfg, seed=3,
                                faults=spec, fault_seed=1)
        assert result.fleet.herd_delayed > 0
        assert result.fleet.failover_dropped == 0
        # Everything generated reaches some server: full conservation.
        assert result.fleet.total_requests == generated(tenants, cfg, 3)

    def test_herd_spikes_the_survivors(self, fleet_library):
        cfg = chaos_config()
        tenants = chaos_tenants()
        spec = FleetFaultSpec.parse("thundering-herd,kill_time_s=2.0")
        clean = simulate_fleet(fleet_library, tenants, cfg, seed=3)
        herd = simulate_fleet(fleet_library, tenants, cfg, seed=3,
                              faults=spec, fault_seed=1)
        survivors = [sid for sid in range(cfg.num_servers)
                     if sid not in herd.dead_servers]
        extra = sum(herd.servers[s].metrics.total_requests
                    for s in survivors) \
            - sum(clean.servers[s].metrics.total_requests
                  for s in survivors)
        assert extra > 0  # the survivors absorbed the dead rack's load

    def test_outage_outlasting_the_campaign_drops_everything(
            self, fleet_library):
        cfg = chaos_config()
        tenants = chaos_tenants()
        spec = FleetFaultSpec(racks_lost=1, kill_time_s=2.0,
                              reroute_delay_s=100.0)
        result = simulate_fleet(fleet_library, tenants, cfg, seed=3,
                                faults=spec, fault_seed=1)
        assert result.fleet.herd_delayed == 0
        assert result.fleet.total_requests + result.fleet.failover_dropped \
            == generated(tenants, cfg, 3)


@functools.lru_cache(maxsize=1)
def _chaos_library():
    """Module-level twin of the ``fleet_library`` fixture: hypothesis
    properties cannot take function-scoped fixtures, so the same
    hand-built ladder is cached here once per process."""
    lib = Library(metadata={"dataset": "fleet-toy"})
    grid = [(0.0, 0.90, 400.0), (0.3, 0.86, 700.0), (0.6, 0.80, 1000.0)]
    for rate, acc, ips in grid:
        for ct, dacc, dips in [(0.2, -0.04, +200.0),
                               (0.5, -0.02, +100.0),
                               (0.8, 0.0, 0.0)]:
            lib.add(make_entry(rate=rate, ct=ct, acc=acc + dacc,
                               ips=ips + dips))
        lib.add(make_entry(rate=rate, ct=1.0, acc=acc - 0.01,
                           ips=ips - 50.0, variant="backbone"))
    return lib


class TestConservationProperty:
    """Every generated request is accounted for — served by some server
    or recorded ``failover_dropped`` — across the whole fault surface:
    rack-loss count x herd/drop mode x kill time x seeds, in both the
    fixed-fleet and the elastic control plane."""

    @given(racks_lost=st.integers(0, 2),
           herd=st.booleans(),
           kill=st.floats(0.5, 3.5),
           seed=st.integers(0, 3),
           fault_seed=st.integers(0, 3),
           elastic=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_ledger_conserves_requests(self, racks_lost, herd, kill,
                                       seed, fault_seed, elastic):
        cfg = chaos_config(duration_s=4.0)
        tenants = chaos_tenants(8)
        spec = FleetFaultSpec(racks_lost=racks_lost, kill_time_s=kill,
                              herd=herd) if racks_lost else None
        ecfg = ElasticConfig(min_servers=1, max_servers=6,
                             cooldown_s=2.0) if elastic else None
        result = simulate_fleet(_chaos_library(), tenants, cfg,
                                seed=seed, faults=spec,
                                fault_seed=fault_seed, elastic=ecfg)
        total = sum(len(t.arrival_times(cfg.duration_s, seed=(seed, i)))
                    for i, t in enumerate(tenants))
        fleet = result.fleet
        assert fleet.total_requests + fleet.failover_dropped == total
        if spec is None:
            assert fleet.failover_dropped == 0
        if elastic:  # planned migrations never drop a frame
            assert all(m.dropped == 0 for m in result.migrations
                       if m.reason != "failover")

    def test_migration_off_an_undetected_dead_server(self):
        """A planned migration can leave a server that died but is not
        detected yet. The dead server keeps only the frames it got
        before its death; the rest move with the tenant, so every
        server's own ledger balances."""
        cfg = chaos_config(duration_s=4.0)
        result = simulate_fleet(
            _chaos_library(), chaos_tenants(8), cfg, seed=0,
            faults=FleetFaultSpec(racks_lost=1, kill_time_s=1.0,
                                  herd=False),
            fault_seed=1,
            elastic=ElasticConfig(min_servers=1, max_servers=6,
                                  cooldown_s=2.0))
        killed = {run.server_id: run.killed_at_s for run in result.servers
                  if run.killed_at_s is not None}
        assert any(m.reason != "failover" and m.src in killed
                   and m.at_s > killed[m.src] for m in result.migrations)
        for run in result.servers:
            m = run.metrics
            assert m.processed + m.lost + m.dropped + m.failed + m.shed \
                + m.in_flight == m.total_requests

    def test_conservation_holds_under_the_spike_overlay(self,
                                                        fleet_library):
        """``fleet-chaos`` adds per-server arrival spikes on top of the
        tenant streams; the ledger must balance against generated plus
        the recomputed spike injections, exactly."""
        cfg = chaos_config(num_servers=6, rack_size=2)
        tenants = chaos_tenants()
        spec = FleetFaultSpec.parse("fleet-chaos,kill_time_s=2.0")
        seed, fault_seed = 3, 1
        result = simulate_fleet(fleet_library, tenants, cfg, seed=seed,
                                faults=spec, fault_seed=fault_seed)
        base = sum(len(t.arrival_times(cfg.duration_s, seed=(seed, i)))
                   for i, t in enumerate(tenants))
        # Re-derive each server's spike injections from first
        # principles: the overlay draws from the shard's nominal load
        # (initial assignment only) over the shard's lifetime.
        nominal = {sid: 0.0 for sid in range(cfg.num_servers)}
        for t in tenants:
            nominal[result.assignment[t.tenant_id]] += t.nominal_ips
        spikes = 0
        for sid in range(cfg.num_servers):
            plan = FaultPlan(
                spec.server_faults,
                seed=(fault_seed, seed + 1_000_003 * (sid + 1)))
            spikes += len(plan.spike_arrivals(
                result.dead_servers.get(sid, cfg.duration_s),
                nominal[sid]))
        assert spikes > 0
        fleet = result.fleet
        assert fleet.total_requests + fleet.failover_dropped \
            == base + spikes


class TestFleetChaosEngines:
    def test_fleet_chaos_identical_across_engines(self, fleet_library,
                                                  monkeypatch):
        """A ``fleet-chaos`` campaign (heavy per-server overlay, rack
        loss, herd replay, elastic control plane) is field-for-field
        identical whether every server runs on the event loop or on the
        fault-replaying fast path."""
        tenants = chaos_tenants(24)
        spec = FleetFaultSpec.parse("fleet-chaos,kill_time_s=3.0")
        ecfg = ElasticConfig(min_servers=2, max_servers=6,
                             cooldown_s=1.0)

        def campaign(mode):
            return simulate_fleet(
                fleet_library, tenants,
                chaos_config(num_servers=4, rack_size=2, duration_s=8.0,
                             sim_mode=mode),
                seed=3, faults=spec, fault_seed=1, elastic=ecfg)

        event = campaign("event")

        def no_event_loop(self):
            raise AssertionError("server run fell back to the event loop")

        # Every server of the auto campaign must replay on the fast path.
        monkeypatch.setattr(EdgeServerSimulator, "_run_event",
                            no_event_loop)
        auto = campaign("auto")
        assert auto.fleet == event.fleet
        assert auto.servers == event.servers
        assert auto.migrations == event.migrations
        assert auto.scale_events == event.scale_events
        assert auto.dead_servers == event.dead_servers
        assert event.migrations and event.scale_events
        # The heavy overlay really fired: drops, inference retries and
        # a retry budget exhausted.
        assert all(r.metrics.dropped for r in event.servers)
        assert sum(r.metrics.retries for r in event.servers) > 0
        assert sum(r.metrics.failed for r in event.servers) > 0


class TestFleetChaosPreset:
    def test_preset_parsing_and_overrides(self):
        spec = FleetFaultSpec.parse("fleet-chaos")
        assert spec.racks_lost == 2
        assert spec.server_faults is not None
        assert spec.server_faults.reconfig_failure_prob > 0
        spec = FleetFaultSpec.parse("rack-loss,racks_lost=3,herd=true")
        assert spec.racks_lost == 3 and spec.herd is True
        spec = FleetFaultSpec.parse("kill_time_s=none")
        assert spec.kill_time_s is None
        with pytest.raises(ValueError, match="unknown fleet fault preset"):
            FleetFaultSpec.parse("volcano")
        with pytest.raises(ValueError, match="must come first"):
            FleetFaultSpec.parse("racks_lost=1,rack-loss")
        with pytest.raises(ValueError, match="unknown fleet fault param"):
            FleetFaultSpec.parse("racks=1")
        with pytest.raises(ValueError, match="unknown per-server preset"):
            FleetFaultSpec(server_preset="mega")

    def test_all_presets_are_valid_and_any_faults(self):
        for name, spec in FLEET_FAULT_PRESETS.items():
            assert spec.any_faults, name

    def test_plan_realization_is_deterministic(self):
        spec = FleetFaultSpec(racks_lost=2)
        a = FleetFaultPlan(spec, seed=(3, 9)).realize(8, 10.0)
        b = FleetFaultPlan(spec, seed=(3, 9)).realize(8, 10.0)
        c = FleetFaultPlan(spec, seed=(4, 9)).realize(8, 10.0)
        assert a == b
        assert len(a) == 2
        assert all(0.0 < t <= 10.0 for t in a.values())
        assert a != c or list(a) != list(c)  # seeds decorrelate

    def test_drawn_kill_times_fall_mid_run(self):
        spec = FleetFaultSpec(racks_lost=4, kill_time_s=None)
        killed = FleetFaultPlan(spec, seed=0).realize(4, 10.0)
        assert all(3.0 <= t <= 7.0 for t in killed.values())

    def test_chaos_campaign_with_server_overlay_runs(self, fleet_library):
        cfg = chaos_config(num_servers=6, rack_size=2)
        spec = FleetFaultSpec.parse("fleet-chaos,kill_time_s=2.0")
        result = simulate_fleet(fleet_library, chaos_tenants(), cfg,
                                seed=3, faults=spec, fault_seed=1,
                                workers=2)
        assert result.fleet.dead_servers == 4  # two racks of two
        again = simulate_fleet(fleet_library, chaos_tenants(), cfg,
                               seed=3, faults=spec, fault_seed=1)
        assert again.fleet == result.fleet  # overlay is seed-exact too


class TestCoordinatorInvariant:
    """Concurrent reconfigurations never exceed the capacity cap —
    hypothesis over stagger schedules, checked against the brute-force
    overlap oracle."""

    @given(n=st.integers(1, 48),
           capacity=st.floats(0.05, 1.0),
           interval=st.floats(0.5, 4.0),
           swap=st.floats(0.01, 0.3))
    @settings(max_examples=120, deadline=None)
    def test_schedule_never_exceeds_cap(self, n, capacity, interval,
                                        swap):
        coord = ReconfigCoordinator(capacity_fraction=capacity,
                                    decision_interval_s=interval,
                                    max_swap_s=swap)
        try:
            sched = coord.schedule(n)
        except CoordinationError:
            return  # infeasible layout: correctly refused
        assert len(sched.offsets) == n
        assert all(0.0 <= off < interval for off in sched.offsets)
        peak = max_concurrent_swaps(sched.offsets, swap, interval)
        assert peak <= sched.max_concurrent
        assert sched.max_concurrent <= max(
            1, int(capacity * n + 1e-9))

    @given(n=st.integers(2, 32), capacity=st.floats(0.02, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_infeasible_layouts_refuse_rather_than_violate(self, n,
                                                           capacity):
        """Whenever schedule() succeeds the cap holds; it never returns
        a schedule that merely 'does its best'."""
        coord = ReconfigCoordinator(capacity_fraction=capacity,
                                    decision_interval_s=1.0,
                                    max_swap_s=0.145)
        try:
            sched = coord.schedule(n)
        except CoordinationError:
            return
        assert max_concurrent_swaps(sched.offsets, 0.145, 1.0) \
            <= sched.max_concurrent
