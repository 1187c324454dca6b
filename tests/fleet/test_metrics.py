"""Fleet metric merge: permutation invariance and accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.metrics import RunMetrics
from repro.fleet import FleetMetrics, ServerRun, merge_fleet


def run_metrics(processed, lost, dropped, failed, extra, accuracy,
                latency, energy):
    total = processed + lost + dropped + failed + extra
    return RunMetrics(
        policy="AdaPEx", duration_s=10.0, total_requests=total,
        processed=processed, lost=lost, accuracy=accuracy,
        avg_latency_s=latency, energy_j=energy, reconfigurations=1,
        reconfig_dead_time_s=0.145, dropped=dropped, failed=failed,
        in_flight=extra)


server_runs = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 50),
              st.integers(0, 50), st.integers(0, 50), st.integers(0, 10),
              st.floats(0.0, 1.0), st.floats(0.0, 0.1),
              st.floats(0.0, 100.0)),
    min_size=1, max_size=12)


class TestPermutationInvariance:
    @given(runs=server_runs, perm=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_order_independent_to_the_bit(self, runs, perm):
        base = [ServerRun(server_id=i, rack=i // 2, tier=0.1,
                          killed_at_s=None,
                          metrics=run_metrics(*params))
                for i, params in enumerate(runs)]
        shuffled = list(base)
        perm.shuffle(shuffled)
        a = merge_fleet(base, tenants=7, duration_s=10.0)
        b = merge_fleet(shuffled, tenants=7, duration_s=10.0)
        # Dataclass equality compares every float for exact equality:
        # any order-dependent accumulation would fail here.
        assert a == b


class TestAccounting:
    def make(self, **kw):
        runs = [ServerRun(0, 0, 0.1, None,
                          run_metrics(90, 5, 3, 2, 0, 0.9, 0.002, 10.0)),
                ServerRun(1, 0, 0.1, 2.0,
                          run_metrics(40, 0, 0, 0, 0, 0.8, 0.004, 4.0))]
        defaults = dict(tenants=5, rerouted=2, failover_dropped=10,
                        herd_delayed=3, slo_violations=1, duration_s=10.0)
        defaults.update(kw)
        return merge_fleet(runs, **defaults)

    def test_counters_sum_across_servers(self):
        m = self.make()
        assert m.servers == 2
        assert m.dead_servers == 1
        assert m.total_requests == 100 + 40
        assert m.processed == 130
        assert m.lost == 5 and m.dropped == 3 and m.failed == 2
        assert m.offered == 140 + 10
        assert m.unserved == 5 + 3 + 2 + 10

    def test_failover_drops_dent_fleet_qoe(self):
        clean = self.make(failover_dropped=0)
        lossy = self.make(failover_dropped=50)
        assert lossy.accuracy == clean.accuracy  # same served frames
        assert lossy.qoe < clean.qoe  # but the fleet delivered less
        assert lossy.processed_fraction < clean.processed_fraction

    def test_weighted_means(self):
        m = self.make()
        expected_acc = (0.9 * 90 + 0.8 * 40) / 130
        assert m.accuracy == pytest.approx(expected_acc)
        expected_lat = (0.002 * 90 + 0.004 * 40) / 130
        assert m.avg_latency_s == pytest.approx(expected_lat)
        assert m.fleet_power_w == pytest.approx((10.0 + 4.0) / 10.0)
        assert m.energy_per_inference_j == pytest.approx(14.0 / 130)
        assert m.edp == pytest.approx(m.energy_per_inference_j
                                      * m.avg_latency_s)

    def test_as_row_is_flat_and_json_safe(self):
        import json
        row = self.make().as_row()
        json.dumps(row)  # no numpy scalars, no nested structures
        assert row["servers"] == 2
        assert row["slo_violations"] == 1

    def test_empty_and_duplicate_rejected(self):
        with pytest.raises(ValueError, match="no server runs"):
            merge_fleet([], tenants=0, duration_s=1.0)
        run = ServerRun(0, 0, 0.1, None,
                        run_metrics(1, 0, 0, 0, 0, 0.9, 0.001, 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            merge_fleet([run, run], tenants=1, duration_s=1.0)

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError, match="counters"):
            FleetMetrics(servers=1, dead_servers=0, tenants=1,
                         rerouted_tenants=0, duration_s=1.0,
                         total_requests=-1, processed=0, lost=0,
                         dropped=0, failed=0, failover_dropped=0,
                         herd_delayed=0, accuracy=0.0, avg_latency_s=0.0,
                         energy_j=0.0, reconfigurations=0,
                         reconfig_dead_time_s=0.0, fault_dead_time_s=0.0,
                         slo_violations=0)

    def test_zero_processed_fleet_is_well_defined(self):
        runs = [ServerRun(0, 0, 0.1, None,
                          run_metrics(0, 0, 0, 0, 0, 0.0, 0.0, 0.0))]
        m = merge_fleet(runs, tenants=1, duration_s=10.0)
        assert m.accuracy == 0.0
        assert m.avg_latency_s == 0.0
        assert m.edp == 0.0
        assert m.processed_fraction == 1.0  # nothing offered
