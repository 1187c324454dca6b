"""Metrics computations."""

import pytest

from repro.edge import RunMetrics, aggregate_runs, edp, qoe


def run(policy="X", processed=900, lost=100, accuracy=0.8, latency=0.004,
        energy=25.0, duration=25.0):
    return RunMetrics(
        policy=policy, duration_s=duration, total_requests=processed + lost,
        processed=processed, lost=lost, accuracy=accuracy,
        avg_latency_s=latency, energy_j=energy, reconfigurations=2,
        reconfig_dead_time_s=0.29,
    )


class TestQoEandEDP:
    def test_qoe_definition(self):
        assert qoe(0.8, 0.9) == pytest.approx(0.72)
        with pytest.raises(ValueError):
            qoe(0.8, 1.2)

    def test_edp_definition(self):
        assert edp(2e-3, 4e-3) == pytest.approx(8e-6)


class TestRunMetrics:
    def test_derived_quantities(self):
        r = run()
        assert r.inference_loss == pytest.approx(0.1)
        assert r.processed_fraction == pytest.approx(0.9)
        assert r.avg_power_w == pytest.approx(1.0)
        assert r.qoe == pytest.approx(0.8 * 0.9)
        assert r.energy_per_inference_j == pytest.approx(25.0 / 900)
        assert r.edp == pytest.approx((25.0 / 900) * 0.004)

    def test_zero_requests(self):
        r = run(processed=0, lost=0)
        assert r.inference_loss == 0.0
        assert r.processed_fraction == 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            RunMetrics(policy="x", duration_s=1.0, total_requests=5,
                       processed=4, lost=2, accuracy=0.5,
                       avg_latency_s=0.001, energy_j=1.0,
                       reconfigurations=0, reconfig_dead_time_s=0.0)


class TestDroppedVsCompletedSemantics:
    """Pin the accounting contract: dropped and failed requests are
    never folded into throughput — they count as unserved alongside
    queue losses, while ``processed`` covers successful completions
    only."""

    def _run(self, processed=700, lost=100, dropped=150, failed=50):
        return RunMetrics(
            policy="X", duration_s=25.0,
            total_requests=processed + lost + dropped + failed,
            processed=processed, lost=lost, accuracy=0.8,
            avg_latency_s=0.004, energy_j=25.0, reconfigurations=1,
            reconfig_dead_time_s=0.145, dropped=dropped, failed=failed,
            retries=30, reconfig_failures=2, reconfig_retries=2,
            fault_dead_time_s=0.3)

    def test_unserved_is_lost_plus_dropped_plus_failed(self):
        r = self._run()
        assert r.unserved == 100 + 150 + 50

    def test_inference_loss_counts_every_unserved_request(self):
        r = self._run()
        assert r.inference_loss == pytest.approx(300 / 1000)

    def test_processed_fraction_counts_completions_only(self):
        r = self._run()
        assert r.processed_fraction == pytest.approx(700 / 1000)
        # QoE degrades with drops even at constant accuracy.
        assert r.qoe == pytest.approx(0.8 * 0.7)

    def test_defaults_preserve_fault_free_semantics(self):
        r = run()  # module-level factory: no fault counters
        assert r.dropped == 0 and r.failed == 0 and r.retries == 0
        assert r.unserved == r.lost
        assert r.inference_loss == pytest.approx(0.1)

    def test_counts_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            RunMetrics(policy="x", duration_s=1.0, total_requests=10,
                       processed=5, lost=3, accuracy=0.5,
                       avg_latency_s=0.001, energy_j=1.0,
                       reconfigurations=0, reconfig_dead_time_s=0.0,
                       dropped=2, failed=1)

    def test_counts_short_of_total_rejected(self):
        # The ledger is exact: a request that reaches no terminal state
        # and is not in flight at the horizon is an accounting bug.
        with pytest.raises(ValueError, match="must equal"):
            RunMetrics(policy="x", duration_s=1.0, total_requests=10,
                       processed=5, lost=2, accuracy=0.5,
                       avg_latency_s=0.001, energy_j=1.0,
                       reconfigurations=0, reconfig_dead_time_s=0.0,
                       dropped=1, failed=0, in_flight=1)

    def test_negative_counters_rejected(self):
        with pytest.raises(ValueError):
            RunMetrics(policy="x", duration_s=1.0, total_requests=10,
                       processed=5, lost=0, accuracy=0.5,
                       avg_latency_s=0.001, energy_j=1.0,
                       reconfigurations=0, reconfig_dead_time_s=0.0,
                       dropped=-1)

    def test_aggregate_fault_means(self):
        runs = [self._run(dropped=100), self._run(dropped=200)]
        agg = aggregate_runs(runs)
        assert agg.dropped_per_run == pytest.approx(150.0)
        assert agg.failed_per_run == pytest.approx(50.0)
        assert agg.retries_per_run == pytest.approx(30.0)
        assert agg.reconfig_failures == pytest.approx(2.0)
        assert agg.fault_dead_time_s == pytest.approx(0.3)
        row = agg.fault_row()
        assert row["dropped"] == pytest.approx(150.0)
        assert row["fault_dead_ms"] == pytest.approx(300.0)


class TestAggregate:
    def test_means(self):
        runs = [run(accuracy=0.8), run(accuracy=0.6)]
        agg = aggregate_runs(runs)
        assert agg.accuracy == pytest.approx(0.7)
        assert agg.runs == 2
        assert agg.policy == "X"

    def test_mixed_policies_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([run(policy="A"), run(policy="B")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([])

    def test_as_row_units(self):
        agg = aggregate_runs([run()])
        row = agg.as_row()
        assert row["infer_loss_pct"] == pytest.approx(10.0)
        assert row["accuracy_pct"] == pytest.approx(80.0)
        assert row["latency_ms"] == pytest.approx(4.0)
