"""Fluid-flow approximation of the edge-serving scenario.

The discrete-event simulator tracks every frame; this model instead
treats each deviation window as a fluid with constant arrival rate
``lambda_w`` served at the selected entry's capacity ``mu_w``:

* processed volume per window = ``min(lambda_w, mu_w) * T`` (minus the
  reconfiguration dead time when the window triggered a bitstream swap),
* loss = the excess,
* latency/accuracy/power follow the selected entry.

It runs in microseconds, which makes it useful for wide parameter sweeps
and as an independent check: the DES and the fluid model must agree on
the aggregate metrics within a few percent (tested in
``tests/edge/test_fluid.py``).
"""

from __future__ import annotations

from ..runtime.library import LibraryEntry
from .cameras import CameraFleet, WorkloadSpec
from .metrics import RunMetrics, aggregate_runs

__all__ = ["FluidSimulator", "fluid_simulate_policy"]


class FluidSimulator:
    """Window-by-window fluid approximation of one serving run."""

    def __init__(self, policy, workload: WorkloadSpec | None = None,
                 reconfig_time_s: float = 0.145, seed: int = 0):
        self.policy = policy
        self.workload = workload or WorkloadSpec()
        self.reconfig_time_s = reconfig_time_s
        self.seed = seed

    def run(self) -> RunMetrics:
        spec = self.workload
        rates = CameraFleet(spec, seed=self.seed).window_rates()
        window = spec.deviation_interval_s

        current: LibraryEntry | None = self.policy.select(spec.nominal_ips)
        processed = 0.0
        total = 0.0
        latency_sum = 0.0
        accuracy_sum = 0.0
        energy = 0.0
        reconfigs = 0
        dead_total = 0.0

        for w, lam in enumerate(rates):
            t_end = min((w + 1) * window, spec.duration_s)
            t_start = w * window
            duration = max(t_end - t_start, 0.0)
            if duration == 0:
                continue
            selected = self.policy.select(lam, current=current)
            dead = 0.0
            if self.policy.requires_reconfiguration(current, selected) \
                    and w > 0:
                dead = min(self.reconfig_time_s, duration)
                reconfigs += 1
            current = selected
            dead_total += dead

            offered = lam * duration
            served = min(lam, selected.serving_ips) * (duration - dead)
            served = min(served, offered)
            total += offered
            processed += served
            latency_sum += served * selected.latency_s
            accuracy_sum += served * selected.accuracy
            energy += selected.power_at(min(lam, selected.serving_ips)) \
                * duration

        processed_i = int(round(processed))
        total_i = int(round(total))
        return RunMetrics(
            policy=getattr(self.policy, "name", type(self.policy).__name__),
            duration_s=spec.duration_s,
            total_requests=total_i,
            processed=processed_i,
            # Rounded as the remainder so the ledger stays exact.
            lost=total_i - processed_i,
            accuracy=accuracy_sum / processed if processed else 0.0,
            avg_latency_s=latency_sum / processed if processed else 0.0,
            energy_j=energy,
            reconfigurations=reconfigs,
            reconfig_dead_time_s=dead_total,
        )


def fluid_simulate_policy(policy, runs: int = 100,
                          workload: WorkloadSpec | None = None,
                          base_seed: int = 0):
    """Fluid counterpart of :func:`repro.edge.simulate_policy`."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results = [FluidSimulator(policy, workload=workload,
                              seed=base_seed + r).run()
               for r in range(runs)]
    return aggregate_runs(results), results
