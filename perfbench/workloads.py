"""The benchmark's three workloads.

Each workload turns the seed into inputs (:meth:`setup`), makes one
batch call into ``repro`` from this process, and checks that call's
outputs (:meth:`check`). A batch is a list of independent parts
(:meth:`parts`: the generate call, each policy, each fleet campaign);
the runner times each part on its own, and nothing else. Sweep and shard
pools run with ``workers=1``: on a 2-core host a 2-worker design sweep
was slower and far less steady than the serial one, so measuring the
parallel layer is left out.

* ``design_sweep`` runs ``nn``, ``pruning``, ``ir`` and ``finn`` through a
  cold ``LibraryGenerator.generate``; ``runtime``, ``edge`` and
  ``fleet`` do no work.
* ``edge_faults`` is the paper's Table I scenario under the ``light``
  per-server fault preset. Faults force every run onto the event loop.
* ``fleet_ramp`` is an elastic campaign whose fault-free servers stay on
  the vectorized fast path while the control plane routes, scales and
  migrates.

Camera traffic is an open loop: every arrival is generated before a run
starts and never waits on the server.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.config import AdaPExConfig, paper_threshold_sweep
from repro.core.design_time import LibraryGenerator
from repro.edge.cameras import CameraFleet, WorkloadSpec
from repro.edge.server import ServerConfig, simulate_policy
from repro.fleet import (ElasticConfig, FleetConfig, FleetFaultSpec,
                         cluster, make_tenants)
from repro.nn.trainer import TrainConfig
from repro.runtime.baselines import make_policy
from repro.runtime.faults import FaultSpec
from repro.runtime.library import Library

from synth import synthesize_library


@dataclass
class Outcome:
    """What one checked iteration of a workload produced.

    ``work`` counts the items the timed call completed (the numerator of
    ``work_per_s``); ``ops``/``op_failures`` count the operations it
    attempted and how many of them failed; ``sim`` holds the simulated
    metrics and ``fingerprint`` digests the whole simulated output, both
    of which must repeat exactly across iterations.
    """

    work: int
    ops: int
    op_failures: int
    checks: dict
    sim: dict
    fingerprint: str
    detail: dict = field(default_factory=dict)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def front_hypervolume(points, ref=(0.0, 0.0)) -> float:
    """Area dominated by the (accuracy, ips) Pareto front above ``ref``.

    Both coordinates are maximized. The result is in accuracy x IPS.
    """
    area = 0.0
    best_acc = ref[0]
    for acc, ips in sorted(points, key=lambda p: (-p[1], -p[0])):
        if ips <= ref[1] or acc <= best_acc:
            continue
        area += (acc - best_acc) * (ips - ref[1])
        best_acc = acc
    return area


class Workload:
    """A batch of independent calls into ``repro`` and its output check."""

    def parts(self, inputs) -> list:
        """Zero-argument callables; together they are one batch call."""
        raise NotImplementedError

    def run(self, inputs) -> list:
        """The whole batch: each part's result, in order."""
        return [part() for part in self.parts(inputs)]


class DesignSweep(Workload):
    """Cold serial Library generation over CNV, point caching off."""

    name = "design_sweep"
    rate_metric = "design_points_per_s"
    work_unit = "design points"
    #: Two rates keep one generate call near 3 s, so a 30 s run holds
    #: enough calls for a steady median.
    rates = (0.0, 0.8)

    def setup(self, seed: int) -> AdaPExConfig:
        return AdaPExConfig(
            dataset="cifar10", train_samples=192, test_samples=128,
            width_scale=0.125, pruning_rates=list(self.rates),
            confidence_thresholds=paper_threshold_sweep(),
            initial_training=TrainConfig(epochs=1, batch_size=64, lr=0.002),
            retraining=TrainConfig(epochs=1, batch_size=64, lr=0.001),
            seed=seed, parallel_workers=1)

    def parts(self, cfg: AdaPExConfig) -> list:
        return [lambda: LibraryGenerator(cfg).generate()]

    def check(self, cfg: AdaPExConfig, results: list, out_dir) -> Outcome:
        lib, = results
        variants = 3  # pruned exits, not-pruned exits, backbone
        rates = len(cfg.pruning_rates)
        thresholds = len(cfg.confidence_thresholds)
        quarantined = len(lib.metadata.get("quarantined") or [])
        points = variants * rates
        path = out_dir / f"design_sweep-{cfg.seed}.library.json"
        lib.save(path)
        text = lib.to_json()
        reloaded = Library.load(path).to_json()  # verifies the checksum
        path.unlink()
        hv = front_hypervolume([(e.accuracy, e.serving_ips) for e in lib])
        return Outcome(
            work=points - quarantined, ops=points, op_failures=quarantined,
            checks={
                "no_quarantined_points": quarantined == 0,
                "entry_count": len(lib) == (variants - 1) * rates
                * thresholds + rates,
                "save_load_roundtrip": reloaded == text,
            },
            sim={"library_front_hv": hv, "entries": len(lib),
                 "points": points,
                 "best_accuracy": max(e.accuracy for e in lib)},
            fingerprint=_digest(text))


@dataclass
class EdgeInputs:
    library: Library
    workload: WorkloadSpec
    base_seed: int
    fault_seed: int
    expected_arrivals: list  # per run, regenerated independently


class EdgeFaults(Workload):
    """Table I on one server: four policies under the ``light`` preset."""

    name = "edge_faults"
    rate_metric = "sim_users_per_s"
    work_unit = "simulated requests"
    policies = ("adapex", "pr-only", "ct-only", "finn")
    runs = 2
    faults = FaultSpec.parse("light")
    config = ServerConfig(record_trace=False)

    def setup(self, seed: int) -> EdgeInputs:
        spec = WorkloadSpec(num_cameras=20, ips_per_camera=30.0,
                            duration_s=25.0, deviation=0.30,
                            deviation_interval_s=5.0)
        base = 1000 * seed
        return EdgeInputs(
            library=synthesize_library(seed), workload=spec,
            base_seed=base, fault_seed=seed + 1,
            expected_arrivals=[
                len(CameraFleet(spec, seed=base + r).arrival_times())
                for r in range(self.runs)])

    def parts(self, inputs: EdgeInputs) -> list:
        def serve(name):
            return simulate_policy(
                make_policy(name, inputs.library), runs=self.runs,
                workload=inputs.workload, config=self.config,
                base_seed=inputs.base_seed, faults=self.faults,
                fault_seed=inputs.fault_seed)
        return [lambda name=name: serve(name) for name in self.policies]

    def check(self, inputs: EdgeInputs, results: list, out_dir) -> Outcome:
        result = dict(zip(self.policies, results))
        conserved = True
        ledger = []
        work = 0
        for name, (agg, runs) in result.items():
            for r, run in enumerate(runs):
                work += run.total_requests
                # The simulator counts no terminal state for the one
                # frame in service at the horizon (batching is off).
                in_service = run.total_requests - (
                    run.processed + run.lost + run.dropped + run.failed
                    + run.shed)
                conserved &= (0 <= in_service <= 1 and run.total_requests
                              == inputs.expected_arrivals[r])
                ledger.append((name, r, run.total_requests, run.processed,
                               run.lost, run.dropped, run.failed, run.shed,
                               run.accuracy, run.avg_latency_s,
                               run.energy_j, run.reconfigurations,
                               run.reconfig_failures,
                               run.fault_dead_time_s))
        ada, finn = result["adapex"][0], result["finn"][0]
        return Outcome(
            work=work, ops=len(ledger), op_failures=0,
            checks={"request_conservation": conserved},
            sim={"accuracy": ada.accuracy,
                 "inference_loss": ada.inference_loss,
                 "qoe": ada.qoe,
                 "qoe_vs_finn": ada.qoe / finn.qoe,
                 "edp_vs_finn": ada.edp / finn.edp},
            fingerprint=_digest(repr(ledger)),
            detail={name: agg.as_row() for name, (agg, _) in result.items()})


@dataclass
class FleetInputs:
    library: Library
    tenants: list
    config: FleetConfig
    elastic: ElasticConfig
    faults: FleetFaultSpec
    seeds: list      # one campaign per seed
    generated: list  # per campaign, arrivals regenerated independently


class FleetRamp(Workload):
    """Elastic campaigns: 4x load ramp, 2 -> 8 servers, one rack lost.

    How much host time a campaign costs depends on when and where its
    rack dies; each iteration runs three campaigns so that one draw of
    the rack loss does not set a run's throughput.
    """

    name = "fleet_ramp"
    rate_metric = "sim_users_per_s"
    work_unit = "simulated requests"
    duration_s = 240.0
    campaigns = 3

    def setup(self, seed: int) -> FleetInputs:
        tenants = make_tenants(64, cameras=4, ips_per_camera=30.0,
                               slo_tiers=(0.0, 0.70),
                               ramp_s=self.duration_s / 2)
        seeds = [self.campaigns * seed + k for k in range(self.campaigns)]
        return FleetInputs(
            library=synthesize_library(seed), tenants=tenants,
            config=FleetConfig(num_servers=2, rack_size=2,
                               duration_s=self.duration_s,
                               slo_tiers=(0.05, 0.10)),
            elastic=ElasticConfig(min_servers=2, max_servers=8,
                                  cooldown_s=5.0),
            faults=FleetFaultSpec.parse("thundering-herd"), seeds=seeds,
            generated=[sum(len(t.arrival_times(self.duration_s,
                                               seed=(s, i)))
                           for i, t in enumerate(tenants))
                       for s in seeds])

    def parts(self, inputs: FleetInputs) -> list:
        # Looked up on the module so the traced run's wrapper applies.
        return [lambda s=s: cluster.simulate_fleet(
            inputs.library, inputs.tenants, inputs.config, seed=s,
            faults=inputs.faults, fault_seed=s + 1, elastic=inputs.elastic,
            workers=1) for s in inputs.seeds]

    def check(self, inputs: FleetInputs, results: list, out_dir) -> Outcome:
        fleets = [r.fleet for r in results]
        processed = sum(f.processed for f in fleets)
        offered = sum(f.offered for f in fleets)
        accuracy = sum(f.accuracy * f.processed for f in fleets) / processed
        return Outcome(
            work=sum(f.total_requests for f in fleets), ops=len(fleets),
            op_failures=0,
            checks={
                "request_conservation": all(
                    f.total_requests + f.failover_dropped == generated
                    for f, generated in zip(fleets, inputs.generated)),
                "planned_migrations_lossless": all(
                    m.dropped == 0 for r in results for m in r.migrations
                    if m.planned),
            },
            sim={"accuracy": accuracy,
                 "inference_loss": sum(f.unserved for f in fleets) / offered,
                 "qoe": accuracy * processed / offered,
                 "slo_violation_share": sum(f.slo_violations for f in fleets)
                 / sum(f.tenants for f in fleets),
                 "server_seconds": sum(f.server_seconds for f in fleets),
                 "autoscale_ups": sum(f.autoscale_ups for f in fleets),
                 "migrations": sum(f.migrations for f in fleets),
                 "dead_servers": sum(f.dead_servers for f in fleets)},
            fingerprint=_digest(repr([(r.fleet, r.servers, r.migrations,
                                       r.scale_events) for r in results])),
            detail={"fleets": [f.as_row() for f in fleets]})


WORKLOADS = {w.name: w for w in (DesignSweep(), EdgeFaults(), FleetRamp())}
