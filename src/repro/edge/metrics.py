"""Evaluation metrics for edge-serving runs.

Matches the paper's reporting: inference loss (% of requests never
served), delivered accuracy, average board power, average service
latency, Quality of Experience (accuracy x fraction of processed
frames), and Energy-Delay Product (energy per processed inference x
average latency), usually normalized to the FINN baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunMetrics", "AggregateMetrics", "aggregate_runs", "qoe", "edp"]


def qoe(accuracy: float, processed_fraction: float) -> float:
    """Quality of Experience: accuracy times fraction of processed frames."""
    if not 0.0 <= processed_fraction <= 1.0:
        raise ValueError("processed_fraction must be in [0, 1]")
    return accuracy * processed_fraction


def edp(energy_per_inference_j: float, latency_s: float) -> float:
    """Energy-delay product of one inference."""
    return energy_per_inference_j * latency_s


@dataclass
class RunMetrics:
    """Outcome of one simulated serving run.

    Request accounting distinguishes four terminal states: ``processed``
    (served successfully), ``lost`` (queue overflow or still queued at
    the end of the run), ``dropped`` (fault-injected ingress/network
    loss — the request never reached the server), and ``failed``
    (transient inference errors that exhausted the retry budget).
    ``retries`` counts inference retry attempts; reconfiguration faults
    surface as ``reconfig_failures``/``reconfig_retries`` with their
    wasted time in ``fault_dead_time_s`` (``reconfig_dead_time_s`` only
    covers successful swaps). ``batches`` counts completed micro-batched
    plan invocations (0 when batching is off — each frame is then its
    own invocation and the count carries no extra information).

    The brownout degradation ladder (``ServerConfig.brownout_levels``)
    adds a fifth terminal state: ``shed`` — requests turned away by
    admission control at the ladder's bottom rung (a deliberate
    decision, unlike ``lost`` queue overflow). ``brownout_steps`` counts
    rung transitions and ``brownout_time_s`` the total time spent below
    rung 0 (serving under a lowered accuracy floor).

    ``in_flight`` counts the frames in service at the horizon (the last
    started frame, or micro-batch, whose completion falls after the end
    of the run): they reach no terminal state, so ``processed + lost +
    dropped + failed + shed + in_flight == total_requests``.
    """

    policy: str
    duration_s: float
    total_requests: int
    processed: int
    lost: int
    accuracy: float
    avg_latency_s: float
    energy_j: float
    reconfigurations: int
    reconfig_dead_time_s: float
    dropped: int = 0
    failed: int = 0
    retries: int = 0
    reconfig_failures: int = 0
    reconfig_retries: int = 0
    fault_dead_time_s: float = 0.0
    batches: int = 0
    shed: int = 0
    brownout_steps: int = 0
    brownout_time_s: float = 0.0
    in_flight: int = 0
    trace: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if min(self.processed, self.lost, self.dropped, self.failed,
               self.retries, self.shed, self.brownout_steps,
               self.in_flight) < 0:
            raise ValueError("request counters must be >= 0")
        if self.processed + self.lost + self.dropped + self.failed \
                + self.shed + self.in_flight != self.total_requests:
            raise ValueError(
                "processed + lost + dropped + failed + shed + in_flight "
                "must equal total requests")

    @property
    def unserved(self) -> int:
        """Requests that never completed successfully."""
        return self.lost + self.dropped + self.failed + self.shed

    @property
    def inference_loss(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.unserved / self.total_requests

    @property
    def processed_fraction(self) -> float:
        if self.total_requests == 0:
            return 1.0
        return self.processed / self.total_requests

    @property
    def avg_power_w(self) -> float:
        return self.energy_j / self.duration_s if self.duration_s else 0.0

    @property
    def qoe(self) -> float:
        return qoe(self.accuracy, self.processed_fraction)

    @property
    def energy_per_inference_j(self) -> float:
        return self.energy_j / self.processed if self.processed else 0.0

    @property
    def edp(self) -> float:
        return edp(self.energy_per_inference_j, self.avg_latency_s)


@dataclass(frozen=True)
class AggregateMetrics:
    """Means over repeated runs (the paper reports 100-run averages)."""

    policy: str
    runs: int
    inference_loss: float
    accuracy: float
    avg_power_w: float
    avg_latency_s: float
    qoe: float
    edp: float
    reconfigurations: float
    processed_per_run: float
    dropped_per_run: float = 0.0
    failed_per_run: float = 0.0
    retries_per_run: float = 0.0
    reconfig_failures: float = 0.0
    fault_dead_time_s: float = 0.0

    def as_row(self) -> dict:
        """Table-I-style row."""
        return {
            "policy": self.policy,
            "infer_loss_pct": 100.0 * self.inference_loss,
            "accuracy_pct": 100.0 * self.accuracy,
            "power_w": self.avg_power_w,
            "latency_ms": 1000.0 * self.avg_latency_s,
            "qoe": self.qoe,
            "edp": self.edp,
        }

    def fault_row(self) -> dict:
        """Extra columns for fault-campaign tables."""
        return {
            "dropped": self.dropped_per_run,
            "failed": self.failed_per_run,
            "retries": self.retries_per_run,
            "reconf_fail": self.reconfig_failures,
            "fault_dead_ms": 1000.0 * self.fault_dead_time_s,
        }


def aggregate_runs(runs: list) -> AggregateMetrics:
    """Average a list of :class:`RunMetrics` from repeated executions."""
    if not runs:
        raise ValueError("no runs to aggregate")
    names = {r.policy for r in runs}
    if len(names) != 1:
        raise ValueError(f"mixed policies in aggregation: {names}")
    return AggregateMetrics(
        policy=runs[0].policy,
        runs=len(runs),
        inference_loss=float(np.mean([r.inference_loss for r in runs])),
        accuracy=float(np.mean([r.accuracy for r in runs])),
        avg_power_w=float(np.mean([r.avg_power_w for r in runs])),
        avg_latency_s=float(np.mean([r.avg_latency_s for r in runs])),
        qoe=float(np.mean([r.qoe for r in runs])),
        edp=float(np.mean([r.edp for r in runs])),
        reconfigurations=float(np.mean([r.reconfigurations for r in runs])),
        processed_per_run=float(np.mean([r.processed for r in runs])),
        dropped_per_run=float(np.mean([r.dropped for r in runs])),
        failed_per_run=float(np.mean([r.failed for r in runs])),
        retries_per_run=float(np.mean([r.retries for r in runs])),
        reconfig_failures=float(np.mean([r.reconfig_failures
                                         for r in runs])),
        fault_dead_time_s=float(np.mean([r.fault_dead_time_s
                                         for r in runs])),
    )
