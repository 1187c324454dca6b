"""Seeded synthesis of a paper-sized serving Library.

A real paper-sized sweep (18 pruning rates x 21 thresholds x 3 variants)
takes 10-15 minutes of training, and the quick-profile library has 21
entries, too few to load runtime selection. The serving workloads
therefore run on a Library synthesized from the workload seed, shaped
after the trends EXPERIMENTS.md measures on the real flow:

* accuracy falls with the pruning rate, slowly up to ~40 % and steeply
  beyond it;
* serving throughput rises with the pruning rate;
* lowering the confidence threshold sends more frames out of the early
  exits, raising throughput and lowering accuracy; pruned exits lose
  more accuracy at low thresholds than not-pruned ones.

The result has 2 x 18 x 21 early-exit entries plus 18 backbone entries,
774 in all, and is a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import paper_threshold_sweep
from repro.pruning.schedule import paper_rate_sweep
from repro.runtime.library import AcceleratorId, Library, LibraryEntry

#: Latency of each exit as a share of the full backbone path.
EXIT_LATENCY_SHARE = (0.2, 0.55, 1.05)


def backbone_accuracy(a0: float, rate: float) -> float:
    """Accuracy of the pruned backbone at one pruning rate."""
    return a0 * (1.0 - 0.25 * rate - 1.2 * max(0.0, rate - 0.4) ** 2)


def exit_rates(ct: float) -> tuple:
    """Share of frames leaving at each exit under threshold ``ct``."""
    first = 1.0 - ct ** 1.5
    second = (1.0 - first) * (1.0 - ct ** 3)
    return (first, second, max(0.0, 1.0 - first - second))


def synthesize_library(seed: int) -> Library:
    """The 774-entry serving Library for one workload seed."""
    rng = np.random.default_rng([seed, 7401])
    a0 = 0.80 + 0.04 * rng.random()
    ips0 = 400.0 + 20.0 * rng.random()
    lib = Library(metadata={"dataset": "perfbench-synthetic",
                            "seed": int(seed)})
    for rate in paper_rate_sweep():
        acc = backbone_accuracy(a0, rate)
        full_s = 1.0 / (ips0 / (1.0 - 0.75 * rate))
        busy_w = 1.05 + 0.3 * (1.0 - rate)
        resources = {"lut": int(30000 * (1.0 - 0.1 * rate)),
                     "ff": int(42000 * (1.0 - 0.3 * rate)),
                     "bram18": int(373 * (1.0 - 0.75 * rate))}
        jitter = rng.normal(0.0, 0.004, size=2 * 21 + 1)
        k = 0
        for pruned in (True, False):
            drop = 0.34 * (1.0 - (0.5 if pruned else 0.9) * rate)
            lats = tuple(s * full_s for s in EXIT_LATENCY_SHARE)
            for ct in paper_threshold_sweep():
                rates = exit_rates(ct)
                latency = float(np.dot(rates, lats))
                lib.add(LibraryEntry(
                    accelerator=AcceleratorId(pruning_rate=rate,
                                              pruned_exits=pruned),
                    confidence_threshold=ct,
                    accuracy=float(acc - drop * (1.0 - ct) ** 2
                                   + 0.01 * ct + jitter[k]),
                    exit_rates=rates,
                    latency_s=latency,
                    serving_ips=1.0 / latency,
                    energy_per_inference_j=busy_w * latency,
                    power_idle_w=0.8,
                    power_busy_w=busy_w,
                    achieved_pruning_rate=rate,
                    exit_latencies_s=lats,
                    resources=dict(resources,
                                   bram18=resources["bram18"]
                                   + (0 if pruned else int(50 * rate))),
                ))
                k += 1
        lib.add(LibraryEntry(
            accelerator=AcceleratorId(pruning_rate=rate, variant="backbone"),
            confidence_threshold=1.0,
            accuracy=float(acc + jitter[k]),
            exit_rates=(1.0,),
            latency_s=full_s,
            serving_ips=1.0 / full_s,
            energy_per_inference_j=(busy_w - 0.05) * full_s,
            power_idle_w=0.8,
            power_busy_w=busy_w - 0.05,
            achieved_pruning_rate=rate,
            exit_latencies_s=(full_s,),
            resources=resources,
        ))
    return lib
