#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload design_sweep --seed 1 \\
        --seconds 30 --trace 0

The workload's inputs are made from ``--seed``. Iterations of the
workload's batch call repeat until ``--seconds`` have passed (at least
two, so every simulated output can be checked to repeat exactly), and
each part of the batch is timed on its own. A timer samples how fast
the host runs a fixed kernel meanwhile (see ``hostspeed.py``), and
every timing is reported in seconds at nominal host speed: ``work_per_s``
is one batch's work over the sum of each part's median scaled time. With
``--trace 0`` every iteration runs untraced and the last line of
standard output is a JSON object carrying the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` iterations alternate between
untraced and traced, and the JSON carries the ``per_layer`` metrics
derived from the traced iterations' spans plus the tracing overhead.

A human-readable report precedes the JSON line, and a full report (the
spans included, when traced) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads for the whole run. OpenBLAS defaults to one thread per
#: core; on a 2-core host serial sweeps repeated within 2 % pinned to 1
#: against 10 % at the default.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ITERATIONS = 2
#: No iteration starts once this much time has passed, so a run ends
#: well inside its 180 s budget even when the program gets much slower.
HARD_LIMIT_S = 120.0
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import workloads, layers; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_import_s(env, speed) -> float:
    """Median import time of the benchmark's modules in fresh
    interpreters (the in-process import is only paid once), in seconds
    at nominal host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1])
                     / speed.slowdown(t0, time.perf_counter()))
    return median(times)


def host_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS)}


def run_iterations(wl, inputs, seconds: float, trace: bool, out_dir):
    """Repeat the workload's batch call; returns the iteration records.

    Each part of the batch is timed on its own, as a ``(start, end)``
    interval. With ``trace`` every second iteration runs with the layer
    wrappers installed; the rest run the program untouched.
    """
    from layers import instrument
    from tracing import Tracer

    parts = wl.parts(inputs)
    records = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_ITERATIONS and elapsed >= seconds:
            break
        if records and elapsed + records[-1]["seconds"] > HARD_LIMIT_S:
            break
        tracer = Tracer() if trace and len(records) % 2 == 1 else None
        record = {"traced": tracer is not None, "seconds": 0.0,
                  "intervals": [], "outcome": None, "error": None,
                  "spans": []}
        try:
            if tracer is not None:
                instrument(tracer)
            try:
                results = []
                for part in parts:
                    t0 = time.perf_counter()
                    results.append(part())
                    record["intervals"].append((t0, time.perf_counter()))
            finally:
                record["seconds"] = sum(e - s
                                        for s, e in record["intervals"])
                if tracer is not None:
                    tracer.restore()
            record["outcome"] = wl.check(inputs, results, out_dir)
        except Exception:  # a failed operation is counted, not fatal
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        if tracer is not None:
            record["spans"] = tracer.spans
        records.append(record)
    return records


def batch_seconds(records, scale=None) -> float:
    """One batch's time: the sum over its parts of each part's median.

    ``scale(start, end)``, when given, divides each part's wall time,
    turning it into seconds at nominal host speed.
    """
    if not records:
        return 0.0
    per_part = zip(*([(e - s) / (scale(s, e) if scale else 1.0)
                      for s, e in r["intervals"]] for r in records))
    return sum(median(times) for times in per_part)


def tally(records) -> tuple:
    """``(attempted, failed, failed_checks)`` over every iteration.

    Each iteration's operations and output checks count, plus one check
    per iteration after the first that its simulated output repeats the
    first's exactly; an iteration that raised counts as one failure.
    """
    attempted = failed = 0
    failed_checks = []
    first = None
    for i, rec in enumerate(records):
        out = rec["outcome"]
        if out is None:
            attempted += 1
            failed += 1
            failed_checks.append(f"iteration {i}: raised")
            continue
        attempted += out.ops + len(out.checks)
        failed += out.op_failures
        for name, ok in out.checks.items():
            if not ok:
                failed += 1
                failed_checks.append(f"iteration {i}: {name}")
        if first is None:
            first = out
            continue
        attempted += 1
        if (out.sim, out.fingerprint) != (first.sim, first.fingerprint):
            failed += 1
            failed_checks.append(f"iteration {i}: repeat_exact"
                                 + (" (traced)" if rec["traced"] else ""))
    return attempted, failed, failed_checks


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources under {SRC} or no "
              f"BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())

    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    from hostspeed import HostSpeed
    from layers import layer_metrics
    from tracing import per_call_stats
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    with HostSpeed() as speed:
        import_s = probe_import_s(env, speed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed)
            setup_times.append((time.perf_counter() - t0)
                               / speed.slowdown(t0, time.perf_counter()))
        setup_s = import_s + median(setup_times)
        records = run_iterations(wl, inputs, args.seconds,
                                 bool(args.trace), out_dir)
    attempted, failed, failed_checks = tally(records)
    plain = [r for r in records if not r["traced"] and r["outcome"]]
    traced = [r for r in records if r["traced"] and r["outcome"]]
    work = plain[0]["outcome"].work if plain else 0
    plain_s = batch_seconds(plain, speed.slowdown)
    work_per_s = work / plain_s if plain_s else 0.0
    wall_s = batch_seconds(plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {"setup_s": setup_s, "work_per_s": work_per_s,
           "peak_rss_mb": peak_rss_mb,
           "ok_share": 1.0 - failed / attempted}

    first = next((r["outcome"] for r in records if r["outcome"]), None)
    reported = {wl.rate_metric: work_per_s,
                "wall_work_per_s": work / wall_s if wall_s else 0.0,
                "failed_share": failed / attempted,
                **(first.sim if first else {})}

    layers = {}
    if args.trace:
        per_iter = [layer_metrics(r["spans"]) for r in traced] \
            or [layer_metrics([])]
        for name in per_iter[0]:
            layers[name] = median(m[name] for m in per_iter)
        traced_s = batch_seconds(traced, speed.slowdown)
        layers["trace.overhead_share"] = (
            traced_s / plain_s - 1.0 if traced_s and plain_s else 0.0)
        reported["traced_work_per_s"] = (
            traced[0]["outcome"].work / traced_s if traced else 0.0)

    info = dict(host_info(np), **speed.summary())
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"iterations: {len(records)} ({len(plain)} untraced, "
          f"{len(traced)} traced), work unit: {wl.work_unit}")
    print(f"checks: {attempted - failed}/{attempted} passed"
          + (f"; failed: {', '.join(failed_checks)}" if failed_checks
             else ""))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    units.update({k: v["unit"] for k, v in catalog["reported"].items()})
    print("end-to-end (gated):")
    for name, value in e2e.items():
        kind = catalog["end_to_end"][name]["kind"]
        print(f"  {name:<24} {fmt(value):>14} {units[name]:<6} {kind}")
    print("end-to-end (reported):")
    for name, value in reported.items():
        kind = catalog["reported"][name]["kind"]
        print(f"  {name:<24} {fmt(value):>14} {units[name]:<6} {kind}")
    calls = {}
    if args.trace:
        print("per-layer (traced iterations, median):")
        for name, value in layers.items():
            print(f"  {name:<28} {fmt(value):>14} {units[name]}")
        calls = per_call_stats([s for r in traced for s in r["spans"]])
        print("per-call span durations:")
        for name, stats in calls.items():
            tail = {k: v for k, v in stats.items() if k not in ("n",
                                                               "p50_s")}
            print(f"  {name:<22} n={stats['n']:<7} "
                  f"p50={fmt(stats['p50_s'])} s "
                  + " ".join(f"{k}={fmt(v)}" for k, v in tail.items()))

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": info, "setup_import_s": import_s,
        "setup_inputs_s": setup_times, "end_to_end": e2e,
        "reported": reported, "per_layer": layers, "per_call": calls,
        "attempted": attempted, "failed": failed,
        "failed_checks": failed_checks,
        "iterations": [{"traced": r["traced"], "seconds": r["seconds"],
                        "part_seconds": [e - s for s, e in r["intervals"]],
                        "part_slowdown": [speed.slowdown(s, e)
                                          for s, e in r["intervals"]],
                        "error": r["error"],
                        **({"work": r["outcome"].work,
                            "sim": r["outcome"].sim,
                            "fingerprint": r["outcome"].fingerprint,
                            "detail": r["outcome"].detail}
                           if r["outcome"] else {})}
                       for r in records],
        "spans": [[i, s.name, s.start, s.end, s.parent, s.attrs]
                  for i, r in enumerate(records) for s in r["spans"]],
    }
    path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, default=str))
    print(f"report: {path.relative_to(ROOT)}")

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]}
                    for m in metric_spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
