"""Tests of the benchmark's own code: inputs, span arithmetic, wrappers."""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

from hostspeed import NOMINAL_S, HostSpeed
from layers import instrument, layer_metrics
from repro.edge.cameras import CameraFleet, WorkloadSpec
from repro.nn.trainer import Trainer
from repro.runtime.manager import RuntimeManager
from run import batch_seconds
from synth import synthesize_library
from tracing import (Span, Tracer, covered, layer_seconds, outermost,
                     self_times, tail_stats)
from workloads import WORKLOADS, front_hypervolume

BENCH = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# inputs are a pure function of the seed
# ----------------------------------------------------------------------
def test_library_synthesis_is_deterministic_in_the_seed():
    a, b = synthesize_library(3), synthesize_library(3)
    assert len(a) == 774
    assert a.to_json() == b.to_json()
    assert a.to_json() != synthesize_library(4).to_json()


def test_library_follows_the_measured_trends():
    lib = synthesize_library(0)
    backbone = sorted((e for e in lib if e.accelerator.variant == "backbone"),
                      key=lambda e: e.accelerator.pruning_rate)
    accs = [e.accuracy for e in backbone]
    ips = [e.serving_ips for e in backbone]
    assert accs[0] > accs[8] > accs[-1]
    assert ips == sorted(ips)
    ee = sorted((e for e in lib if e.accelerator.variant == "ee"
                 and e.accelerator.pruning_rate == 0.0
                 and e.accelerator.pruned_exits),
                key=lambda e: e.confidence_threshold)
    assert [e.serving_ips for e in ee] == sorted(
        (e.serving_ips for e in ee), reverse=True)
    assert ee[0].accuracy < ee[-1].accuracy
    assert ee[0].exit_rates[0] > ee[-1].exit_rates[0]


def test_design_inputs_are_deterministic_in_the_seed():
    wl = WORKLOADS["design_sweep"]
    assert wl.setup(5).cache_key() == wl.setup(5).cache_key()
    assert wl.setup(5).cache_key() != wl.setup(6).cache_key()


def test_edge_inputs_are_deterministic_in_the_seed():
    wl = WORKLOADS["edge_faults"]
    a, b, c = wl.setup(2), wl.setup(2), wl.setup(3)
    assert a.library.to_json() == b.library.to_json()
    assert (a.base_seed, a.fault_seed, a.expected_arrivals) == \
        (b.base_seed, b.fault_seed, b.expected_arrivals)
    assert a.expected_arrivals != c.expected_arrivals


def test_fleet_inputs_are_deterministic_in_the_seed():
    wl = WORKLOADS["fleet_ramp"]
    a, b, c = wl.setup(2), wl.setup(2), wl.setup(3)
    assert a.tenants == b.tenants
    assert a.seeds == b.seeds and not set(a.seeds) & set(c.seeds)
    assert a.generated == b.generated != c.generated
    assert a.library.to_json() == b.library.to_json()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_covered_is_the_length_of_the_union():
    assert covered([]) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),    # overlaps a: union [1, 5]
        Span("c", 9.0, 12.0, 0),   # clipped to the parent: [9, 10]
        Span("d", 2.5, 3.0, 2),    # grandchild: only b's self time drops
    ]
    assert self_times(spans) == [5.0, 2.0, 2.5, 3.0, 0.5]


def test_layer_time_counts_nested_spans_of_a_layer_once():
    spans = [
        Span("sel", 0.0, 4.0, None),
        Span("sel", 1.0, 2.0, 0),
        Span("other", 5.0, 6.0, None),
        Span("sel", 5.2, 5.5, 2),
    ]
    assert [s.start for s in outermost(spans, ["sel"])] == [0.0, 5.2]
    assert layer_seconds(spans, "sel") == pytest.approx(4.3)


def test_tail_stats_keeps_ten_samples_beyond_the_percentile():
    assert set(tail_stats([1.0] * 19)) == {"n", "p50_s"}
    stats = tail_stats(list(range(200)))
    assert stats["n"] == 200 and "p90_s" in stats and "p99_s" not in stats
    assert "p99_s" in tail_stats(list(range(1000)))
    assert "p99.9_s" in tail_stats(list(range(10000)))


def test_tracer_records_parents_and_restores_originals():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Thing.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Thing, "outer", "outer")
    tracer.patch(Thing, "inner", "inner",
                 lambda args, kwargs, result: {"result": result})
    assert Thing().outer() == 2
    tracer.restore()
    assert Thing.__dict__["outer"] is original
    assert [(s.name, s.parent) for s in tracer.spans] == \
        [("outer", None), ("inner", 0)]
    assert tracer.spans[1].attrs == {"result": 1}


def test_front_hypervolume():
    assert front_hypervolume([(0.5, 100.0), (0.8, 50.0), (0.4, 60.0)]) \
        == pytest.approx(0.5 * 100.0 + 0.3 * 50.0)


# ----------------------------------------------------------------------
# timings at nominal host speed
# ----------------------------------------------------------------------
def test_slowdown_averages_the_samples_inside_an_interval():
    speed = HostSpeed()
    assert speed.slowdown(0.0, 1.0) == 1.0  # nothing sampled yet
    speed.samples = [(0.0, NOMINAL_S), (1.0, 3 * NOMINAL_S),
                     (2.0, 2 * NOMINAL_S)]
    assert speed.slowdown(0.5, 2.5) == pytest.approx(2.5)
    # An interval between samples takes the nearest one.
    assert speed.slowdown(1.05, 1.1) == pytest.approx(3.0)
    assert speed.slowdown(5.0, 6.0) == pytest.approx(2.0)


def test_host_speed_samples_only_inside_its_with_block():
    with HostSpeed(period_s=0.01) as speed:
        time.sleep(0.2)
    taken = len(speed.samples)
    time.sleep(0.05)
    assert taken > 0 and len(speed.samples) == taken


def test_batch_seconds_sums_each_parts_median():
    records = [{"intervals": [(0.0, 1.0), (1.0, 4.0)]},
               {"intervals": [(0.0, 3.0), (3.0, 5.0)]},
               {"intervals": [(0.0, 2.0), (2.0, 3.0)]}]
    assert batch_seconds(records) == 4.0
    assert batch_seconds(records, lambda start, end: 2.0) == 2.0
    assert batch_seconds([]) == 0.0


# ----------------------------------------------------------------------
# wrappers change no output
# ----------------------------------------------------------------------
def _plain_then_traced(wl, inputs, tmp_path):
    plain = wl.check(inputs, wl.run(inputs), tmp_path)
    tracer = Tracer()
    instrument(tracer)
    try:
        result = wl.run(inputs)
    finally:
        tracer.restore()
    traced = wl.check(inputs, result, tmp_path)
    assert not hasattr(vars(Trainer)["fit"], "__wrapped__")
    assert not hasattr(vars(RuntimeManager)["select"], "__wrapped__")
    assert all(plain.checks.values()) and all(traced.checks.values())
    assert (traced.sim, traced.fingerprint) == (plain.sim, plain.fingerprint)
    return layer_metrics(tracer.spans)


def test_tracing_changes_no_design_output(tmp_path):
    wl = WORKLOADS["design_sweep"]
    cfg = dataclasses.replace(wl.setup(1), train_samples=64,
                              test_samples=32, pruning_rates=[0.0, 0.5])
    layers = _plain_then_traced(wl, cfg, tmp_path)
    assert layers["core.points"] == 6
    assert layers["nn.fit_calls"] > 0 and layers["finn.compile_calls"] == 6
    assert layers["runtime.select_calls"] == 0


def test_tracing_changes_no_edge_output(tmp_path):
    wl = WORKLOADS["edge_faults"]
    inputs = wl.setup(1)
    spec = WorkloadSpec(duration_s=5.0)
    inputs = dataclasses.replace(inputs, workload=spec, expected_arrivals=[
        len(CameraFleet(spec, seed=inputs.base_seed + r).arrival_times())
        for r in range(wl.runs)])
    layers = _plain_then_traced(wl, inputs, tmp_path)
    assert layers["edge.fallback_share"] == 1.0
    assert layers["edge.event_runs"] == len(wl.policies) * wl.runs


def test_tracing_changes_no_fleet_output(tmp_path):
    wl = WORKLOADS["fleet_ramp"]
    inputs = dataclasses.replace(wl.setup(1))
    inputs.seeds, inputs.generated = inputs.seeds[:1], inputs.generated[:1]
    layers = _plain_then_traced(wl, inputs, tmp_path)
    assert layers["edge.fallback_share"] == 0.0
    assert layers["edge.vector_runs"] > 0
    assert layers["fleet.migration_dropped"] == 0


# ----------------------------------------------------------------------
# the metric names agree across BENCHMARK.json, the catalog and the code
# ----------------------------------------------------------------------
def test_metric_names_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    catalog = json.loads((BENCH / "catalog.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(catalog["per_layer"])
    assert sorted(layer_metrics([])) + ["trace.overhead_share"] == \
        sorted(per_layer)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(catalog["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(catalog["workloads"])
    assert sorted(WORKLOADS) == sorted(catalog["workloads"])
