"""Which public calls the traced run wraps, and the per-layer metrics.

:func:`instrument` installs one wrapper per timed call on a
:class:`~tracing.Tracer`; :func:`layer_metrics` turns the recorded
spans into the ``per_layer`` metrics named in ``BENCHMARK.json``. Every
metric is defined on every workload; a layer that does no work on a
workload reports 0.
"""

from __future__ import annotations

from repro.core import design_time
from repro.edge import fastsim
from repro.edge.cameras import CameraFleet
from repro.edge.events import EventLoop
from repro.fleet import cluster
from repro.fleet.router import WorkloadRouter
from repro.ir import engine
from repro.ir.engine import ExecutionPlan
from repro.nn.trainer import Trainer
from repro.runtime.manager import RuntimeManager
from repro.runtime.monitor import WorkloadMonitor
from repro.runtime.policytable import PolicyTable
from repro.runtime.reconfig import ReconfigurationController

from tracing import layer_seconds, outermost, self_times

SELECT = "runtime.select"


def _fit_attrs(args, kwargs, result):
    trainer, images = args[0], args[1]
    return {"samples": images.shape[0] * trainer.config.epochs}


def _plan_attrs(args, kwargs, result):
    return {"images": len(args[1])}


def _generate_attrs(args, kwargs, library):
    quarantined = len(library.metadata.get("quarantined") or [])
    return {"points": len(library.accelerators()) + quarantined,
            "quarantined": quarantined}


def _switch_attrs(args, kwargs, result):
    # A no-op attempt (target already loaded) returns (True, 0.0); every
    # real attempt in these workloads charges a positive swap time.
    ok, dead = result
    return {"attempted": dead > 0 or not ok, "failed": not ok,
            "dead_s": dead}


def _run_fast_attrs(args, kwargs, metrics):
    if metrics is None:
        return {"fallback": True}
    return {"fallback": False, "frames": metrics.total_requests}


def _run_until_attrs(args, kwargs, executed):
    return {"events": executed}


def _plan_elastic_attrs(args, kwargs, plan):
    planned = [m for m in plan.migrations if m.planned]
    return {"migrations": len(planned),
            "migration_dropped": sum(m.dropped for m in planned),
            "autoscale_ups": plan.autoscale_ups,
            "autoscale_downs": plan.autoscale_downs}


def instrument(tracer) -> None:
    """Wrap every timed call, each where its caller looks it up."""
    patch = tracer.patch
    patch(design_time, "make_dataset", "data.make_dataset")
    patch(Trainer, "fit", "nn.fit", _fit_attrs)
    patch(design_time, "prune_model", "pruning.prune")
    patch(design_time, "export_model", "ir.export")
    patch(design_time, "streamline", "ir.streamline")
    patch(engine, "compile_graph", "ir.plan_compile")
    # exit_scores drives plans through the ``forward`` alias of ``run``.
    patch(ExecutionPlan, "run", "ir.plan_run", _plan_attrs)
    patch(ExecutionPlan, "forward", "ir.plan_run", _plan_attrs)
    patch(design_time, "compile_accelerator", "finn.compile")
    patch(design_time.LibraryGenerator, "generate", "core.generate",
          _generate_attrs)

    for name in ("select", "select_at", "select_without_reconfig"):
        patch(RuntimeManager, name, SELECT)
    # A compiled policy table installs a per-instance closure that
    # shadows ``select``; wrap the closure it hands back.
    install = PolicyTable.__dict__["install_fast_select"]
    tracer.replace(PolicyTable, "install_fast_select",
                   lambda table, manager: tracer.wrap(
                       SELECT, install(table, manager)))
    patch(RuntimeManager, "compile_policy_table", "runtime.table_compile")
    patch(WorkloadMonitor, "observe_many", "runtime.monitor")
    patch(WorkloadMonitor, "record_arrival", "runtime.monitor")
    patch(ReconfigurationController, "attempt_switch", "runtime.reconfig",
          _switch_attrs)

    patch(CameraFleet, "arrival_times", "edge.arrivals")
    patch(fastsim, "run_fast", "edge.run_fast", _run_fast_attrs)
    patch(EventLoop, "run_until", "edge.event_loop", _run_until_attrs)

    for name in ("assign", "reroute", "rebalance_additions"):
        patch(WorkloadRouter, name, "fleet.route")
    patch(cluster, "plan_elastic", "fleet.plan_elastic", _plan_elastic_attrs)
    patch(cluster, "merge_fleet", "fleet.merge")
    patch(cluster, "simulate_fleet", "fleet.simulate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Every ``per_layer`` metric except tracing overhead, from spans."""
    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    selfs = self_times(spans)

    def self_s(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    fit_s = layer_seconds(spans, "nn.fit")
    run_s = layer_seconds(spans, "ir.plan_run")
    run_images = sum(s.attrs["images"]
                     for s in outermost(spans, ["ir.plan_run"]))
    fast = named("edge.run_fast")
    vector = [s for s in fast if not s.attrs["fallback"]]
    vector_s = sum(s.duration for s in vector)
    event_s = layer_seconds(spans, "edge.event_loop")
    events = attr_sum("edge.event_loop", "events")
    generated = named("core.generate")
    return {
        "data.make_dataset_s": layer_seconds(spans, "data.make_dataset"),
        "nn.fit_s": fit_s,
        "nn.fit_calls": len(named("nn.fit")),
        "nn.train_samples_per_s": _ratio(attr_sum("nn.fit", "samples"),
                                         fit_s),
        "pruning.prune_s": layer_seconds(spans, "pruning.prune"),
        "pruning.prune_calls": len(named("pruning.prune")),
        "ir.streamline_s": layer_seconds(spans, "ir.export",
                                         "ir.streamline"),
        "ir.plan_compile_s": layer_seconds(spans, "ir.plan_compile"),
        "ir.plan_run_s": run_s,
        "ir.images_per_s": _ratio(run_images, run_s),
        "finn.compile_s": layer_seconds(spans, "finn.compile"),
        "finn.compile_calls": len(named("finn.compile")),
        "core.generate_self_s": self_s("core.generate"),
        "core.points": sum(s.attrs["points"] for s in generated),
        "core.points_quarantined": sum(s.attrs["quarantined"]
                                       for s in generated),
        "runtime.select_calls": len(outermost(spans, [SELECT])),
        "runtime.select_s": layer_seconds(spans, SELECT),
        "runtime.table_compile_s": layer_seconds(spans,
                                                 "runtime.table_compile"),
        "runtime.monitor_calls": len(named("runtime.monitor")),
        "runtime.monitor_s": layer_seconds(spans, "runtime.monitor"),
        "runtime.reconfig_attempts": attr_sum("runtime.reconfig",
                                              "attempted"),
        "runtime.reconfig_failures": attr_sum("runtime.reconfig", "failed"),
        "runtime.reconfig_dead_s": attr_sum("runtime.reconfig", "dead_s"),
        "edge.arrivals_s": layer_seconds(spans, "edge.arrivals"),
        "edge.event_runs": len(named("edge.event_loop")),
        "edge.event_s": event_s,
        "edge.events": events,
        "edge.events_per_s": _ratio(events, event_s),
        "edge.vector_runs": len(vector),
        "edge.vector_s": vector_s,
        "edge.vector_frames_per_s": _ratio(
            sum(s.attrs["frames"] for s in vector), vector_s),
        "edge.fallback_share": _ratio(len(fast) - len(vector), len(fast)),
        "fleet.route_s": layer_seconds(spans, "fleet.route"),
        "fleet.plan_elastic_s": layer_seconds(spans, "fleet.plan_elastic"),
        "fleet.merge_s": layer_seconds(spans, "fleet.merge"),
        "fleet.simulate_self_s": self_s("fleet.simulate"),
        "fleet.migrations": attr_sum("fleet.plan_elastic", "migrations"),
        "fleet.migration_dropped": attr_sum("fleet.plan_elastic",
                                            "migration_dropped"),
        "fleet.autoscale_ups": attr_sum("fleet.plan_elastic",
                                        "autoscale_ups"),
        "fleet.autoscale_downs": attr_sum("fleet.plan_elastic",
                                          "autoscale_downs"),
    }
