"""The layer calls the traced run wraps, and the per-layer metrics.

Each metric is named ``<module>.<function>.<stat>``.  ``calls`` and
``self_s`` exist for every wrapped function; the counters below are
gathered at the same call boundaries from arguments and return values.
"""

from __future__ import annotations

import os

import numpy as np

from cpsrecover import (analysis, anomaly, cli, config, estimator, framework,
                        models, sim, store)
from cpsrecover.timebase import to_us

from tracing import ROOT, Tracer

# (owner, attribute, span name); ``owner`` is a module or a class
TARGETS = (
    (models, "sample_noise", "models.sample_noise"),
    (models, "step_dynamics", "models.step_dynamics"),
    (estimator, "estimator_step", "estimator.estimator_step"),
    (anomaly, "inject_anomaly", "anomaly.inject_anomaly"),
    (anomaly, "ads_evaluate", "anomaly.ads_evaluate"),
    (framework, "subsystem_tick", "framework.subsystem_tick"),
    (framework, "roll_forward_recover", "framework.roll_forward_recover"),
    (framework, "most_recent_consistent_checkpoint",
     "framework.most_recent_consistent_checkpoint"),
    (store.SecureStore, "append_control", "store.append_control"),
    (store.SecureStore, "append_checkpoint", "store.append_checkpoint"),
    (store.SecureStore, "retrieve", "store.retrieve"),
    (store.SecureStore, "verify_integrity", "store.verify_integrity"),
    (analysis, "recovery_error_bound_at", "analysis.recovery_error_bound_at"),
    (analysis, "calibrate_bound_params", "analysis.calibrate_bound_params"),
    (analysis, "max_duration_certificate", "analysis.max_duration_certificate"),
    (analysis, "accuracy_resource_gap_bound",
     "analysis.accuracy_resource_gap_bound"),
    (sim, "run_scenario", "sim.run_scenario"),
    (sim, "emit_csv", "sim.emit_csv"),
    (config, "validate_config", "config.validate_config"),
    (config, "build_models", "config.build_models"),
    (cli, "main", "cli.main"),
)

# extra metrics: name -> (unit, better)
EXTRA = {
    "framework.subsystem_tick.p50_us": ("us", "lower"),
    "framework.subsystem_tick.p99_us": ("us", "lower"),
    "framework.roll_forward_recover.rerolls": ("count", "lower"),
    "framework.roll_forward_recover.replayed_controls": ("count", "lower"),
    "store.records_verified": ("count", "lower"),
    "store.retrieve.useful_ratio": ("ratio", "higher"),
    "analysis.recovery_error_bound_at.chain_len_sum": ("count", "lower"),
    "sim.emit_csv.bytes": ("bytes", "lower"),
    ROOT + ".self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.accounted_frac": ("ratio", "higher"),
}


def metric_specs() -> dict:
    """Every per-layer metric: name -> (unit, better)."""
    specs = {}
    for _, _, name in TARGETS:
        specs[name + ".calls"] = ("count", "lower")
        specs[name + ".self_s"] = ("s", "lower")
    specs.update(EXTRA)
    return specs


def _stored_records(st) -> int:
    """Records held by a store across all its chains.  Reads the store's
    internals; reports 0 if their layout changes."""
    try:
        chains = list(st._checkpoints.values()) + list(st._controls.values())
        return sum(len(c.payloads) for c in chains)
    except AttributeError:
        return 0


def install(tracer: Tracer) -> None:
    c = tracer.counters

    def rerolls(args, out):
        rt, t, k1 = args[0], args[6], out[3]
        if k1 is not None:
            c["rerolls"] += 1
            c["replayed"] += (to_us(t) - to_us(k1)) // to_us(rt.model.dt)

    def verified(args, out):
        n = _stored_records(args[0])
        c["verified"] += n
        if tracer.current() == "store.retrieve":
            c["verified_by_retrieve"] += n

    def returned(args, out):
        cps, _, ctl = out
        c["returned"] += len(cps) + len(ctl)

    def chain(args, out):
        c["chain"] += args[1] - args[2]

    def written(args, out):
        c["bytes"] += sum(os.path.getsize(p) for p in out)

    counts = {"framework.roll_forward_recover": rerolls,
              "store.verify_integrity": verified,
              "store.retrieve": returned,
              "analysis.recovery_error_bound_at": chain,
              "sim.emit_csv": written}
    tracer.install((owner, attr, name, counts.get(name))
                   for owner, attr, name in TARGETS)


def layer_metrics(tracer: Tracer, plain: dict, traced: dict) -> dict:
    """Per-layer values from the traced run, keyed like ``metric_specs``.
    ``plain`` and ``traced`` are ``measure`` results over the same units.
    Calls and self times cover the set-up as well as the timed units."""
    summary = tracer.summary()
    c = tracer.counters
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}
    out = {}
    for _, _, name in TARGETS:
        s = summary.get(name, empty)
        out[name + ".calls"] = s["calls"]
        out[name + ".self_s"] = s["self_s"]
    tick_us = summary.get("framework.subsystem_tick", empty)["durations"] * 1e6
    out["framework.subsystem_tick.p50_us"] = (
        float(np.percentile(tick_us, 50)) if tick_us.size else 0.0)
    out["framework.subsystem_tick.p99_us"] = (
        float(np.percentile(tick_us, 99)) if tick_us.size else 0.0)
    out["framework.roll_forward_recover.rerolls"] = int(c["rerolls"])
    out["framework.roll_forward_recover.replayed_controls"] = int(c["replayed"])
    out["store.records_verified"] = int(c["verified"])
    # a retrieve that verifies no more records than it returns wastes none
    out["store.retrieve.useful_ratio"] = (
        c["returned"] / max(c["verified_by_retrieve"], c["returned"])
        if c["returned"] else 0.0)
    out["analysis.recovery_error_bound_at.chain_len_sum"] = int(c["chain"])
    out["sim.emit_csv.bytes"] = int(c["bytes"])
    out[ROOT + ".self_s"] = summary.get(ROOT, empty)["self_s"]
    traced_median = float(np.median(traced["unit_s"]))
    out["trace.wall_s"] = traced_median
    out["trace.overhead"] = traced_median / float(np.median(plain["unit_s"])) - 1
    # the share of the traced units' host time spent in program-layer
    # spans; what is left is the harness's own time (ROOT's self time)
    timed = tracer.summary(timed_only=True)
    out["trace.accounted_frac"] = (
        sum(s["self_s"] for nm, s in timed.items() if nm != ROOT)
        / sum(traced["unit_host_s"]))
    return out
