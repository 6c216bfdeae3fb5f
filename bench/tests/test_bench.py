"""The benchmark's own tests: each workload at a tiny size, the result
schema, and correctness checks that can fail.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import pace
import run
import workload
from cpsrecover import analysis, config, models, sim
from cpsrecover.store import SecureStore
from tracing import Tracer

with open(os.path.join(run.ROOT_DIR, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(run.BENCH_DIR, "pinned_digests.json")) as fh:
    PINNED = json.load(fh)


TINY = {"sweep": {"block": 2}, "long-periodic": {"horizon": 20.0},
        "bounds": {"cal_seeds": 2, "held_out_seeds": 1}}


def tiny(name, work_dir, tracer=None):
    return workload.set_up(name, work_dir, 0, tracer, **TINY[name])


def result_of(name, tmp_path, trace=False):
    tracer = Tracer() if trace else None
    wl = tiny(name, str(tmp_path), tracer)
    clock = pace.Pace().start()
    try:
        child = workload.run_child(wl, 0.0, tracer, str(tmp_path), clock)
    finally:
        clock.stop()
    child.update(setup_s=0.5, setup_host_s=0.5)
    args = {"workload": name, "seed": 0, "seconds": 0.0, "trace": int(trace)}
    return run.summarize(args, child, [child], PINNED)


def check_schema(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert np.isfinite(m["value"])
    json.dumps(result)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_passes_at_tiny_size(name, tmp_path):
    record, result = result_of(name, tmp_path)
    check_schema(result, [m["name"] for m in SPEC["end_to_end"]])
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert record["failed_frac"] == 0.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["digests_match"]["default-seed-42"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    record, result = result_of("sweep", tmp_path, trace=True)
    check_schema(result, [m["name"] for m in SPEC["per_layer"]])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # names imported into sim and framework were replaced, then restored
    assert values["models.sample_noise.calls"] > 0
    assert values["estimator.estimator_step.calls"] > 0
    assert values["store.retrieve.useful_ratio"] > 0
    assert sim.sample_noise is models.sample_noise
    assert not hasattr(sim.sample_noise, "__wrapped__")
    # a sweep unit is all run_scenario calls; the harness's own share is
    # well under 1 % of it
    assert 0.97 < values["trace.accounted_frac"] < 1.0
    assert os.path.isfile(os.path.join(run.ROOT_DIR, record["spans_file"]))


def test_traced_set_up_is_recorded(tmp_path):
    tracer = Tracer()
    tiny("bounds", str(tmp_path), tracer)
    setup = tracer.summary()
    # 2 calibration and 1 held-out simulations, and the config calls
    assert setup["sim.run_scenario"]["calls"] == 3
    assert setup["config.validate_config"]["calls"] >= 1
    assert setup["config.build_models"]["calls"] >= 1
    assert tracer.summary(timed_only=True)["sim.run_scenario"]["calls"] == 0
    assert not hasattr(sim.run_scenario, "__wrapped__")


def test_spec_matches_the_harness():
    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    specs = layers.metric_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [(n, u, b) for n, (u, b) in specs.items()]
    assert SPEC["paths"] == ["bench"]


def _tamper_after_first_checkpoint(monkeypatch):
    orig = SecureStore.append_checkpoint

    def append_then_tamper(self, subsystem, cp):
        orig(self, subsystem, cp)
        if len(self._checkpoints[subsystem].payloads) == 1:
            self._tamper(subsystem, which="checkpoint", index=0)

    monkeypatch.setattr(SecureStore, "append_checkpoint", append_then_tamper)


@pytest.mark.parametrize("name", ["sweep", "long-periodic"])
def test_tampered_store_counts_as_failed(name, tmp_path, monkeypatch):
    wl = tiny(name, str(tmp_path))
    _tamper_after_first_checkpoint(monkeypatch)
    plain = workload.measure(wl, 0.0)
    assert wl.failed == wl.attempted >= 1
    assert not (wl.verdict() and wl.failed == 0)
    assert plain["unit_s"] and wl.failures


def test_shrunk_eps_delta_counts_as_failed(tmp_path, monkeypatch):
    wl = tiny("bounds", str(tmp_path))
    orig = analysis.calibrate_bound_params

    def shrunk(*args, **kwargs):
        bp = orig(*args, **kwargs)
        bp.eps_delta = bp.eps_delta * 0.1
        return bp

    monkeypatch.setattr(analysis, "calibrate_bound_params", shrunk)
    workload.measure(wl, 0.0)
    assert 0 < wl.failed < wl.attempted
    assert any("EE" in f for f in wl.failures)


def test_long_periodic_config_shape():
    cfg = workload.long_periodic_config()
    config.validate_config(cfg)
    for sid, windows in cfg["anomalies"].items():
        assert len(windows) == 32
        assert windows[0]["t_start"] == 3.25 and windows[0]["t_end"] == 5.0
        assert windows[-1]["t_start"] == 158.25 and windows[-1]["t_end"] == 160.0


def test_tail_keeps_ten_runs_above_it():
    assert run.tail(list(range(10))) == (None, None)
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert sum(v > value for v in range(40)) == 10


def test_self_time_excludes_children():
    tracer = Tracer()

    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    tracer.wrap("outer", lambda: inner() + inner())()
    s = tracer.summary()
    dur = s["outer"]["durations"][0]
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(
        dur - s["inner"]["durations"].sum(), abs=1e-9)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(run.ROOT_DIR, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
