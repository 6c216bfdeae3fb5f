import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
import traceback
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from cpsrecover import config as cfgmod
from cpsrecover import cli, estimator, models, robot, sim
from cpsrecover.anomaly import (DETECTOR_KINDS, DETECTOR_MODES,
                                AnomalySchedule)
from cpsrecover.config import ConfigError
from cpsrecover.store import IntegrityError
from cpsrecover.timebase import to_s, to_us
from helpers import (MID_RUN_EDITS, UNRECOVERABLE, controls_of, full_store,
                     long_periodic_config, reference_fmt, tamper_after_append)

PINNED_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / \
    "pinned_digests.json"


def test_determinism_byte_identical_csv(tmp_path):
    cfg = cfgmod.build_case_study(seed=42)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    sim.emit_csv(sim.run_scenario(cfg), out_a)
    sim.emit_csv(sim.run_scenario(cfg), out_b)
    for sid in robot.LOOPS:
        assert (out_a / f"{sid}.csv").read_bytes() == \
            (out_b / f"{sid}.csv").read_bytes()


def test_default_seed_42_csvs_match_pinned_digests(tmp_path):
    pinned = json.loads(PINNED_DIGESTS.read_text())["default-seed-42"]
    sim.emit_csv(sim.run_scenario(cfgmod.build_case_study(seed=42)), tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


def _csv_digests(cfg, out_dir) -> dict:
    sim.emit_csv(sim.run_scenario(cfg), out_dir)
    return {f"{sid}.csv": hashlib.sha256(
        (out_dir / f"{sid}.csv").read_bytes()).hexdigest()
        for sid in robot.LOOPS}


def test_cold_and_warm_gain_tables_give_the_pinned_csvs(tmp_path):
    """Seed 42 run twice in one process, first filling the motor loops'
    gain table and then reading it, writes the pinned CSVs both times."""
    pinned = json.loads(PINNED_DIGESTS.read_text())["default-seed-42"]
    estimator._gain_table.cache_clear()
    for run in ("cold", "warm"):
        cfg = cfgmod.build_case_study(seed=42)
        assert _csv_digests(cfg, tmp_path / run) == pinned


def test_another_models_table_leaves_a_run_unchanged(tmp_path):
    """A run whose motor noise differs fills a motor table of its own; seed
    42 after it still writes the pinned CSVs, and the other run repeated
    after seed 42 writes what it wrote cold.  The two configurations share
    the outer loop's table."""
    pinned = json.loads(PINNED_DIGESTS.read_text())["default-seed-42"]
    noisy = cfgmod.build_case_study(seed=7)
    noisy["noise"] = dict(noisy["noise"], inner_q_std=5.0, inner_r_std=2.0)
    estimator._gain_table.cache_clear()
    cold = _csv_digests(noisy, tmp_path / "cold")
    assert _csv_digests(cfgmod.build_case_study(seed=42),
                        tmp_path / "default") == pinned
    assert _csv_digests(noisy, tmp_path / "warm") == cold
    assert estimator._gain_table.cache_info().currsize == 3


def test_a_run_writes_no_model():
    """After a run that recovered, every field of every model it ran is the
    object it was built with: the gain tables live in the estimates."""
    cfg = cfgmod.build_case_study(seed=42)
    loops = cfgmod.build_system(cfg)
    built = [{f.name: getattr(rt.model, f.name)
              for f in dataclasses.fields(rt.model)} for rt in loops]
    res = sim.run_loops(loops, 42, to_us(cfg["horizon"]), 1_000_000)
    assert np.isfinite(res.traces[robot.OUTER]["k1"]).any()
    for rt, fields in zip(res.loops, built):
        for name, value in fields.items():
            assert getattr(rt.model, name) is value, (rt.model.id, name)


def test_a_finished_run_releases_its_tick_state(monkeypatch):
    """A built runtime holds no rows; a finished run keeps what its
    readers use and drops what only the ticks read, whether it ran to the
    end or stopped, and whether it kept whole traces or handed its blocks
    to a sink; after a sink, each trace holds the rows of the loop's last
    block."""
    monkeypatch.setattr(sim, "_BLOCK", 64)
    for cfg in (cfgmod.build_case_study(seed=42),
                cfgmod.build_case_study(**UNRECOVERABLE)):
        cfg = cfgmod.validate_config(cfg)
        for sink in (None, lambda i, rt: None):
            loops = cfgmod.build_system(cfg)
            assert all(rt.trace is rt.flags is rt.detected is None
                       for rt in loops)
            res = sim.run_loops(loops, cfg["seed"], to_us(cfg["horizon"]),
                                1_000_000, sink)
            for rt in res.loops:
                for name in ("detected", "innovations", "episode",
                             "controller", "applied_input"):
                    assert getattr(rt, name) is None, (rt.model.id, name)
                assert rt.trace["ads_flags"] is rt.flags
                assert rt.columns and rt.schedule is not None
                t = res.traces[rt.model.id]["t"]
                held = range(rt.lo, rt.rows)
                assert t.tolist() == [to_s(k * to_us(rt.model.dt))
                                      for k in held]
                assert rt.lo == (0 if sink is None
                                 else max(rt.rows - 1, 0) // 64 * 64)
            if sink is None:
                sim.every_tick_shadow(res)


def test_a_runs_length_belongs_to_run_loops_alone():
    """Loops built from a 2 s config tick as ``run_loops`` is told: run for
    2.05 s, off the outer loop's 0.1 s grid, they write bit for bit the
    traces of a 2.05 s config, the ticks below 2.05 s, and run for 1 s
    they hold only that second's rows."""
    cfg = cfgmod.validate_config(cfgmod.build_case_study(seed=42,
                                                         horizon=2.0))
    ckpt_us = to_us(1.0 / cfg["checkpoint_freq_hz"])
    got = sim.run_loops(cfgmod.build_system(cfg), 42, 2_050_000, ckpt_us)
    want = sim.run_scenario(dict(cfg, horizon=2.05))
    assert {sid: len(tr["t"]) for sid, tr in got.traces.items()} == {
        sid: 21 if sid == robot.OUTER else 205 for sid in robot.LOOPS}
    for sid, tr in want.traces.items():
        for name, col in tr.items():
            mine = got.traces[sid][name]
            assert mine.shape == col.shape and mine.dtype == col.dtype
            assert mine.tobytes() == col.tobytes(), (sid, name)
    short = sim.run_loops(cfgmod.build_system(cfg), 42, 1_000_000, ckpt_us)
    for rt in short.loops:
        held = 10 if rt.model.id == robot.OUTER else 100
        assert rt.rows == len(rt.trace["t"]) == held, rt.model.id


def test_every_tick_shadow_refuses_a_streamed_run(monkeypatch):
    """A run that handed its blocks to a sink holds each loop's last block
    only, which the shadow cannot index by tick."""
    monkeypatch.setattr(sim, "_BLOCK", 64)
    cfg = cfgmod.validate_config(cfgmod.build_case_study(seed=42))
    res = sim.run_loops(cfgmod.build_system(cfg), cfg["seed"],
                        to_us(cfg["horizon"]), 1_000_000, lambda i, rt: None)
    assert res.loops[0].model.id == robot.OUTER and res.loops[0].lo == 64
    with pytest.raises(ValueError, match="^outer: streamed, holds rows 64 on only"):
        sim.every_tick_shadow(res)


def test_long_periodic_csvs_match_pinned_digests(tmp_path):
    """The long-periodic case; its motor loops spend most steps reading
    their gain table's fixed point."""
    pinned = json.loads(PINNED_DIGESTS.read_text())["long-periodic"]
    sim.emit_csv(sim.run_scenario(long_periodic_config()), tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


# sha256 of each loop's CSV, pinned with Python 3.11.7 and numpy 2.4.6;
# the residual-threshold case is SHADOW_CONFIGS' own
PINNED_CSV_CONFIGS = {
    "generic": {
        "outer.csv": "938ef42a4acec1c0981084e67a64d9412053c6bf97edfff3834a9cbd843a6c2e",
        "inner-1.csv": "15b520c16bbc38330a89c2cf49223d532080d9d333a02fc9795fa633940f2df4",
        "inner-2.csv": "a272fcf08f1a5c9ff1cfe7ef6201f42afaf32e5b54077dc47ab30c4cfce681a4",
    },
    "bounds": {
        "outer.csv": "40ef7108fa6881e2dd2bb1c224c77b6fbf45726450a216bea5bca1bfe74ac74d",
        "inner-1.csv": "5cacf3fda68f499fcc3760e6e04ab59dffc2e327168633c41fea2578a8690c06",
        "inner-2.csv": "22506b776c10fad7aeac82a811ce2ce924af69cb74242b2d67c5736d7b29059b",
    },
    "coupled": {
        "outer.csv": "0182d38655edafaaf6bc99191486e715f0f57b2148e8a6024d3ea3e526cdc804",
        "inner-1.csv": "36980ad781346d7ddfdfabd6da37cecc79c444d2f553eb2cab95cec06c9fabd6",
        "inner-2.csv": "464848fb1777e039eae130b3fb4acdcc00dd65097232fe7d6c5423667bb84d75",
    },
    "safe-stop": {
        "outer.csv": "989c635be91b42fb6981b32f9307c03802d138b26948e90767e7d96aa3d66e50",
        "inner-1.csv": "965cf0db7ffcae9dd8207641a353053b3f0472d125a16f028e36bf3b6a516481",
        "inner-2.csv": "a1bf5387c2473b12230f0e90dd13b60e9cad4beee19a5572437cfb4c2354b763",
    },
    "residual-threshold": {
        "outer.csv": "61de1f0b3208dfa87bf16a8e7f472eb5e8fd69c71c0e19ff4603ec93dd4cba36",
        "inner-1.csv": "641752e12004d211e88f396dcaa9d1d807ea387b7e4f24e20182482782e71b2f",
        "inner-2.csv": "249b08edec6c23235298c5a61584dde6547646cf6fc299a5548e4b27e09d8570",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV_CONFIGS))
def test_csv_configs_match_pinned_digests(tmp_path, name):
    """The generic-detector, bounds, coupled-plant, safe-stop and
    all-loops residual-threshold cases write the CSVs they were pinned
    with."""
    overrides = {**CSV_CONFIGS, "residual-threshold":
                 SHADOW_CONFIGS["residual-threshold"]}[name]
    assert _csv_digests(cfgmod.build_case_study(**overrides),
                        tmp_path) == PINNED_CSV_CONFIGS[name]


def test_a_run_resolves_its_schedule_once_per_loop(monkeypatch):
    """A default run never calls ``step_dynamics`` and no tick looks up
    its window: each loop, whose ticks fit in one block, resolves
    its schedule before its first tick, with two lookups over its whole
    tick grid (the window of each row and the oracle's delayed one), none
    when it is built, and the tick steps the model itself."""
    calls = Counter()
    grids = Counter()      # the number of times looked up in one call
    window_index = AnomalySchedule.window_index

    def lookup(self, t_us, delay_us):
        grids[np.size(t_us)] += 1
        return window_index(self, t_us, delay_us)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(AnomalySchedule, "window_index", lookup)
    for name in ("step_dynamics",):
        fn = getattr(models, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cpsrecover") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    res = sim.run_scenario(cfgmod.build_case_study(seed=42))
    assert len(res.traces[robot.INNER_1]["t"]) == 1000
    assert res.traces[robot.OUTER]["ads_flags"].any()
    assert not calls
    assert grids == Counter(len(res.traces[rt.model.id]["t"])
                            for rt in res.loops for _ in range(2))


def test_a_default_run_predicts_each_motor_state_once(monkeypatch):
    """Each motor model's ``f`` runs twice per tick, for the plant and for
    the estimator's prior, plus once per control an episode's first tick
    replays: every later tick of an episode takes its roll-forward value
    from the prior."""
    calls = Counter()
    build_models = cfgmod.build_models

    def counting_models(cfg):
        params, built = build_models(cfg)
        for sid in (robot.INNER_1, robot.INNER_2):
            def f(x, u, sid=sid, f=built[sid].f):
                calls[sid] += 1
                return f(x, u)
            built[sid] = dataclasses.replace(built[sid], f=f)
        return params, built

    monkeypatch.setattr(cfgmod, "build_models", counting_models)
    res = sim.run_scenario(cfgmod.default_config())
    for sid in (robot.INNER_1, robot.INNER_2):
        tr = res.traces[sid]
        dt_us = to_us(1.0 / robot.RobotParams().inner_rate)
        recovering = ~np.isnan(tr["k1"])
        first = recovering & ~np.r_[False, recovering[:-1]]
        replayed = sum((to_us(t) - to_us(k1)) // dt_us
                       for t, k1 in zip(tr["t"][first], tr["k1"][first]))
        assert first.sum() == 2 and recovering.sum() > 2 * first.sum()
        assert calls[sid] == 2 * len(tr["t"]) + replayed


# the reference scheduler: every base tick, each loop due on it in order
def _base_tick_filter(periods_us, horizon_us, ckpt_us):
    base = math.gcd(*periods_us)
    return [(to_s(t), i, t % ckpt_us == 0) for t in range(0, horizon_us, base)
            for i, p in enumerate(periods_us) if t % p == 0]


@settings(max_examples=200, deadline=None)
@given(periods=st.lists(st.integers(1, 60), min_size=1, max_size=3),
       horizon_us=st.integers(1, 700), ckpt_us=st.integers(1, 120))
def test_loop_ticks_equal_the_base_tick_filter(periods, horizon_us, ckpt_us):
    ticks = list(sim._loop_ticks(periods, horizon_us, ckpt_us))
    assert ticks == _base_tick_filter(periods, horizon_us, ckpt_us)
    # loops due at one instant share its time, one float
    for (t, _, _), (s, _, _) in zip(ticks, ticks[1:]):
        assert t < s or t is s


def test_loops_off_each_others_grid_tick_at_their_own_periods():
    """A 99,999 µs outer loop beside 10,000 µs motor loops shares a base
    tick of 1 µs with them; each loop's rows fall at the multiples of its
    own period, and a checkpoint period past the horizon saves at t = 0
    alone."""
    cfg = cfgmod.build_case_study(
        horizon=2.0, robot={"outer_rate": 1e6 / 99_999},
        checkpoint_freq_hz=1e6 / 999_990_000,
        anomalies={sid: [] for sid in robot.LOOPS})
    res = sim.run_scenario(cfg)
    assert not res.events
    for sid, period in ((robot.OUTER, 99_999), (robot.INNER_1, 10_000),
                        (robot.INNER_2, 10_000)):
        assert [to_us(t) for t in res.traces[sid]["t"]] == \
            list(range(0, 2_000_000, period))
        assert res.store.save_times(sid) == [0.0]


def test_result_keeps_its_own_config():
    """Editing the caller's config after the run changes nothing the result
    computes from the loops it ran."""
    cfg = cfgmod.build_case_study(seed=3)
    res = sim.run_scenario(cfg)
    shadow = sim.every_tick_shadow(res)[robot.OUTER]
    cfg["ads"][robot.OUTER]["detection_time"] = 1.0
    np.testing.assert_array_equal(sim.every_tick_shadow(res)[robot.OUTER],
                                  shadow)


def test_the_engine_runs_two_copies_of_the_case_study_in_one_store(tmp_path):
    """Six loops, the case study built twice with the second copy's loops
    renamed, run in one store: the first copy writes the pinned CSVs, as
    its streams and its consistent checkpoints are the ones it has alone,
    and no loop stops."""
    cfg = cfgmod.build_case_study(seed=42)
    first, second = cfgmod.build_system(cfg), cfgmod.build_system(cfg)
    for rt in second:
        rt.model = dataclasses.replace(rt.model, id=rt.model.id + "#2")
    res = sim.run_loops(first + second, 42, to_us(cfg["horizon"]),
                        to_us(1.0 / cfg["checkpoint_freq_hz"]))
    assert not res.events
    assert sorted(res.store.subsystems()) == sorted(
        rt.model.id for rt in first + second)
    sim.emit_csv(res, tmp_path)
    pinned = json.loads(PINNED_DIGESTS.read_text())["default-seed-42"]
    digests = {f"{sid}.csv": hashlib.sha256(
        (tmp_path / f"{sid}.csv").read_bytes()).hexdigest()
        for sid in robot.LOOPS}
    assert digests == pinned
    for sid in robot.LOOPS:        # the copies draw their own noise
        assert res.traces[sid + "#2"]["ckpt_event"].tolist() == \
            res.traces[sid]["ckpt_event"].tolist()
        assert not np.array_equal(res.traces[sid + "#2"]["x_true"],
                                  res.traces[sid]["x_true"])


def _held(store) -> int:
    """The records a store holds, over all its logs."""
    return sum(len(c.payloads) for c in [*store._checkpoints.values(),
                                         *store._controls.values()])


def test_the_store_holds_as_much_at_any_horizon():
    """The periodic-burst schedule over 40 s and over 160 s: both runs end
    holding the same number of records, within one checkpoint period's
    worth, and hold a suffix of every record they appended."""
    held = []
    for horizon in (40.0, 160.0):
        res = sim.run_scenario(long_periodic_config(horizon))
        assert not res.events
        assert _held(full_store(res)) > 4 * _held(res.store)
        held.append(_held(res.store))
    # one second: 10 outer and 2 x 100 motor controls, 3 checkpoints
    assert abs(held[0] - held[1]) <= 213
    assert held[1] < 500


def _traced_peak(horizon: float, on_block=None) -> tuple:
    """The traced peak of a periodic-burst run over ``horizon`` seconds,
    and the run, which hands its blocks to ``on_block`` if given."""
    cfg = cfgmod.validate_config(long_periodic_config(horizon))
    tracemalloc.start()
    try:
        res = sim.run_loops(cfgmod.build_system(cfg), cfg["seed"],
                            to_us(horizon),
                            to_us(1.0 / cfg["checkpoint_freq_hz"]), on_block)
        return tracemalloc.get_traced_memory()[1], res
    finally:
        tracemalloc.stop()


def test_a_run_row_holds_only_what_varies(monkeypatch):
    """The periodic-burst schedule's traced peak grows by at most 125
    bytes per loop row between 10 s and 30 s: a column no tick writes is
    one shared read-only row, and noise is drawn a block at a time.  With
    bounds, ``rsee_bound`` is a column of its own, which recovering ticks
    write.  A run that hands its blocks to a sink holds one block of
    rows, so its peak grows by at most 24 bytes per loop row."""
    # 256-row noise blocks are as full at 10 s as at 30 s, so only what
    # grows with the rows differs; the blocks never change a run
    monkeypatch.setattr(sim, "_BLOCK", 256)
    # the untraced run imports and caches what runs over 10 s need
    sim.run_scenario(long_periodic_config(10.0))

    def growth(sink) -> tuple:
        """The peak's growth per loop row, and the 30 s run."""
        (short, res_short), (peak, res) = (_traced_peak(10.0, sink),
                                           _traced_peak(30.0, sink))
        rows = [sum(rt.rows for rt in r.loops) for r in (res_short, res)]
        return (peak - short) / (rows[1] - rows[0]), res

    # 117 B with shared rows and noise blocks, 133 B with a dense
    # ee_bound; 15.5 B with a sink, of which about 7 B is the outer loop's
    # block, 100 rows at 10 s and 256 at 30 s, and 3 B the 4 more windows
    # of each loop (Python 3.11.7, numpy 2.4.6)
    assert growth(lambda i, rt: None)[0] <= 24
    per_row, res = growth(None)
    assert per_row <= 125
    for tr in res.traces.values():
        for name in ("ee_bound", "rsee_bound"):
            assert not tr[name].flags.writeable, name
            assert tr[name].strides[0] == 0, name
    bounded = sim.run_scenario(cfgmod.build_case_study(**CSV_CONFIGS["bounds"]))
    tr = bounded.traces[robot.OUTER]
    assert not tr["ee_bound"].flags.writeable
    assert tr["ee_bound"].strides[0] == 0
    assert (tr["ee_bound"] == _OUTER_BOUNDS["eps_delta"]).all()
    assert tr["rsee_bound"].strides[0] != 0
    assert np.isfinite(tr["rsee_bound"]).any()


def test_tick_counts(case_result):
    assert len(case_result.traces["outer"]["t"]) == 100
    assert len(case_result.traces["inner-1"]["t"]) == 1000
    assert len(case_result.traces["inner-2"]["t"]) == 1000


def test_zero_noise_estimates_converge_to_truth():
    cfg = cfgmod.build_case_study(
        seed=0,
        anomalies={"outer": [], "inner-1": [], "inner-2": []},
        noise={"outer_q_std": 0.0, "outer_r_std": 0.0,
               "inner_q_std": 0.0, "inner_r_std": 0.0})
    res = sim.run_scenario(cfg)
    for sid in robot.LOOPS:
        tr = res.traces[sid]
        late = tr["t"] > 1.0
        assert np.abs(tr["x_rf"][late] - tr["x_true"][late]).max() < 1e-6


def test_csv_header_and_schema(tmp_path):
    cfg = cfgmod.build_case_study(seed=1)
    paths = sim.emit_csv(sim.run_scenario(cfg), tmp_path)
    with open(tmp_path / "outer.csv") as fh:
        header = fh.readline().strip().split(",")
    for col in ("x_true_x", "x_true_y", "x_true_theta", "x_rf_x",
                "recovered_mask_theta", "u_v", "u_omega", "ads_flag_x",
                "ckpt_event", "rsee_bound_x", "ee_bound_theta", "safe_stop"):
        assert col in header
    assert len(paths) == 3


def test_csv_ckpt_event_matches_store(tmp_path, case_result):
    sim.emit_csv(case_result, tmp_path)
    for sid in robot.LOOPS:
        with open(tmp_path / f"{sid}.csv") as fh:
            rows = list(csv.DictReader(fh))
        event_ts = [float(r["t"]) for r in rows if r["ckpt_event"] == "1"]
        assert event_ts == full_store(case_result).save_times(sid)


def test_csv_floats_round_trip(tmp_path, case_result):
    sim.emit_csv(case_result, tmp_path)
    tr = case_result.traces["outer"]
    with open(tmp_path / "outer.csv") as fh:
        rows = list(csv.DictReader(fh))
    for k in (0, 17, 50, 99):
        assert float(rows[k]["t"]) == tr["t"][k]
        assert float(rows[k]["x_true_x"]) == tr["x_true"][k][0]
        assert float(rows[k]["x_hat_theta"]) == tr["x_hat"][k][2]
        assert float(rows[k]["u_omega"]) == tr["u"][k][1]


def test_csv_recovery_columns_blank_when_healthy(tmp_path, case_result):
    sim.emit_csv(case_result, tmp_path)
    with open(tmp_path / "outer.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["recovered_mask_x"] == "0" and r["recovered_mask_y"] == "0":
            assert r["x_rf_x"] == ""
        else:
            assert r["x_rf_x"] != ""


def test_case_study_save_times(case_result):
    for sid in robot.LOOPS:
        assert full_store(case_result).save_times(sid) == \
            [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("mu", [1.0, 10.0])
def test_healthy_loops_save_on_every_checkpoint_period(mu):
    # every loop gets the same checkpoint Boolean on each base tick
    horizon = 2.5
    cfg = cfgmod.build_case_study(
        seed=0, horizon=horizon, checkpoint_freq_hz=mu,
        anomalies={sid: [] for sid in robot.LOOPS})
    res = sim.run_scenario(cfg)
    period_us = to_us(1.0 / mu)
    want = [to_s(k * period_us)
            for k in range(-(-to_us(horizon) // period_us))]
    for sid in robot.LOOPS:
        assert full_store(res).save_times(sid) == want


def test_recovery_window_timing(case_result):
    tr = case_result.traces["outer"]
    det = tr["recovered"].any(axis=1)
    ts = tr["t"][det]
    assert ts.min() == pytest.approx(3.5)
    assert np.all(((ts >= 3.5) & (ts < 5.0)) | ((ts >= 8.5) & (ts < 10.0)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       ids=st.lists(st.text(max_size=4), unique=True, max_size=6),
       split=st.integers(0, 6))
def test_rng_streams_independent_of_other_subsystems(seed, ids, split):
    """Loops appended after the others leave every other loop's streams as
    they were; each stream draws its own values."""
    ids, more = ids[:split], ids[split:]
    alone, joined = sim.make_rngs(seed, ids), sim.make_rngs(seed, ids + more)
    assert list(joined) == [(sid, kind) for sid in ids + more
                            for kind in ("process", "measurement", "init")]
    draws = {}
    for key, rng in alone.items():
        draws[key] = rng.standard_normal(4).tobytes()
        assert joined[key].standard_normal(4).tobytes() == draws[key]
    assert len(set(draws.values())) == len(draws)


def test_coupled_plant_mode_runs():
    """Each outer control record is, bit for bit, the body velocity of the
    motors' wheel speeds as the outer loop fires, and never the commanded
    ``u`` of the trace.  The outer loop fires first at a shared instant, so
    a motor's speed then is its plant state after its previous tick, or its
    initial state."""
    cfg = cfgmod.build_case_study(seed=3, plant_mode="coupled")
    res = sim.run_scenario(cfg)
    params, built = cfgmod.build_models(cfg)
    tr = res.traces[robot.OUTER]
    controls = controls_of(full_store(res), robot.OUTER)
    assert len(tr["t"]) == 100
    assert [c.t for c in controls] == tr["t"].tolist()
    motors = (robot.INNER_1, robot.INNER_2)
    speeds = [np.r_[built[sid].mu0[1], res.traces[sid]["x_true"][:, 1]]
              for sid in motors]
    ratio = to_us(built[robot.OUTER].dt) // to_us(built[robot.INNER_1].dt)
    for k, c in enumerate(controls):
        want = robot.wheel_transform_inverse(
            [speeds[0][ratio * k], speeds[1][ratio * k]], params)
        assert np.asarray(c.u).tobytes() == want.tobytes()
        assert not np.array_equal(c.u, tr["u"][k])


def test_safe_stop_truncates_trace():
    cfg = cfgmod.build_case_study(seed=0, t_max=0.5)
    res = sim.run_scenario(cfg)
    assert res.safe_stop
    assert res.events and res.events[0]["type"] == "safe-stop"
    # first episode is detected at 3.5 and exceeds 0.5 s tolerable duration
    stop_t = res.events[0]["t"]
    assert 3.5 < stop_t < 5.0
    for sid in robot.LOOPS:
        assert res.traces[sid]["t"].max() <= stop_t


@pytest.mark.parametrize("where", sorted(MID_RUN_EDITS))
def test_a_store_edited_mid_run_ends_it_with_an_integrity_error(
        monkeypatch, where):
    """A record edited in place mid-run makes the run raise the store's
    ``IntegrityError`` at the next check: from the cut at 1 s, in
    ``run_loops``, for inner-1's first checkpoint; from inside the outer
    loop's tick at 3.5 s, as its recovery reads the store, for inner-2's
    3.2 s control.  The latter is the one exception that leaves a tick."""
    tamper_after_append(monkeypatch, *MID_RUN_EDITS[where])
    with pytest.raises(IntegrityError,
                       match="^store integrity check failed$") as info:
        sim.run_scenario(cfgmod.build_case_study(seed=42))
    frames = {f.f_code.co_name: f.f_locals
              for f, _ in traceback.walk_tb(info.value.__traceback__)}
    if where == "cut":
        assert "drop_before" in frames and "subsystem_tick" not in frames
        assert frames["run_loops"]["t"] == 1.0
    else:
        assert {"roll_forward_recover", "retrieve"} <= frames.keys()
        tick = frames["subsystem_tick"]
        assert (tick["rt"].model.id, tick["t"]) == ("outer", 3.5)


def test_an_unrecoverable_tick_writes_its_row():
    """The tick that finds no checkpoint ends the run on its own row: its
    estimate and flags, no control, nothing recovered and ``safe_stop``.
    The every-tick shadow skips the episode the run could not recover."""
    res = sim.run_scenario(cfgmod.build_case_study(**UNRECOVERABLE))
    assert res.safe_stop and res.events[-1]["t"] == 0.0
    assert res.events[-1]["reason"].startswith("unrecoverable: ")
    assert res.events[-1]["episode_start"] is None
    tr = res.traces[robot.INNER_1]
    assert len(tr["t"]) == 1 and tr["t"][0] == 0.0
    assert tr["ads_flags"][0].all() and tr["safe_stop"][0]
    assert np.isfinite(tr["x_true"][0]).all()
    assert np.isfinite(tr["y_meas"][0]).all() and tr["y_meas"][0, 0] > 1e4
    np.testing.assert_array_equal(tr["x_rf"][0], tr["x_hat"][0])
    assert np.isfinite(tr["x_hat"][0]).all()
    assert np.isnan(tr["u"][0]).all() and np.isnan(tr["x_rec"][0]).all()
    assert np.isnan(tr["k1"][0]) and np.isnan(tr["rsee_bound"][0]).all()
    assert not tr["recovered"][0].any() and not tr["ckpt_event"][0]
    assert controls_of(res.store, robot.INNER_1) == []
    # the outer loop fired before it at t = 0; inner-2 after it never did
    assert len(res.traces[robot.OUTER]["t"]) == 1
    assert len(res.traces[robot.INNER_2]["t"]) == 0
    shadows = sim.every_tick_shadow(res)
    assert np.isnan(shadows[robot.INNER_1]).all()


# -- trace columns and CSV writer ----------------------------------------

_OUTER_BOUNDS = {"A_bar": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]],
                 "eps_delta": [0.3, 0.3, 0.3], "eps_omega": [0.6, 0.6, 0.6],
                 "phi_bar": [0.1, 0.1, 0.0], "E_max": [50.0, 50.0, 50.0]}
_GENERIC = {sid: {"kind": "generic"} for sid in robot.LOOPS}

CSV_CONFIGS = {
    "generic": dict(seed=3, ads=_GENERIC),
    "bounds": dict(seed=2, bounds={robot.OUTER: _OUTER_BOUNDS}),
    "coupled": dict(seed=3, plant_mode="coupled"),
    "safe-stop": dict(seed=0, t_max=0.5),
}


def _per_value_rows(tr) -> str:
    """The rows of a trace CSV, one ``reference_fmt`` call per field."""
    lines = []
    for k in range(len(tr["t"])):
        recovering = bool(np.any(tr["recovered"][k]))
        row = [reference_fmt(tr["t"][k])]
        row += [reference_fmt(v) for v in tr["x_true"][k]]
        row += [reference_fmt(v) for v in tr["y_meas"][k]]
        row += [reference_fmt(v) for v in tr["x_hat"][k]]
        row += [reference_fmt(v) if recovering else "" for v in tr["x_rf"][k]]
        row += [reference_fmt(int(v)) for v in tr["recovered"][k]]
        row += [reference_fmt(v) for v in tr["u"][k]]
        row += [reference_fmt(int(v)) for v in tr["ads_flags"][k]]
        row += [reference_fmt(bool(tr["ckpt_event"][k]))]
        row += [reference_fmt(v) for v in tr["rsee_bound"][k]]
        row += [reference_fmt(v) for v in tr["ee_bound"][k]]
        row += [reference_fmt(bool(tr["safe_stop"][k]))]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("name", ["default", *CSV_CONFIGS])
def test_emit_csv_equals_per_value_writer(tmp_path, case_result, name):
    """The block writer writes the bytes the per-value writer would on
    simulated traces; random ones are the property below."""
    if name == "default":
        res = case_result
    else:
        res = sim.run_scenario(cfgmod.build_case_study(**CSV_CONFIGS[name]))
    for path in sim.emit_csv(res, tmp_path):
        sid = path.rsplit("/", 1)[-1][:-len(".csv")]
        with open(path, newline="") as fh:
            fh.readline()
            assert fh.read() == _per_value_rows(res.traces[sid])


_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
             1.7976931348623157e308, 0.1, -1e-300]


def _random_trace(rng, loop: str, rows: int, generic: bool,
                  palette: list) -> dict:
    """A trace of ``loop`` of random floats, a fifth of them from
    ``palette``, with NaN on a tenth of the rows of each float column and
    on every row of some of its ``sim._BLOCK``-row blocks; a generic
    detector has one flag column."""
    sn, mn, un = robot.LOOPS[loop]

    def floats(*width):
        a = rng.standard_normal((rows, *width)) * 10.0 ** rng.integers(
            -300, 300, (rows, *width))
        pick = rng.random(a.shape) < 0.2
        a[pick] = rng.choice(palette, int(pick.sum()))
        a[rng.random(a.shape) < 0.1] = np.nan
        for lo in range(0, rows, sim._BLOCK):
            blank = rng.random(a.shape[1:]) < 0.3
            a[lo:lo + sim._BLOCK][..., blank] = np.nan
        return a

    n_x = len(sn)
    return {"t": floats(), "x_true": floats(n_x), "y_meas": floats(len(mn)),
            "x_hat": floats(n_x), "x_rf": floats(n_x), "x_rec": floats(n_x),
            "recovered": rng.random((rows, n_x)) < 0.3,
            "u": floats(len(un)),
            "ads_flags": rng.integers(0, 2, (rows, 1 if generic else len(mn))),
            "ckpt_event": rng.random(rows) < 0.1, "k1": floats(),
            "rsee_bound": floats(n_x), "ee_bound": floats(n_x),
            "safe_stop": rng.random(rows) < 0.05}


# no shrinking: every example is a fresh random trace, and shrinking a
# failing 2,049-row one took minutes
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(rows=st.sampled_from([0, 1, 1023, 1024, 1025, 2049]),
       loop=st.sampled_from(list(robot.LOOPS)), generic=st.booleans(),
       palette=st.lists(st.floats(width=64) | st.sampled_from(_SPECIALS),
                        min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_emit_csv_writes_the_per_value_rendering(tmp_path_factory, rows, loop,
                                                 generic, palette, seed):
    """Random traces, with signed zeros, infinities, extremes and columns
    NaN on some rows or on every row of a block, are written as the
    row-by-row ``reference_fmt`` rendering: NaN as an empty field and ``x_rf``
    blank on rows without recovery."""
    trace = _random_trace(np.random.default_rng(seed), loop, rows, generic,
                          palette)
    stand_in = SimpleNamespace(
        model=SimpleNamespace(id=loop), columns=robot.LOOPS[loop],
        ads=SimpleNamespace(kind="generic" if generic else "specific"))
    res = sim.SimResult({loop: trace}, None, [], False, [stand_in])
    [path] = sim.emit_csv(res, tmp_path_factory.mktemp("csv"))
    with open(path, newline="") as fh:
        fh.readline()
        assert fh.read() == _per_value_rows(trace)


@pytest.mark.parametrize("name", ["default", "generic"])
def test_csv_rows_have_as_many_fields_as_the_header(tmp_path, name):
    """A generic detector's single flag has a single ``ads_flag`` column."""
    cfg = cfgmod.build_case_study(**CSV_CONFIGS.get(name, dict(seed=3)))
    sim.emit_csv(sim.run_scenario(cfg), tmp_path)
    for sid in robot.LOOPS:
        with open(tmp_path / f"{sid}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(r) == len(header) for r in rows)
        flags = [c for c in header if c.startswith("ads_flag")]
        if name == "generic" and sid == robot.OUTER:
            assert flags == ["ads_flag"]
        else:
            assert flags == [f"ads_flag_{c}" for c in robot.LOOPS[sid].meas]


# name: (dtype, per-tick shape: state, measurement, input, flag or scalar)
TRACE_COLUMNS = {
    "t": ("<f8", ""), "x_true": ("<f8", "x"), "y_meas": ("<f8", "y"),
    "x_hat": ("<f8", "x"), "x_rf": ("<f8", "x"), "x_rec": ("<f8", "x"),
    "recovered": ("|b1", "x"), "u": ("<f8", "u"), "ads_flags": ("|b1", "f"),
    "ckpt_event": ("|b1", ""), "k1": ("<f8", ""), "rsee_bound": ("<f8", "x"),
    "ee_bound": ("<f8", "x"), "safe_stop": ("|b1", ""),
}


@pytest.mark.parametrize("overrides, rows", [
    (dict(seed=0, t_max=0.5), (41, 402, 401)),       # safe stop at 4.01 s
    (dict(seed=4, horizon=10.05), (101, 1005, 1005)),
    (dict(seed=3, ads=_GENERIC), (100, 1000, 1000)),
])
def test_trace_column_dtypes_and_shapes(overrides, rows):
    res = sim.run_scenario(cfgmod.build_case_study(**overrides))
    generic = "ads" in overrides
    for sid, n in zip(robot.LOOPS, rows):
        sn, mn, un = robot.LOOPS[sid]
        width = {"x": (len(sn),), "y": (len(mn),), "u": (len(un),),
                 "f": (1 if generic else len(mn),), "": ()}
        tr = res.traces[sid]
        assert sorted(tr) == sorted(TRACE_COLUMNS)
        for name, (dtype, per_tick) in TRACE_COLUMNS.items():
            assert (tr[name].dtype.str, tr[name].shape) == (
                dtype, (n, *width[per_tick])), name


# -- every-tick-checkpoint shadow ----------------------------------------


def _ads(mode, kind="specific", outer_threshold=0.0, inner_threshold=0.0):
    return {sid: {"kind": kind, "mode": mode, "detection_time": 0.25,
                  "threshold": outer_threshold if sid == robot.OUTER
                  else inner_threshold}
            for sid in robot.LOOPS}


SHADOW_CONFIGS = {
    "default": dict(seed=5),
    "coupled": dict(seed=3, plant_mode="coupled"),
    "generic": dict(seed=7, ads=_ads("oracle", kind="generic")),
    "residual-threshold": dict(seed=9, ads=_ads(
        "residual-threshold", outer_threshold=1.0, inner_threshold=1000.0)),
}


@pytest.mark.parametrize("name", sorted(SHADOW_CONFIGS))
def test_every_tick_shadow_equals_from_scratch_replay(name):
    """On every recovering tick the shadow equals a replay, through
    ``store.retrieve``, from the latest healthy tick that is older than the
    largest detection time at its episode's first tick; healthy ticks have
    no shadow."""
    cfg = cfgmod.build_case_study(**SHADOW_CONFIGS[name])
    res = sim.run_scenario(cfg)
    shadows = sim.every_tick_shadow(res)
    store = full_store(res)
    loops = cfgmod.build_system(cfg)
    models = {rt.model.id: rt.model for rt in loops}
    margin_us = to_us(max(rt.ads.detection_time for rt in loops))
    checked = 0
    for sid, tr in res.traces.items():
        t_us = np.round(tr["t"] * 1e6).astype(np.int64)
        healthy = ~tr["ads_flags"].any(axis=1)
        assert np.isnan(shadows[sid][healthy]).all()
        first = 0
        for k in np.flatnonzero(~healthy):
            if healthy[k - 1]:
                first = k                       # an episode starts
            j1 = np.flatnonzero(healthy[:first]
                                & (t_us[first] - t_us[:first] > margin_us))[-1]
            _, _, controls = store.retrieve(sid, tr["t"][j1], tr["t"][k])
            x = tr["x_rf"][j1].copy()
            for c in controls:
                x = models[sid].f(x, c.u)
            np.testing.assert_allclose(shadows[sid][k], x,
                                       rtol=1e-12, atol=1e-12)
            checked += 1
    assert checked > 100


def test_every_tick_shadow_reaches_past_a_short_healthy_gap(tmp_path):
    """Outer bursts in [1.25, 4.5) and [5.0, 6.0) with the largest detection
    time 1.0 s: the shadow of the second episode rolls forward from the
    healthy tick at 1.2 s, since 4.5-4.9 are too recent; the gap CSV has a
    row for each of its ticks."""
    cfg = cfgmod.build_case_study(seed=1, t_max=9.0)
    burst = cfg["anomalies"][robot.OUTER][0]
    cfg["anomalies"] = {
        robot.OUTER: [dict(burst, t_start=1.25, t_end=4.5),
                      dict(burst, t_start=5.0, t_end=6.0)],
        robot.INNER_1: [], robot.INNER_2: []}
    cfg["ads"] = {sid: {"detection_time": 0.0 if sid == robot.OUTER else 1.0}
                  for sid in robot.LOOPS}
    episode = [round(5.0 + 0.1 * i, 1) for i in range(10)]

    res = sim.run_scenario(cfg)
    tr = res.traces[robot.OUTER]
    shadow = sim.every_tick_shadow(res)[robot.OUTER]
    model = cfgmod.build_models(cfg)[1][robot.OUTER]
    _, _, controls = full_store(res).retrieve(robot.OUTER, 1.2, 5.9)
    x = tr["x_rf"][12]
    for k, c in enumerate(controls, start=13):
        x = model.f(x, c.u)
        if k >= 50:
            np.testing.assert_array_equal(shadow[k], x)
    np.testing.assert_array_equal(tr["t"][50:60], episode)
    assert not tr["ads_flags"][[12, 45, 46, 47, 48, 49]].any()
    assert tr["ads_flags"][[13, 44] + list(range(50, 60))].any(axis=1).all()

    path = tmp_path / "cfg.json"
    cfgmod.save_config(cfg, path)
    assert cli.main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "outer_gap.csv") as fh:
        rows = {float(r["t"]) for r in csv.DictReader(fh)}
    assert set(episode) <= rows


# -- config validation ---------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = cfgmod.default_config()
    path = tmp_path / "cfg.json"
    cfgmod.save_config(cfg, path)
    assert cfgmod.load_config(path) == cfg


def test_validate_returns_the_resolved_scenario():
    """A key left out takes the case study's value, but ``anomalies`` and
    ``bounds`` then hold none; ``noise`` merges key by key and ``ads`` loop
    by loop, a given entry whole.  The argument is left as it was."""
    default = cfgmod.default_config()
    empty = dict(default, anomalies={}, bounds={})
    assert cfgmod.validate_config({}) == empty
    assert cfgmod.validate_config(default) == default
    partial = {"noise": {"outer_q_std": 0.2},
               "ads": {robot.OUTER: {"kind": "generic"}}}
    given = json.loads(json.dumps(partial))
    assert cfgmod.validate_config(partial) == dict(
        empty, noise=dict(default["noise"], outer_q_std=0.2),
        ads=dict(default["ads"], outer={"kind": "generic"}))
    assert partial == given


def test_validate_rejects_unknown_key():
    cfg = cfgmod.build_case_study()
    cfg["tyop"] = 1
    with pytest.raises(ConfigError, match="unknown key"):
        cfgmod.validate_config(cfg)


def test_validate_rejects_bad_checkpoint_period():
    cfg = cfgmod.build_case_study(checkpoint_freq_hz=3.0)  # 1/3 s vs 0.1 s
    with pytest.raises(ConfigError, match="checkpoint period"):
        cfgmod.validate_config(cfg)


def test_validate_rejects_overlapping_anomalies():
    cfg = cfgmod.build_case_study()
    cfg["anomalies"]["outer"] = [
        {"t_start": 1.0, "t_end": 3.0, "y_a": [1, 0, 0], "gamma": [1, 0, 0]},
        {"t_start": 2.0, "t_end": 4.0, "y_a": [1, 0, 0], "gamma": [1, 0, 0]},
    ]
    with pytest.raises(ConfigError, match="outer"):
        cfgmod.validate_config(cfg)


def test_validate_collects_multiple_errors():
    cfg = cfgmod.build_case_study(horizon=-1.0, t_max=0.0)
    with pytest.raises(ConfigError) as exc_info:
        cfgmod.validate_config(cfg)
    msg = str(exc_info.value)
    assert "horizon" in msg and "t_max" in msg


@pytest.mark.parametrize("overrides, message", [
    ({"robot": {"bogus": 1}}, "robot: unknown key 'bogus'"),
    ({"robot": {"wheel_radius": "big"}}, "robot.wheel_radius"),
    ({"robot": {"wheel_radius": -1.0}}, "wheel_radius must be positive"),
    ({"robot": {"outer_rate": 0.0}}, "robot.outer_rate"),
    ({"horizon": "10"}, "horizon"),
    ({"horizon": float("inf")}, "horizon"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"checkpoint_freq_hz": 1e-310}, "checkpoint_freq_hz"),
    ({"t_max": None}, "t_max"),
    ({"out_dir": 3}, "out_dir"),
    ({"ads": {"outer": {"kind": "psychic"}}}, "ads.outer: kind"),
    ({"ads": {"outer": {"mode": "guess"}}}, "ads.outer: mode"),
    ({"ads": {"outer": {"detection_time": -0.25}}},
     "ads.outer: detection_time"),
    ({"ads": {"outer": {"detection_time": "soon"}}}, "detection_time"),
    ({"ads": {"outer": {"zeta": 2}}}, "ads.outer: unknown key 'zeta'"),
    ({"ads": {"middle": {}}}, "ads: unknown loop id 'middle'"),
    ({"anomalies": {"middle": []}}, "anomalies: unknown loop id 'middle'"),
    ({"anomalies": {"outer": [{"t_start": 1.0, "t_end": 2.0, "y_a": [5.0],
                               "gamma": [1, 1, 0]}]}},
     "anomalies.outer[0]: y_a must be a list of 3"),
    ({"anomalies": {"inner-1": [{"t_start": 1.0, "t_end": 2.0,
                                 "y_a": [5.0]}]}},
     "anomalies.inner-1[0]: missing 'gamma'"),
    ({"anomalies": {"inner-1": [{"t_start": 1.0, "t_end": 2.0, "y_a": [5.0],
                                 "gamma": [2]}]}}, "gamma"),
    ({"anomalies": {"outer": {}}}, "anomalies.outer must be a list"),
    ({"noise": {"outer_q_std": -0.1}}, "noise.outer_q_std"),
    ({"noise": {"bogus_std": 0.1}}, "noise: unknown key 'bogus_std'"),
    ({"init": {"outer": [0.0, 0.0]}}, "init.outer"),
    ({"bounds": []}, "bounds must be an object"),
    ({"noise": {"outer_r_std": 1e200}}, "noise.outer_r_std is too large"),
    ({"noise": {"inner_q_std": 1e160}}, "noise.inner_q_std is too large"),
    ({"noise": {"outer_q_std": 1.4e154}}, "noise.outer_q_std is too large"),
    ({"noise": {"inner_r_std": 10**200}}, "noise.inner_r_std is too large"),
])
def test_validate_rejects_bad_values(overrides, message):
    cfg = cfgmod.default_config()
    cfg.update(overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfgmod.validate_config(cfg)


@pytest.mark.parametrize("rate", ["outer_rate", "inner_rate"])
def test_validate_rejects_a_rate_off_the_microsecond_grid(rate):
    """A 128 Hz loop would tick every 7,812 µs while its model steps by
    7,812.5 µs; a rate whose period is a whole number of microseconds in
    floating point passes."""
    cfg = cfgmod.build_case_study(robot={rate: 128})
    with pytest.raises(ConfigError, match=re.escape(
            f"robot.{rate} 128 Hz has a period of 7812.5 microseconds")):
        cfgmod.validate_config(cfg)
    for ok, period_us in ((1e6 / 99_999, 99_999), (100 / 3, 30_000)):
        # a checkpoint period on the grid of both loops
        ckpt_us = math.lcm(period_us, 100_000)
        cfgmod.validate_config(cfgmod.build_case_study(
            robot={rate: ok}, checkpoint_freq_hz=1e6 / ckpt_us))


def test_validate_caps_the_trace_rows_per_loop():
    cap = f"cap of {cfgmod.MAX_TRACE_ROWS} trace rows"
    with pytest.raises(ConfigError, match=cap):
        cfgmod.validate_config(cfgmod.build_case_study(horizon=1e9))
    # the 100 Hz motor loops fill the cap exactly at 1e5 s, and pass it a
    # tick later
    cfgmod.validate_config(cfgmod.build_case_study(horizon=1e5))
    with pytest.raises(ConfigError, match=cap):
        cfgmod.validate_config(cfgmod.build_case_study(horizon=1e5 + 0.01))
    cfgmod.validate_config(cfgmod.default_config())
    cfgmod.validate_config(long_periodic_config())


def test_validate_builds_no_models(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("validate_config built a model")
    for name in ("bicycle_model", "dc_motor_model"):
        monkeypatch.setattr(robot, name, fail)
    cfg = cfgmod.default_config()
    cfg["bounds"] = {"inner-1": {"A_bar": [[1.0, 0.0], [0.0, 1.0]],
                                 "eps_delta": [0.1, 0.1],
                                 "eps_omega": [0.1, 0.1]}}
    cfgmod.validate_config(cfg)


@pytest.mark.parametrize("seed, gap", [(42, None), (7, None),
                                       (42, "coupled"), (42, "no level")],
                         ids=["42", "7", "coupled", "no-level"])
def test_config_validates_defaults_and_builds_the_loops_robot_lists(
        tmp_path, monkeypatch, seed, gap):
    """With ``inner-2`` left out of ``robot``'s description, the default
    config is valid, a run writes the other two loops' CSVs, and they equal
    the three-loop run's byte for byte: ``config`` reads the description
    when called, and a loop appended after the others changes none of
    their draws.  A gap in the description is named up front: coupled mode,
    whose outer plant reads ``inner-2``'s state, is rejected, and a loop in
    no level makes ``build_model`` raise."""
    if gap is None:
        full = sim.emit_csv(sim.run_scenario(
            cfgmod.build_case_study(seed=seed)), tmp_path / "full")
    monkeypatch.setattr(robot, "LOOPS", {sid: cols for sid, cols
                                         in robot.LOOPS.items()
                                         if sid != robot.INNER_2})
    monkeypatch.setattr(robot, "LEVELS", {"outer": (robot.OUTER,),
                                          "inner": (robot.INNER_1,)})
    cfg = cfgmod.default_config()
    if gap == "coupled":
        cfg["plant_mode"] = "coupled"
        with pytest.raises(ConfigError,
                           match=r"needs loop 'inner-2' in robot\.LOOPS"):
            cfgmod.validate_config(cfg)
        return
    if gap == "no level":
        resolved = cfgmod.validate_config(cfg)
        monkeypatch.setattr(robot, "LEVELS", {"outer": (robot.OUTER,)})
        with pytest.raises(ValueError, match=r"loop 'inner-1' is in no "
                           r"level of robot\.LEVELS"):
            cfgmod.build_system(resolved)
        return
    cfgmod.validate_config(cfg)
    cfg["seed"] = seed
    paths = sim.emit_csv(sim.run_scenario(cfg), tmp_path / "two")
    assert [Path(p).name for p in paths] == ["outer.csv", "inner-1.csv"]
    for got, want in zip(paths, full):
        assert Path(got).read_bytes() == Path(want).read_bytes(), got


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=4)),
    max_leaves=12)


@st.composite
def _near_default(draw, values):
    """The default config with one value, at any depth, replaced or added."""
    cfg = cfgmod.default_config()
    node = cfg
    while True:
        if isinstance(node, dict):
            # an empty section (robot, bounds) gets a loop id or a new key
            key = draw(st.sampled_from(sorted(node) or tuple(robot.LOOPS))
                       | st.text(max_size=5))
        else:
            key = draw(st.integers(0, len(node) - 1))
        child = node.get(key) if isinstance(node, dict) else node[key]
        if not isinstance(child, (dict, list)) or draw(st.booleans()):
            node[key] = draw(values)
            return cfg
        node = child


@settings(max_examples=300, deadline=None)
@given(cfg=st.dictionaries(
    st.sampled_from(sorted(cfgmod.default_config())) | st.text(max_size=5),
    _json, max_size=5) | _near_default(_json))
def test_validate_accepts_or_raises_config_error(cfg):
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(cfgmod.default_config()["noise"])),
       std=st.floats(min_value=0.0, allow_infinity=False)
       | st.integers(0, 2**1100))
@example(key="outer_r_std", std=math.sqrt(sys.float_info.max))
@example(key="outer_q_std", std=1e154)
@example(key="inner_q_std", std=10**154 * 13)
def test_a_noise_std_is_rejected_or_builds(key, std):
    """Each noise std is a nonnegative float or int: either validation
    rejects it, or the models build, with its square as the variance."""
    cfg = cfgmod.default_config()
    cfg["noise"][key] = std
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        return
    cfgmod.build_models(cfg)


@st.composite
def _mutated_default(draw):
    """The default config on a horizon of at most 1 s, with its detectors,
    first anomaly windows, checkpoint frequency, ``t_max`` and plant mode
    drawn."""
    cfg = cfgmod.default_config()
    cfg["seed"] = draw(st.integers(0, 1000))
    cfg["horizon"] = draw(st.integers(1, 100)) / 100
    # mostly periods of 0.1 s to 10 s on the outer loop's grid; otherwise
    # any frequency in 0.1-10 Hz, which validation mostly rejects
    cfg["checkpoint_freq_hz"] = (10 / draw(st.integers(1, 100))
                                 if draw(st.integers(0, 3))
                                 else draw(st.floats(0.1, 10.0)))
    cfg["t_max"] = draw(st.integers(1, 100).map(lambda k: k / 100)
                        | st.floats(0.001, 2.0))
    cfg["plant_mode"] = draw(st.sampled_from(["ideal", "coupled"]))
    for sid in robot.LOOPS:
        cfg["ads"][sid] = {
            "kind": draw(st.sampled_from(DETECTOR_KINDS)),
            "mode": draw(st.sampled_from(DETECTOR_MODES)),
            "detection_time": draw(st.integers(0, 50)) / 100,
            "threshold": draw(st.sampled_from([1.0, 1000.0])
                              | st.floats(0.0, 2000.0)),
        }
        if draw(st.booleans()):
            start = draw(st.integers(0, 20)) / 100
            windows = cfg["anomalies"][sid]
            windows[0] = dict(windows[0], t_start=start,
                              t_end=start + draw(st.integers(1, 80)) / 100)
    return cfg


_CUTTING = dict(cfgmod.default_config(), horizon=1.0, checkpoint_freq_hz=10.0,
                plant_mode="coupled")
_CUTTING["anomalies"] = dict(_CUTTING["anomalies"], outer=[dict(
    _CUTTING["anomalies"]["outer"][0], t_start=0.3, t_end=0.8)])


@settings(max_examples=30, deadline=None)
@given(cfg=_mutated_default())
# a coupled run that recovers and cuts its store, and one that safe-stops
# at 8.4 s on a residual-threshold episode past t_max
@example(cfg=_CUTTING)
@example(cfg=cfgmod.build_case_study(**SHADOW_CONFIGS["residual-threshold"]))
def test_accepted_config_runs_to_the_end_or_a_safe_stop(cfg):
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        return
    res = sim.run_scenario(cfg)
    if res.safe_stop:
        assert res.events[-1]["type"] == "safe-stop"
        return
    _, models = cfgmod.build_models(cfg)
    for sid, model in models.items():
        ticks = -(-to_us(cfg["horizon"]) // to_us(model.dt))
        assert len(res.traces[sid]["t"]) == ticks


def _replayed_shadows(res, store) -> dict:
    """Each loop's every-tick shadow replayed through ``store.retrieve``:
    on each tick of an episode the run recovered, the logged controls
    from the newest healthy tick older than the largest detection time at
    the episode's first tick, applied from that tick's final estimate."""
    margin_us = to_us(max(rt.ads.detection_time for rt in res.loops))
    shadows = {}
    for rt in res.loops:
        sid, tr = rt.model.id, res.traces[rt.model.id]
        t_us = [to_us(t) for t in tr["t"]]
        healthy = ~tr["ads_flags"].any(axis=1)
        shadow = shadows[sid] = np.full(tr["x_rf"].shape, np.nan)
        first = None
        for k in np.flatnonzero(~healthy):
            if k == 0 or healthy[k - 1]:
                first = k                       # an episode starts
            if np.isnan(tr["k1"][first]):       # it was not recovered
                continue
            j = max(j for j in range(first)
                    if healthy[j] and t_us[first] - t_us[j] > margin_us)
            _, _, controls = store.retrieve(sid, tr["t"][j], tr["t"][k])
            x = tr["x_rf"][j]
            for c in controls:
                x = rt.model.f(x, c.u)
            shadow[k] = x
    return shadows


@st.composite
def _cutting_default(draw):
    """A ``_mutated_default`` config over 1 to 3 s with a checkpoint every
    0.1 to 0.5 s and a ``t_max`` of 1 to 3 s, so that a run lasts past its
    first cuts more often.  Every loop's first window starts at 0.6 to
    0.8 s, later than any detection time, so that its detection finds a
    checkpoint to recover from, unless a residual-threshold detector
    flagged a loop before the first checkpoint."""
    cfg = draw(_mutated_default())
    cfg["horizon"] = draw(st.integers(100, 300)) / 100
    cfg["checkpoint_freq_hz"] = 10 / draw(st.integers(1, 5))
    cfg["t_max"] = draw(st.integers(100, 300).map(lambda k: k / 100)
                        | st.floats(1.0, 3.0))
    for windows in cfg["anomalies"].values():
        start = draw(st.integers(60, 80)) / 100
        windows[0] = dict(windows[0], t_start=start,
                          t_end=start + draw(st.integers(1, 80)) / 100)
    return cfg


@settings(max_examples=40, deadline=None)
@given(cfg=_cutting_default())
@example(cfg=_CUTTING)
def test_a_cut_store_holds_the_suffix_of_the_runs_logs(cfg):
    """On configs nobody chose, both plant modes and both detector modes,
    the run's store holds a suffix of every log its trace rebuilds
    (``full_store`` asserts it), and the every-tick shadow, which replays
    the trace's logged inputs, equals a replay through the rebuilt store's
    ``retrieve``, bit for bit."""
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        return
    res = sim.run_scenario(cfg)
    shadows = sim.every_tick_shadow(res)
    replayed = _replayed_shadows(res, full_store(res))
    for sid, shadow in shadows.items():
        np.testing.assert_array_equal(shadow, replayed[sid], err_msg=sid)


def _records(store) -> dict:
    """Each log of ``store`` by label: its dropped count, anchor, and the
    payloads and tags of the records it holds."""
    return {c.label: (c.dropped, c.anchor, c.anchor_t, c.payloads, c.tags)
            for c in [*store._checkpoints.values(), *store._controls.values()]}


def _run_outputs(cfg, out_dir) -> tuple:
    """A run's CSV bytes, its store's records, ``full_store``'s records and
    its every-tick shadow."""
    res = sim.run_scenario(cfg)
    csvs = [Path(p).read_bytes() for p in sim.emit_csv(res, out_dir)]
    return (csvs, _records(res.store), _records(full_store(res)),
            sim.every_tick_shadow(res))


@settings(max_examples=40, deadline=None)
@given(cfg=_cutting_default())
@example(cfg=_CUTTING)
@example(cfg=cfgmod.build_case_study(**CSV_CONFIGS["safe-stop"]))
def test_noise_block_boundaries_are_invisible(tmp_path_factory, cfg):
    """Blocks of 1, 7 or 64 rows, of noise, anomaly windows and CSV rows,
    give the run that the default block gives: the same CSV bytes, store
    records, rebuilt records and every-tick shadow, also on a coupled run
    that cuts its store and on one that safe-stops mid-way."""
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        return
    *want, want_shadows = _run_outputs(cfg, tmp_path_factory.mktemp("csv"))
    for block in (1, 7, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_BLOCK", block)
            *got, shadows = _run_outputs(cfg, tmp_path_factory.mktemp("csv"))
        assert got == want, block
        for sid, shadow in shadows.items():
            np.testing.assert_array_equal(shadow, want_shadows[sid],
                                          err_msg=f"{sid}, block {block}")


# horizons whose motor loops end 1 row short of a CSV block, on one, 1 row
# past one, and on two
_BLOCK_EDGES = [cfgmod.build_case_study(seed=5, horizon=rows / 100)
                for rows in (1023, 1024, 1025, 2048)]
# a motor burst over rows 1,000-1,175: an episode across the default block's
# edge
_ACROSS_AN_EDGE = cfgmod.build_case_study(seed=5, horizon=12.0, anomalies={
    sid: [dict(windows[0], t_start=10.0, t_end=11.75)] for sid, windows
    in cfgmod.default_config()["anomalies"].items() if sid == robot.INNER_1})
# the default block, and blocks of 1, 7 and 64 rows, in which a run holds
# fresh rows many times
_SMALL_BLOCKS = (None, 1, 7, 64)


@settings(max_examples=20, deadline=None)
@given(cfg=_cutting_default(), blocks=st.sampled_from([(None,), (7,), (64,)]))
@example(cfg=_BLOCK_EDGES[0], blocks=(None,))
@example(cfg=_BLOCK_EDGES[1], blocks=(None,))
@example(cfg=_BLOCK_EDGES[2], blocks=(None,))
@example(cfg=_BLOCK_EDGES[3], blocks=(None,))
@example(cfg=_ACROSS_AN_EDGE, blocks=(None,))
@example(cfg=cfgmod.build_case_study(**CSV_CONFIGS["safe-stop"]),
         blocks=_SMALL_BLOCKS)
@example(cfg=cfgmod.build_case_study(**CSV_CONFIGS["bounds"]),
         blocks=_SMALL_BLOCKS)
@example(cfg=cfgmod.build_case_study(**CSV_CONFIGS["generic"]),
         blocks=(None,))
@example(cfg=cfgmod.build_case_study(**CSV_CONFIGS["coupled"]),
         blocks=_SMALL_BLOCKS)
@example(cfg=cfgmod.build_case_study(**SHADOW_CONFIGS["residual-threshold"],
                                     horizon=4.0), blocks=(None, 64))
def test_streamed_csvs_equal_emit_csv(tmp_path_factory, cfg, blocks):
    """``cpsrecover run``, whose writer process formats each block while
    the run goes on, writes the bytes ``emit_csv`` writes after the run,
    and nothing else: around block edges, on an episode across one, on a
    run that stops mid-block, with a dense ``rsee_bound``, a generic
    detector, a coupled plant and ticks that flag themselves.  With a
    ``sim._BLOCK`` of ``blocks`` (None: the default), the blocks the run
    hands over, kept as they are handed, every column and the logged
    inputs, make up the whole run's traces: each block has rows of its own,
    which share no memory with another block's, and the run never writes
    them again."""
    try:
        cfgmod.validate_config(cfg)
    except ConfigError:
        return
    out = tmp_path_factory.mktemp("stream")
    path = out / "scenario.json"
    cfgmod.save_config(cfg, path)
    res = sim.run_scenario(cfg)
    want = {Path(p).name: Path(p).read_bytes()
            for p in sim.emit_csv(res, out / "emit")}
    on_block = sim.CsvStream.on_block
    for block in blocks:
        held = {rt.model.id: [] for rt in res.loops}

        def keep(stream, i, rt):
            rows = rt.rows - rt.lo
            held[rt.model.id].append(
                {name: col[:rows] for name, col
                 in dict(rt.trace, logged_u=rt.logged_u).items()})
            on_block(stream, i, rt)

        run = out / f"run-{block}"
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(sim, "_BLOCK", block)
            mp.setattr(sim.CsvStream, "on_block", keep)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(path), "--out-dir", str(run)])
        assert code == (3 if res.safe_stop else 0)
        assert {p.name: p.read_bytes() for p in run.iterdir()} == want, block
        for rt in res.loops:
            tr = dict(res.traces[rt.model.id], logged_u=rt.logged_u[:rt.rows])
            kept = held[rt.model.id]
            for name, col in tr.items():
                np.testing.assert_array_equal(np.concatenate(
                    [col[:0]] + [b[name] for b in kept]),
                    col, err_msg=f"{rt.model.id} {name}, block {block}")
                # a column no tick writes is one shared read-only row; the
                # others' blocks are contiguous, so a block that shares
                # memory with another shares it with the next by address
                own = sorted((b[name] for b in kept
                              if b[name].flags.writeable),
                             key=lambda a: a.ctypes.data)
                assert not any(np.shares_memory(a, b)
                               for a, b in zip(own, own[1:])), (
                    rt.model.id, name, block)
