import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsrecover import config as cfgmod
from cpsrecover import cli, estimator, robot, sim
from cpsrecover.anomaly import DETECTOR_KINDS, DETECTOR_MODES
from cpsrecover.config import ConfigError
from cpsrecover.timebase import to_s, to_us

PINNED_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / \
    "pinned_digests.json"


def test_determinism_byte_identical_csv(tmp_path):
    cfg = cfgmod.build_case_study(seed=42)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    sim.emit_csv(sim.run_scenario(cfg), out_a)
    sim.emit_csv(sim.run_scenario(cfg), out_b)
    for sid in cfgmod.SUBSYSTEMS:
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
        for sid in cfgmod.SUBSYSTEMS}


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


def test_long_periodic_csvs_match_pinned_digests(tmp_path):
    """The 160 s case with a 1.75 s burst every 5 s on every loop, built as
    the benchmark's long-periodic workload builds it; its motor loops spend
    most steps reading their gain table's fixed point."""
    pinned = json.loads(PINNED_DIGESTS.read_text())["long-periodic"]
    cfg = cfgmod.default_config()
    cfg["seed"], cfg["horizon"] = 1, 160.0
    n = int((160.0 - 3.25 - 1.75) // 5.0) + 1
    for sid, (first, second) in cfg["anomalies"].items():
        cfg["anomalies"][sid] = [
            dict(first if i % 2 == 0 else second,
                 t_start=3.25 + 5.0 * i, t_end=3.25 + 5.0 * i + 1.75)
            for i in range(n)]
    sim.emit_csv(sim.run_scenario(cfg), tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


def test_result_keeps_its_own_config():
    """Editing the caller's config after the run changes nothing the result
    computes from its config."""
    cfg = cfgmod.build_case_study(seed=3)
    res = sim.run_scenario(cfg)
    shadow = sim.every_tick_shadow(res)[robot.OUTER]
    cfg["ads"][robot.OUTER]["detection_time"] = 1.0
    np.testing.assert_array_equal(sim.every_tick_shadow(res)[robot.OUTER],
                                  shadow)
    assert res.config is not cfg


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
    for sid in cfgmod.SUBSYSTEMS:
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
    for sid in cfgmod.SUBSYSTEMS:
        with open(tmp_path / f"{sid}.csv") as fh:
            rows = list(csv.DictReader(fh))
        event_ts = [float(r["t"]) for r in rows if r["ckpt_event"] == "1"]
        assert event_ts == case_result.store.save_times(sid)


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
    for sid in cfgmod.SUBSYSTEMS:
        assert case_result.store.save_times(sid) == \
            [0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("mu", [1.0, 10.0])
def test_healthy_loops_save_on_every_checkpoint_period(mu):
    # every loop gets the same checkpoint Boolean on each base tick
    horizon = 2.5
    cfg = cfgmod.build_case_study(
        seed=0, horizon=horizon, checkpoint_freq_hz=mu,
        anomalies={sid: [] for sid in cfgmod.SUBSYSTEMS})
    res = sim.run_scenario(cfg)
    period_us = to_us(1.0 / mu)
    want = [to_s(k * period_us)
            for k in range(-(-to_us(horizon) // period_us))]
    for sid in cfgmod.SUBSYSTEMS:
        assert res.store.save_times(sid) == want


def test_recovery_window_timing(case_result):
    tr = case_result.traces["outer"]
    det = tr["recovered"].any(axis=1)
    ts = tr["t"][det]
    assert ts.min() == pytest.approx(3.5)
    assert np.all(((ts >= 3.5) & (ts < 5.0)) | ((ts >= 8.5) & (ts < 10.0)))


def test_rng_streams_independent_of_other_subsystems():
    rngs_a = sim.make_rngs(7)
    rngs_b = sim.make_rngs(7)
    for key in rngs_a:
        np.testing.assert_array_equal(rngs_a[key].standard_normal(8),
                                      rngs_b[key].standard_normal(8))
    # different kinds draw from different streams
    rngs = sim.make_rngs(7)
    a = rngs[("outer", "process")].standard_normal(8)
    b = rngs[("outer", "measurement")].standard_normal(8)
    assert not np.allclose(a, b)


def test_coupled_plant_mode_runs():
    cfg = cfgmod.build_case_study(seed=3, plant_mode="coupled")
    res = sim.run_scenario(cfg)
    assert len(res.traces["outer"]["t"]) == 100
    # the outer input column logs the reconstructed wheel velocity
    assert np.all(np.isfinite(res.traces["outer"]["x_true"]))


def test_safe_stop_truncates_trace():
    cfg = cfgmod.build_case_study(seed=0, t_max=0.5)
    res = sim.run_scenario(cfg)
    assert res.safe_stop
    assert res.events and res.events[0]["type"] == "safe-stop"
    # first episode is detected at 3.5 and exceeds 0.5 s tolerable duration
    stop_t = res.events[0]["t"]
    assert 3.5 < stop_t < 5.0
    for sid in cfgmod.SUBSYSTEMS:
        assert res.traces[sid]["t"].max() <= stop_t


# -- trace columns and CSV writer ----------------------------------------

_OUTER_BOUNDS = {"A_bar": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]],
                 "eps_delta": [0.3, 0.3, 0.3], "eps_omega": [0.6, 0.6, 0.6],
                 "phi_bar": [0.1, 0.1, 0.0], "E_max": [50.0, 50.0, 50.0]}
_GENERIC = {sid: {"kind": "generic"} for sid in cfgmod.SUBSYSTEMS}

CSV_CONFIGS = {
    "generic": dict(seed=3, ads=_GENERIC),
    "bounds": dict(seed=2, bounds={robot.OUTER: _OUTER_BOUNDS}),
    "coupled": dict(seed=3, plant_mode="coupled"),
    "safe-stop": dict(seed=0, t_max=0.5),
}


def _per_value_rows(tr) -> str:
    """The rows of a trace CSV, one ``sim._fmt`` call per field."""
    lines = []
    for k in range(len(tr["t"])):
        recovering = bool(np.any(tr["recovered"][k]))
        row = [sim._fmt(tr["t"][k])]
        row += [sim._fmt(v) for v in tr["x_true"][k]]
        row += [sim._fmt(v) for v in tr["y_meas"][k]]
        row += [sim._fmt(v) for v in tr["x_hat"][k]]
        row += [sim._fmt(v) if recovering else "" for v in tr["x_rf"][k]]
        row += [sim._fmt(int(v)) for v in tr["recovered"][k]]
        row += [sim._fmt(v) for v in tr["u"][k]]
        row += [sim._fmt(int(v)) for v in tr["ads_flags"][k]]
        row += [sim._fmt(bool(tr["ckpt_event"][k]))]
        row += [sim._fmt(v) for v in tr["rsee_bound"][k]]
        row += [sim._fmt(v) for v in tr["ee_bound"][k]]
        row += [sim._fmt(bool(tr["safe_stop"][k]))]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def _synthetic_trace(rows: int) -> dict:
    """A trace of random values, a fifth of its floats NaN, +-inf, signed
    zeros or extremes, with a generic detector's one flag column."""
    rng = np.random.default_rng(23)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, 0.1, -1e-300]

    def floats(*width):
        a = rng.standard_normal((rows, *width)) * 10.0 ** rng.integers(
            -12, 13, (rows, *width))
        pick = rng.random(a.shape) < 0.2
        a[pick] = rng.choice(special, int(pick.sum()))
        return a

    return {"t": floats(), "x_true": floats(3), "y_meas": floats(3),
            "x_hat": floats(3), "x_rf": floats(3), "x_rec": floats(3),
            "recovered": rng.random((rows, 3)) < 0.3, "u": floats(2),
            "ads_flags": rng.integers(0, 2, (rows, 1)),
            "ckpt_event": rng.random(rows) < 0.1, "k1": floats(),
            "rsee_bound": floats(3), "ee_bound": floats(3),
            "safe_stop": rng.random(rows) < 0.05}


@pytest.mark.parametrize("name", ["default", *CSV_CONFIGS, "synthetic"])
def test_emit_csv_equals_per_value_writer(tmp_path, case_result, name):
    """The column-wise writer writes the bytes the per-value writer
    would, across several row blocks on the synthetic trace."""
    if name == "default":
        res = case_result
    elif name == "synthetic":
        res = sim.SimResult({robot.OUTER: _synthetic_trace(2500)}, None, [],
                            False, {})
    else:
        res = sim.run_scenario(cfgmod.build_case_study(**CSV_CONFIGS[name]))
    for path in sim.emit_csv(res, tmp_path):
        sid = path.rsplit("/", 1)[-1][:-len(".csv")]
        with open(path, newline="") as fh:
            fh.readline()
            assert fh.read() == _per_value_rows(res.traces[sid])


@pytest.mark.parametrize("name", ["default", "generic"])
def test_csv_rows_have_as_many_fields_as_the_header(tmp_path, name):
    """A generic detector's single flag has a single ``ads_flag`` column."""
    cfg = cfgmod.build_case_study(**CSV_CONFIGS.get(name, dict(seed=3)))
    sim.emit_csv(sim.run_scenario(cfg), tmp_path)
    for sid in cfgmod.SUBSYSTEMS:
        with open(tmp_path / f"{sid}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(r) == len(header) for r in rows)
        flags = [c for c in header if c.startswith("ads_flag")]
        if name == "generic" and sid == robot.OUTER:
            assert flags == ["ads_flag"]
        else:
            assert flags == [f"ads_flag_{c}" for c in sim.MEAS_NAMES[sid]]


# name: (dtype, per-tick shape: state, measurement, input, flag or scalar)
TRACE_COLUMNS = {
    "t": ("<f8", ""), "x_true": ("<f8", "x"), "y_meas": ("<f8", "y"),
    "x_hat": ("<f8", "x"), "x_rf": ("<f8", "x"), "x_rec": ("<f8", "x"),
    "recovered": ("|b1", "x"), "u": ("<f8", "u"), "ads_flags": ("<i8", "f"),
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
    for sid, n in zip(cfgmod.SUBSYSTEMS, rows):
        n_x, n_y = robot.DIMS[sid]
        width = {"x": (n_x,), "y": (n_y,), "u": (len(sim.INPUT_NAMES[sid]),),
                 "f": (1 if generic else n_y,), "": ()}
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
            for sid in cfgmod.SUBSYSTEMS}


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
    _, models = cfgmod.build_models(cfg)
    margin_us = to_us(max(a.detection_time
                          for a in cfgmod.build_ads(cfg).values()))
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
            _, _, controls = res.store.retrieve(sid, tr["t"][j1], tr["t"][k])
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
                  for sid in cfgmod.SUBSYSTEMS}
    episode = [round(5.0 + 0.1 * i, 1) for i in range(10)]

    res = sim.run_scenario(cfg)
    tr = res.traces[robot.OUTER]
    shadow = sim.every_tick_shadow(res)[robot.OUTER]
    model = cfgmod.build_models(cfg)[1][robot.OUTER]
    _, _, controls = res.store.retrieve(robot.OUTER, 1.2, 5.9)
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
])
def test_validate_rejects_bad_values(overrides, message):
    cfg = cfgmod.default_config()
    cfg.update(overrides)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfgmod.validate_config(cfg)


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
            key = draw(st.sampled_from(sorted(node) or cfgmod.SUBSYSTEMS)
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
    for sid in cfgmod.SUBSYSTEMS:
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


@settings(max_examples=30, deadline=None)
@given(cfg=_mutated_default())
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
