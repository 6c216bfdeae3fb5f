import csv
import hashlib
import json
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cpsrecover import _csvwriter, cli, robot, sim
from cpsrecover import config as cfgmod
from helpers import (MID_RUN_EDITS, UNRECOVERABLE, long_periodic_config,
                     tamper_after_append)


def write_cfg(tmp_path, **overrides):
    cfg = cfgmod.build_case_study(**overrides)
    path = tmp_path / "scenario.json"
    cfgmod.save_config(cfg, path)
    return str(path)


def test_run_happy_path(tmp_path, capsys):
    path = write_cfg(tmp_path, out_dir=str(tmp_path))
    code = cli.main(["run", path, "--seed", "42"])
    assert code == 0
    for sid in robot.LOOPS:
        assert (tmp_path / f"{sid}.csv").exists()


def test_run_invalid_config_exit_1(tmp_path, capsys):
    path = write_cfg(tmp_path, checkpoint_freq_hz=3.0)
    code = cli.main(["run", path])
    assert code == 1
    assert "checkpoint period" in capsys.readouterr().err


def test_run_rejects_a_horizon_past_the_row_cap(tmp_path, capsys):
    path = write_cfg(tmp_path, horizon=1e9, out_dir=str(tmp_path))
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert f"cap of {cfgmod.MAX_TRACE_ROWS} trace rows" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_run_rejects_a_rate_off_the_microsecond_grid(tmp_path, capsys):
    path = write_cfg(tmp_path, robot={"inner_rate": 128},
                     out_dir=str(tmp_path))
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "robot.inner_rate 128 Hz has a period of 7812.5 microseconds" in err
    assert not list(tmp_path.glob("*.csv"))


def test_run_rejects_a_noise_std_whose_variance_overflows(tmp_path, capsys):
    """1e200 squared overflows a float: the run is refused up front, with
    every other problem of the config listed beside it."""
    path = write_cfg(tmp_path, noise={"outer_r_std": 1e200}, t_max=0.0,
                     out_dir=str(tmp_path))
    assert cli.main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ")
    assert "noise.outer_r_std is too large" in err and "t_max" in err
    assert not list(tmp_path.glob("*.csv"))


def test_run_missing_file_exit_1(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 1


def test_run_safe_stop_exit_3(tmp_path):
    # a 1.75 s anomaly with t_max=0.1 forces a safe stop mid-run
    path = write_cfg(
        tmp_path, out_dir=str(tmp_path), t_max=0.1,
        anomalies={
            "outer": [{"t_start": 3.25, "t_end": 5.0, "y_a": [5.0, 5.0, 0.0],
                       "gamma": [1, 1, 0]}],
            "inner-1": [], "inner-2": []})
    code = cli.main(["run", path])
    assert code == 3
    with open(tmp_path / "outer.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) < 100                       # truncated at the stop
    assert rows[-1]["safe_stop"] == "1"
    assert float(rows[-1]["t"]) > 3.5


@pytest.mark.parametrize("where", sorted(MID_RUN_EDITS))
def test_a_store_edited_mid_run_exits_2_and_writes_no_csv(
        tmp_path, capsys, monkeypatch, where):
    """``run`` exits 2 on a store that fails its check mid-run, whether a
    cut or a recovery finds it, and leaves no CSV and no ``.part`` file."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, out_dir=str(out))
    tamper_after_append(monkeypatch, *MID_RUN_EDITS[where])
    assert cli.main(["run", path, "--seed", "42"]) == 2
    assert "error: store integrity check failed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["run", "compare", "checkpoints"])
def test_an_unrecoverable_stop_exits_3(tmp_path, capsys, command):
    """A run whose first inner-1 tick finds no checkpoint exits 3 from
    every simulating command and writes what it has: the trace ends on
    that tick's safe-stop row, no gap row and no checkpoint use."""
    path = write_cfg(tmp_path, out_dir=str(tmp_path), **UNRECOVERABLE)
    assert cli.main([command, path]) == 3
    out = capsys.readouterr().out
    if command == "run":
        assert any(line.startswith("event: ") and "unrecoverable: " in line
                   for line in out.splitlines())
        with open(tmp_path / "inner-1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["t"] == "0.0" and row["safe_stop"] == "1"
        assert row["ads_flag_w"] == "1" and row["u_V"] == ""
        assert row["x_rf_i"] == row["x_rf_w"] == ""
        assert row["recovered_mask_i"] == row["recovered_mask_w"] == "0"
        assert row["x_hat_w"] != ""
    elif command == "compare":
        with open(tmp_path / "inner-1_gap.csv") as fh:
            assert len(fh.readlines()) == 1      # the header alone
    else:
        with open(tmp_path / "checkpoints.csv") as fh:
            assert not any(r["event"] == "used" for r in csv.DictReader(fh))


def test_print_default(capsys):
    code = cli.main(["run", "--print-default"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == cfgmod.default_config()


def test_bounds_subcommand(tmp_path):
    cfg = cfgmod.build_case_study(out_dir=str(tmp_path))
    cfg["bounds"] = {
        "outer": {"A_bar": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]],
                  "eps_delta": [0.3, 0.3, 0.3], "eps_omega": [0.6, 0.6, 0.6],
                  "phi_bar": [0.1, 0.1, 0.0], "E_max": [50.0, 50.0, 50.0]}}
    path = tmp_path / "scenario.json"
    cfgmod.save_config(cfg, path)
    assert cli.main(["bounds", str(path)]) == 0
    report = json.loads((tmp_path / "bounds.json").read_text())
    entry = report["outer"]
    assert entry["max_tolerable_duration"] > 0
    assert np.all(np.asarray(entry["bound_at_t_max"]) <= 50.0)
    assert np.any(np.asarray(entry["bound_past_t_max"]) > 50.0)
    assert len(entry["ee_bound"]) == 3


def test_bounds_anchor_at_the_earliest_window(tmp_path):
    """Windows may be listed in any order; ``bounds`` anchors at the one
    that starts first, as the schedule does.  The bounds depend on how far
    the start lies past the checkpoint before it, so the later window
    starts 0.5 s past one and the earliest 0.25 s."""
    written = []
    for order in ("listed", "reversed"):
        out = tmp_path / order
        cfg = cfgmod.build_case_study(out_dir=str(out))
        cfg["bounds"] = {"outer": dict(_OUTER_BOUNDS, E_max=[50.0] * 3)}
        windows = cfg["anomalies"]["outer"]
        windows[1]["t_start"] = 8.5
        if order == "reversed":
            windows.reverse()
        path = tmp_path / f"{order}.json"
        cfgmod.save_config(cfg, path)
        assert cli.main(["bounds", str(path)]) == 0
        written.append((out / "bounds.json").read_bytes())
    assert written[0] == written[1]


def test_bounds_without_params_fails(tmp_path):
    path = write_cfg(tmp_path, out_dir=str(tmp_path))
    assert cli.main(["bounds", path]) == 1


def test_checkpoints_subcommand(tmp_path):
    path = write_cfg(tmp_path, out_dir=str(tmp_path))
    assert cli.main(["checkpoints", path]) == 0
    with open(tmp_path / "checkpoints.csv") as fh:
        rows = list(csv.DictReader(fh))
    created = {(r["subsystem"], float(r["t"])) for r in rows
               if r["event"] == "created"}
    used = [r for r in rows if r["event"] == "used"]
    assert used, "case study must exercise recovery"
    for r in used:
        ckpt_t = float(r["checkpoint_t"])
        assert (r["subsystem"], ckpt_t) in created
        # the used checkpoint predates the detection window
        assert float(r["t"]) - ckpt_t > 0.25


def test_compare_subcommand(tmp_path):
    path = write_cfg(tmp_path, out_dir=str(tmp_path))
    assert cli.main(["compare", path]) == 0
    with open(tmp_path / "outer_gap.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert "gap_0" in rows[0] and "gap_bound_0" in rows[0]


def test_plant_mode_override(tmp_path):
    path = write_cfg(tmp_path, out_dir=str(tmp_path))
    assert cli.main(["run", path, "--plant-mode", "coupled"]) == 0


_OUTER_BOUNDS = {"A_bar": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]],
                 "eps_delta": [0.3, 0.3, 0.3], "eps_omega": [0.6, 0.6, 0.6]}


@pytest.mark.parametrize("bounds, message", [
    # a 2-state bound set for the 3-state outer loop
    ({"outer": {"A_bar": [[1.0, 0.0], [0.0, 1.0]], "eps_delta": [0.3, 0.3],
                "eps_omega": [0.6, 0.6]}}, "A_bar must be a 3 x 3"),
    ({"outer": dict(_OUTER_BOUNDS, E_max=[1.0, 1.0])}, "E_max must be a list of 3"),
    ({"middle": _OUTER_BOUNDS}, "unknown loop id 'middle'"),
    ({"outer": {k: v for k, v in _OUTER_BOUNDS.items() if k != "eps_delta"}},
     "missing 'eps_delta'"),
    ({"outer": dict(_OUTER_BOUNDS, eps_omega=[0.6, -0.1, 0.6])},
     "eps_omega must be a list of 3 finite nonnegative"),
    ({"outer": dict(_OUTER_BOUNDS, phi_bar=[0.1, float("nan"), 0.0])},
     "phi_bar must be"),
    ({"outer": dict(_OUTER_BOUNDS, delta_s=-1.0)}, "unknown key 'delta_s'"),
    ({"outer": dict(_OUTER_BOUNDS, q_indices=[0])}, "unknown key 'q_indices'"),
])
@pytest.mark.parametrize("command", ["run", "bounds"])
def test_bad_bounds_section_rejected_up_front(tmp_path, capsys, command,
                                              bounds, message):
    path = write_cfg(tmp_path, out_dir=str(tmp_path), bounds=bounds)
    assert cli.main([command, path]) == 1
    err = capsys.readouterr().err
    assert "invalid configuration" in err and message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["run", "bounds", "compare"])
def test_bounds_need_anomalies_after_time_zero(tmp_path, capsys, command):
    cfg = cfgmod.build_case_study(out_dir=str(tmp_path),
                                  bounds={"outer": _OUTER_BOUNDS})
    cfg["anomalies"]["outer"][0]["t_start"] = 0.0
    path = tmp_path / "scenario.json"
    cfgmod.save_config(cfg, path)
    assert cli.main([command, str(path)]) == 1
    assert "bounds.outer: every anomaly window" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '"run"', "{", "\xff"])
def test_malformed_config_file_exit_1(tmp_path, capsys, text):
    path = tmp_path / "scenario.json"
    path.write_bytes(text.encode("latin-1"))
    assert cli.main(["run", str(path)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


# CI's outer bounds section
_CI_OUTER_BOUNDS = {"A_bar": [[1, 0, 0.1], [0, 1, 0.1], [0, 0, 1]],
                    "eps_delta": [0.5, 0.5, 0.1],
                    "eps_omega": [0.05, 0.05, 0.05], "E_max": [5, 5, 1]}

# sha256 of each file `compare` and `checkpoints` write, pinned with
# Python 3.11.7 and numpy 2.4.6; a loop without bounds has the same gap
# table either way
_GAP_DIGESTS = {
    "inner-1_gap.csv": "f453aaae46ad9917580612d8e14d34dc74959074e43348a20b4637232e07758c",
    "inner-2_gap.csv": "1c882c3d1e0fe49ebd43c0f02e7d67460201bddba081266c1d2f993124b30fcf",
    "checkpoints.csv": "a58fa6024d11e9aaab5f9b56a5019bf82c0263abd98fe780b2df332de5f08455",
}
PINNED_TABLES = {
    "default": dict(_GAP_DIGESTS, **{
        "outer_gap.csv": "45b6b7ee678d91edcefdd41d20715f695684e5489267bd3ffec94a7d169f4c79"}),
    "bounded": dict(_GAP_DIGESTS, **{
        "outer_gap.csv": "82040c7a53545df52b2e548252ee09b759a2f01a6e05c7db145ec652cf151903"}),
    "periodic": {
        "inner-1_gap.csv": "4bc06153d1e649ec2d6cb79e172b57d2348339661e07decd76ade2910d3c8508",
        "inner-2_gap.csv": "23aa18b00b57d9c414983faf5a1963125d8d7d82cf51192f17c903429a22bc8c",
        "outer_gap.csv": "0e0e26cb48ce0718ccefce73bcee320968bf97cdf6cbaf927be8e26660454d5b",
        "checkpoints.csv": "8a42821d5565c809a24acc212b3c1592472cda818889ee2a6afb882d9bb6a20e"},
    "onset": {
        "inner-1_gap.csv": "fe585e42d518ef459904ec149d70148db9b8ac5d3075aee6bc0e8745885e3586",
        "inner-2_gap.csv": "71490b833b1f1041423bd5d6af70758dddd60bb46eb75d6183a9019d7ad76d3a",
        "outer_gap.csv": "6565519ab1ab263898acbd19b4858dad265a36fa5c593cf8eb309f0a52ee128e",
        "checkpoints.csv": "7dd934eac6c490bb05cea4059c4d3c26f4bd10117dd5fc3a771832283dd0fa54"},
}
_MOTOR_BOUNDS = {"A_bar": [[1.0, 0.0], [0.0, 1.0]], "eps_delta": [0.1, 0.1],
                 "eps_omega": [0.1, 0.1]}


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_compare_and_checkpoints_tables_are_pinned(tmp_path, name):
    """The seed-42 default; the same with CI's outer bounds section; the
    60 s periodic schedule with bounds on inner-1, whose 1,800 recovering
    ticks each anchor their gap bound at one of 12 windows; and the seed-42
    default with every detection time 0 and bounds on inner-1, whose first
    recovering tick of each episode, 3.25 s and 8.25 s, is its window's
    start."""
    if name == "periodic":
        cfg = long_periodic_config(60.0)
        cfg["bounds"] = {"inner-1": _MOTOR_BOUNDS}
    elif name == "onset":
        cfg = cfgmod.build_case_study(seed=42,
                                      bounds={"inner-1": _MOTOR_BOUNDS})
        for spec in cfg["ads"].values():
            spec["detection_time"] = 0.0
    else:
        cfg = cfgmod.build_case_study(
            seed=42, bounds={"outer": _CI_OUTER_BOUNDS} if name == "bounded"
            else {})
    cfg["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "scenario.json"
    cfgmod.save_config(cfg, path)
    assert cli.main(["compare", str(path)]) == 0
    assert cli.main(["checkpoints", str(path)]) == 0
    assert {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
            for f in PINNED_TABLES[name]} == PINNED_TABLES[name]


@pytest.mark.parametrize("command", ["run", "compare", "checkpoints",
                                     "bounds"])
def test_a_command_validates_its_scenario_once(tmp_path, monkeypatch,
                                               command):
    path = write_cfg(tmp_path, out_dir=str(tmp_path),
                     bounds={"outer": _CI_OUTER_BOUNDS})
    calls = []
    validate = cfgmod.validate_config
    monkeypatch.setattr(cfgmod, "validate_config",
                        lambda cfg: calls.append(1) or validate(cfg))
    assert cli.main([command, path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "compare", "checkpoints",
                                     "bounds"])
def test_an_out_dir_that_cannot_be_made_is_refused_up_front(
        tmp_path, monkeypatch, capsys, command):
    """An ``--out-dir`` below a regular file fails before any simulation,
    as an invalid configuration."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_cfg(tmp_path, bounds={"outer": _CI_OUTER_BOUNDS})

    def refuse(*args, **kwargs):
        raise AssertionError("the scenario was simulated")

    monkeypatch.setattr(sim, "run_loops", refuse)
    assert cli.main([command, path, "--out-dir", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("invalid configuration: ")


def test_checkpoints_escapes_percent_in_a_loop_id(tmp_path):
    trace = {"t": np.array([0.0, 0.5, 1.0]),
             "ckpt_event": np.array([True, False, True]),
             "recovered": np.array([[False], [True], [True]]),
             "k1": np.array([np.nan, 0.0, 0.0])}
    result = SimpleNamespace(traces={"50%d": trace})
    cli._cmd_checkpoints(result, str(tmp_path))
    assert (tmp_path / "checkpoints.csv").read_text() == (
        "subsystem,t,event,checkpoint_t\n"
        "50%d,0.0,created,0.0\n50%d,0.5,used,0.0\n"
        "50%d,1.0,created,1.0\n50%d,1.0,used,0.0\n")


_OUTER_STATES = ("x", "y", "theta")
# |A_bar|^n overflows a float after two steps on the first state
_OVERFLOWING_BOUNDS = {"A_bar": [[1e200, 0, 0], [0, 1, 0], [0, 0, 1]],
                       "eps_delta": [1, 1, 1], "eps_omega": [1, 1, 1]}


def test_an_overflowing_bound_is_written_inf(tmp_path):
    """An overflowed recovered-error bound is +inf, never NaN, and raises
    no warning (warnings fail a test): no recovering row has a blank
    bound field."""
    path = write_cfg(tmp_path, out_dir=str(tmp_path),
                     bounds={"outer": _OVERFLOWING_BOUNDS})
    assert cli.main(["run", path]) == 0
    with open(tmp_path / "outer.csv") as fh:
        rows = [r for r in csv.DictReader(fh)
                if any(r[f"recovered_mask_{c}"] == "1" for c in _OUTER_STATES)]
    assert rows
    fields = [r[f"rsee_bound_{c}"] for r in rows for c in _OUTER_STATES]
    assert all(fields) and "inf" in fields


def test_bounds_json_writes_an_overflowed_bound_as_null(tmp_path):
    """``bounds.json`` is RFC 8259 JSON: no NaN or Infinity constants."""
    path = write_cfg(tmp_path, out_dir=str(tmp_path), bounds={
        "outer": dict(_OVERFLOWING_BOUNDS, E_max=[1e300, 5, 5])})
    assert cli.main(["bounds", path]) == 0

    def refuse(name):
        raise AssertionError(f"bounds.json holds {name}")

    entry = json.loads((tmp_path / "bounds.json").read_text(),
                       parse_constant=refuse)["outer"]
    assert None in entry["bound_past_t_max"]
    assert None in entry["gap_bound_half_second_in"]


def _outer_controller_raises(monkeypatch, exc, at: float = 12.0) -> None:
    """Each built system's outer controller raises ``exc`` from ``at`` s."""
    build = cfgmod.build_system

    def build_failing(cfg):
        loops = build(cfg)
        control = loops[0].controller

        def failing(x_hat, t):
            if t >= at:
                raise exc
            return control(x_hat, t)

        loops[0].controller = failing
        return loops

    monkeypatch.setattr(cfgmod, "build_system", build_failing)


@pytest.mark.parametrize("case", ["finishes", "safe-stop", "raises",
                                  "interrupted", "unwritable", "no-part"])
def test_a_run_leaves_no_writer_behind(tmp_path, monkeypatch, capsys, case):
    """A 20 s ``run`` that finishes, safe-stops, raises at 12 s (after the
    motor loops' first blocks), is interrupted there, cannot rename to
    ``inner-1.csv`` or cannot open ``outer.csv.part`` has reaped its
    writer process and left no thread when ``cli.main`` returns or
    raises, and leaves no ``.part`` file; one that fails part-way leaves
    no CSV at all."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, horizon=20.0, out_dir=str(out),
                     **({"t_max": 0.5} if case == "safe-stop" else {}))
    if case == "raises":
        _outer_controller_raises(monkeypatch, RuntimeError("controller"))
    elif case == "interrupted":
        _outer_controller_raises(monkeypatch, KeyboardInterrupt())
    elif case == "unwritable":
        (out / "inner-1.csv").mkdir(parents=True)
    elif case == "no-part":
        (out / "outer.csv.part").mkdir(parents=True)
    procs, popen = [], subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    threads = set(threading.enumerate())
    try:
        code = cli.main(["run", path])
    except KeyboardInterrupt:
        code = "interrupted"
    assert [p.returncode is not None for p in procs] == [True]
    assert set(threading.enumerate()) <= threads
    assert not [p for p in out.glob("*.part") if p.is_file()]
    want = {"finishes": 0, "safe-stop": 3, "raises": 2,
            "interrupted": "interrupted", "unwritable": 2, "no-part": 2}[case]
    assert code == want
    csvs = sorted(p.name for p in out.glob("*.csv") if p.is_file())
    if case in ("raises", "interrupted"):
        assert not csvs
    elif case in ("unwritable", "no-part"):
        err = capsys.readouterr().err
        assert err.startswith("error: failed writing trace CSV ")
        assert ("outer.csv" if case == "no-part" else "inner-1.csv") in err
    else:
        assert csvs == sorted(f"{sid}.csv" for sid in robot.LOOPS)


def test_a_block_after_the_writer_failed_raises(tmp_path):
    """A hand-off after the writer process exited raises the ``OSError``
    that leaving the context would raise, naming the file; the writer
    starts no thread, and the context still reaps the child."""
    path = str(tmp_path / "outer.csv")
    os.mkdir(path + ".part")
    past_block, threads = [], set(threading.enumerate())
    with pytest.raises(OSError, match=re.escape(path)):
        with _csvwriter.Writer([(path, "x\n")]) as writer:
            assert set(threading.enumerate()) == threads
            writer._proc.wait(timeout=60)     # it fails opening its file
            writer.block(0, "%r\n", 1, struct.pack("d", 1.0))
            past_block.append(True)
    assert not past_block
    assert writer._proc.returncode == 1
    assert set(threading.enumerate()) <= threads
    assert not [p for p in tmp_path.glob("*.part") if p.is_file()]


def test_a_run_stops_at_the_first_block_after_its_writer_failed(
        tmp_path, monkeypatch, capsys):
    """A writer process that cannot open ``outer.csv.part`` stops a 20 s
    ``run`` at its first hand-off, which exits 2 naming the file and
    leaves no process, thread or file behind."""
    out = tmp_path / "out"
    (out / "outer.csv.part").mkdir(parents=True)
    path = write_cfg(tmp_path, horizon=20.0, out_dir=str(out))
    writers, block = [], _csvwriter.Writer.block

    def block_once_the_child_failed(self, *args):
        if not writers:
            self._proc.wait(timeout=60)
        writers.append(self)
        return block(self, *args)

    monkeypatch.setattr(_csvwriter.Writer, "block",
                        block_once_the_child_failed)
    threads = set(threading.enumerate())
    assert cli.main(["run", path]) == 2
    assert len(writers) == 1
    assert writers[0]._proc.returncode == 1
    assert set(threading.enumerate()) <= threads
    err = capsys.readouterr().err
    assert err.startswith("error: failed writing trace CSV ")
    assert "outer.csv" in err
    assert not [p for p in out.iterdir() if p.is_file()]


def _pipe_size(writer) -> int:
    """The bytes the pipe to ``writer``'s child holds, or 1 MiB where the
    OS cannot tell."""
    try:
        import fcntl
        return fcntl.fcntl(writer._proc.stdin, fcntl.F_GETPIPE_SZ)
    except (ImportError, AttributeError):
        return 1 << 20


@pytest.fixture(scope="module")
def csvs_20s(tmp_path_factory):
    """The trace CSVs of a 20 s default run, written after the run."""
    res = sim.run_scenario(cfgmod.build_case_study(horizon=20.0))
    return {Path(p).name: Path(p).read_bytes()
            for p in sim.emit_csv(res, tmp_path_factory.mktemp("emit"))}


@pytest.mark.parametrize("case", ["sized-pipe", "default-pipe",
                                  "non-utf8-dir"])
def test_a_run_writes_through_one_process_and_no_thread(
        tmp_path, monkeypatch, csvs_20s, case):
    """A 20 s ``run`` starts no thread and writes the bytes ``emit_csv``
    writes after the run: through the pipe the writer sizes, through the
    default pipe where the OS refuses that size, and into a directory
    whose name is not UTF-8."""
    out = tmp_path / "out"
    if case == "default-pipe":
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("the OS sizes no pipe")
        refused = []

        def refuse(fd, cmd, arg):
            refused.append(cmd)
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(fcntl, "fcntl", refuse)
    elif case == "non-utf8-dir":
        out = tmp_path / os.fsdecode(b"out\xff")
        try:
            out.mkdir()
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    path = write_cfg(tmp_path, horizon=20.0, out_dir=str(out))
    assert cli.main(["run", path]) == 0
    assert not started
    assert {p.name: p.read_bytes() for p in out.iterdir()} == csvs_20s
    if case == "default-pipe":
        assert refused == [fcntl.F_SETPIPE_SZ]


def test_a_block_is_done_with_its_values_when_it_returns(tmp_path):
    """A hand-off takes the values themselves, and is done with them when
    it returns: overwriting them then leaves the file as handed over."""
    path = str(tmp_path / "a.csv")
    values = np.array([1.5, np.nan, -0.0])
    with _csvwriter.Writer([(path, "a\n")]) as writer:
        writer.block(0, "%r\n", 3, values)
        values[:] = 7.0
        writer.block(0, "%r\n", 1, values[:1])
    assert Path(path).read_text() == "a\n1.5\n\n-0.0\n7.0\n"


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="no SIGSTOP")
def test_a_block_waits_while_its_writer_is_a_whole_pipe_behind(tmp_path):
    """With the writer process stopped, a hand-off of more bytes than its
    pipe holds has not returned after 0.5 s, and completes once the
    process goes on."""
    path = str(tmp_path / "a.csv")
    with _csvwriter.Writer([(path, "a\n")]) as writer:
        values = np.arange(_pipe_size(writer) // 8, dtype=float)
        os.kill(writer._proc.pid, signal.SIGSTOP)
        try:
            handing = threading.Thread(target=writer.block, args=(
                0, "%r\n", len(values), values))
            handing.start()
            handing.join(0.5)
            assert handing.is_alive()
        finally:
            os.kill(writer._proc.pid, signal.SIGCONT)
        handing.join(60)
        assert not handing.is_alive()
    assert Path(path).read_text() == "a\n" + "".join(
        f"{v!r}\n" for v in values.tolist())


def _writer_fed(tmp_path, data: bytes) -> subprocess.CompletedProcess:
    """A writer process of ``a.csv`` and ``b.csv`` in ``tmp_path``, run to
    its end on the stdin ``data``."""
    return subprocess.run(
        [sys.executable, _csvwriter.__file__, str(tmp_path / "a.csv"), "a\n",
         str(tmp_path / "b.csv"), "b\n"],
        input=data, capture_output=True, timeout=60)


# a block of two rows of a.csv
_FRAME = (_csvwriter._HEAD.pack(b"b", 0, 2, 3, 16) + b"%r\n"
          + struct.pack("2d", 1.0, 2.5))


def test_a_writer_whose_stdin_ends_without_the_end_frame_renames_nothing(
        tmp_path):
    """A writer process whose stdin ends at a frame's end with no end
    frame, as when its parent died between two hand-offs, writes no
    ``<path>``, removes every ``<path>.part`` and exits quietly; given the
    end frame it writes the files."""
    child = _writer_fed(tmp_path, _FRAME)
    assert (child.returncode, child.stderr) == (0, b"")
    assert not list(tmp_path.iterdir())
    child = _writer_fed(tmp_path, _FRAME + _csvwriter._HEAD.pack(
        b"e", 0, 0, 0, 0))
    assert (child.returncode, child.stderr) == (0, b"")
    assert (tmp_path / "a.csv").read_text() == "a\n1.0\n2.5\n"
    assert (tmp_path / "b.csv").read_text() == "b\n"


@pytest.mark.parametrize("cut", [1, _csvwriter._HEAD.size - 1,
                                 _csvwriter._HEAD.size + 1,
                                 len(_FRAME) - 12, len(_FRAME) - 8],
                         ids=["head", "head-end", "template", "mid-value",
                              "value-end"])
def test_a_writer_whose_stdin_ends_inside_a_frame_leaves_no_part_file(
        tmp_path, cut):
    """A writer process whose stdin ends inside a frame, in its head, its
    row template or its values (mid-value or at a value's end), as when
    its parent was killed between the two writes of a hand-off, removes
    every ``.part`` file and exits without a traceback."""
    child = _writer_fed(tmp_path, _FRAME + _FRAME[:cut])
    assert (child.returncode, child.stderr) == (0, b"")
    assert not list(tmp_path.iterdir())


def _writer_pids(out_dir) -> list:
    """The live processes whose command line names ``out_dir``: a run's
    writer process; an exited one, a zombie, has an empty command line."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path("/proc", pid, "cmdline").read_bytes()
        except OSError:         # exited meanwhile, or not ours to read
            continue
        if os.fsencode(out_dir) in cmdline and b"_csvwriter" in cmdline:
            pids.append(int(pid))
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")
def test_a_killed_run_leaves_no_part_file_and_no_writer(tmp_path):
    """A 160 s ``run`` killed with SIGKILL once its first ``.part`` file
    exists cleans up nothing itself; its writer process, whose stdin then
    ends, removes every ``.part`` file and exits."""
    out = tmp_path / "out"
    cfg = long_periodic_config()
    cfg["out_dir"] = str(out)
    cfgmod.save_config(cfg, tmp_path / "long.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.Popen(
        [sys.executable, "-m", "cpsrecover.cli", "run",
         str(tmp_path / "long.json")], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(out.glob("*.part")):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        assert _writer_pids(str(out))
        run.kill()
    finally:
        run.kill()
        run.wait(timeout=60)
    assert run.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 60
    while list(out.glob("*.part")) or _writer_pids(str(out)):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert not list(out.iterdir())


@pytest.mark.skipif(not hasattr(signal, "SIGSTOP"), reason="no SIGSTOP")
def test_a_stopped_writer_holds_the_run_back(tmp_path, monkeypatch):
    """A 160 s ``run`` whose writer process is stopped at the first
    hand-off, and goes on 1 s later, waits for it: the blocks handed over
    meanwhile fit in the pipe, so the run holds none the writer has not
    taken, and the CSVs equal an unstopped run's."""
    cfg = long_periodic_config()
    runs = {}
    for name in ("plain", "stopped"):
        cfg["out_dir"] = str(tmp_path / name)
        runs[name] = str(tmp_path / f"{name}.json")
        cfgmod.save_config(cfg, runs[name])
    assert cli.main(["run", runs["plain"]]) == 0
    stop, going_on, meanwhile = {}, [], []
    block = _csvwriter.Writer.block

    def go_on(pid):
        going_on.append(True)       # first, so that no later block counts
        os.kill(pid, signal.SIGCONT)

    def block_on_a_stopped_writer(self, fid, row, n, values):
        if not stop:
            stop["pipe"] = _pipe_size(self)
            os.kill(self._proc.pid, signal.SIGSTOP)
            stop["timer"] = threading.Timer(1.0, go_on, (self._proc.pid,))
            stop["timer"].start()
        block(self, fid, row, n, values)
        if not going_on:
            meanwhile.append(_csvwriter._HEAD.size + len(row.encode())
                             + memoryview(values).nbytes)

    monkeypatch.setattr(_csvwriter.Writer, "block", block_on_a_stopped_writer)
    try:
        assert cli.main(["run", runs["stopped"]]) == 0
    finally:
        stop["timer"].join(60)
    assert going_on and meanwhile
    assert sum(meanwhile) <= stop["pipe"]
    assert ({p.name: p.read_bytes() for p in (tmp_path / "stopped").iterdir()}
            == {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()})
