"""Deterministic multi-rate scheduler, trace recording and CSV emission.

The scheduler is single-threaded and owns all mutable state.  Within one
base tick, due loops fire in a fixed order (coordinator, outer, inner-1,
inner-2) so the outer loop's wheel references are fresh for the inner
loops.  All randomness flows from one master seed through per-(loop, noise
kind) child streams, so adding a loop never perturbs another loop's draws
and identical (config, seed) pairs yield byte-identical CSVs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from . import robot
from .analysis import recovery_error_bound_at
from .anomaly import inject_anomaly
from .estimator import EstimatorState
from .framework import (CoordinatorState, SafeStop, SubsystemRuntime,
                        UnrecoverableError, coordinator_tick,
                        most_recent_consistent_checkpoint, replay,
                        subsystem_tick)
from .models import measure, sample_noise, step_dynamics
from .store import SecureStore
from .timebase import base_resolution_us, to_s, to_us

# fixed stream-split order; adding streams at the end preserves old draws
_STREAMS = ("process", "measurement", "init")

STATE_NAMES = {
    robot.OUTER: ("x", "y", "theta"),
    robot.INNER_1: ("i", "w"),
    robot.INNER_2: ("i", "w"),
}
MEAS_NAMES = {
    robot.OUTER: ("x", "y", "theta"),
    robot.INNER_1: ("w",),
    robot.INNER_2: ("w",),
}
INPUT_NAMES = {
    robot.OUTER: ("v", "omega"),
    robot.INNER_1: ("V",),
    robot.INNER_2: ("V",),
}


def make_rngs(seed: int) -> dict:
    """Per-(subsystem, kind) generators split from the master seed."""
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(cfgmod.SUBSYSTEMS) * len(_STREAMS))
    rngs = {}
    idx = 0
    for sid in cfgmod.SUBSYSTEMS:
        for kind in _STREAMS:
            rngs[(sid, kind)] = np.random.default_rng(children[idx])
            idx += 1
    return rngs


def _trace_columns(model, flag_width: int, rows: int, eps_delta) -> dict:
    """One loop's trace columns with room for ``rows`` ticks.

    Columns without a value on a tick (``x_rec`` while healthy, ``k1`` and
    ``rsee_bound`` outside recovery, ``ee_bound`` without bounds) are NaN.
    """
    n_x = model.n_x
    ee_bound = np.full((rows, n_x), np.nan)
    if eps_delta is not None:
        ee_bound[:] = eps_delta
    return {
        "t": np.empty(rows),
        "x_true": np.empty((rows, n_x)),
        "y_meas": np.empty((rows, model.n_y)),
        "x_hat": np.empty((rows, n_x)),           # estimator posterior
        "x_rf": np.empty((rows, n_x)),            # final (recovered) estimate
        "x_rec": np.full((rows, n_x), np.nan),    # raw roll-forward vector
        "recovered": np.empty((rows, n_x), bool),  # per-element mask
        "u": np.empty((rows, model.n_u)),
        "ads_flags": np.empty((rows, flag_width), int),
        "ckpt_event": np.empty(rows, bool),
        "k1": np.full(rows, np.nan),              # checkpoint in use
        "rsee_bound": np.full((rows, n_x), np.nan),
        "ee_bound": ee_bound,
        "safe_stop": np.empty(rows, bool),
    }


@dataclass
class SimResult:
    traces: dict
    store: SecureStore
    events: list
    safe_stop: bool
    config: dict


def run_scenario(cfg: dict) -> SimResult:
    """Simulate a scenario; deterministic for a given (config, seed)."""
    cfgmod.validate_config(cfg)
    params, models = cfgmod.build_models(cfg)
    schedules = cfgmod.build_schedules(cfg)
    ads = cfgmod.build_ads(cfg)
    bounds = cfgmod.build_bound_params(cfg, models)
    seed = cfg.get("seed", 0)
    horizon_us = to_us(cfg.get("horizon", 10.0))
    plant_mode = cfg.get("plant_mode", "ideal")
    t_max = cfg.get("t_max", 5.0)

    base_us = base_resolution_us([m.dt for m in models.values()])
    dt_us = {sid: to_us(m.dt) for sid, m in models.items()}
    rngs = make_rngs(seed)
    store = SecureStore()
    coord = CoordinatorState(1.0 / cfg.get("checkpoint_freq_hz", 1.0),
                             cfgmod.SUBSYSTEMS, base_us)
    detection_times = {sid: ads[sid].detection_time for sid in cfgmod.SUBSYSTEMS}

    # ground truth; Sigma0 is zero by default so this is the configured mean
    x_true = {sid: models[sid].mu0
              + sample_noise(models[sid].Sigma0, rngs[(sid, "init")],
                             models[sid].Sigma0_factor)
              for sid in cfgmod.SUBSYSTEMS}

    wheel_refs = [robot.wheel_transform(np.zeros(2), params)]
    inner_index = {robot.INNER_1: 0, robot.INNER_2: 1}

    runtimes = {}
    for sid in cfgmod.SUBSYSTEMS:
        model = models[sid]
        if sid == robot.OUTER:
            controller = robot.make_outer_controller(params)
        else:
            controller = robot.make_inner_controller(
                params, wheel_refs, inner_index[sid], model.dt)
        runtimes[sid] = SubsystemRuntime(
            model=model, est=EstimatorState.initial(model),
            controller=controller, ads=ads[sid], schedule=schedules[sid],
            t_max=t_max)
    if plant_mode == "coupled":
        runtimes[robot.OUTER].applied_input = lambda u: robot.wheel_transform_inverse(
            [x_true[robot.INNER_1][1], x_true[robot.INNER_2][1]], params)

    n_ticks = horizon_us // base_us
    # a loop ticks at 0, dt, 2 dt, ... below n_ticks * base_us
    traces = {sid: _trace_columns(
        models[sid], 1 if ads[sid].kind == "generic" else models[sid].n_y,
        -(-(n_ticks * base_us) // dt_us[sid]),
        bounds[sid].eps_delta if sid in bounds else None)
        for sid in cfgmod.SUBSYSTEMS}
    recorded = dict.fromkeys(cfgmod.SUBSYSTEMS, 0)
    events = []
    stopped = False

    for i in range(n_ticks):
        if stopped:
            break
        t_us = i * base_us
        t = to_s(t_us)
        c_map = coordinator_tick(coord, t)
        for sid in cfgmod.SUBSYSTEMS:
            if t_us % dt_us[sid] != 0:
                continue
            model = models[sid]
            rt = runtimes[sid]
            # plant advances one loop period with the previously applied
            # input before the sensors are read, so the measurement and the
            # estimator's predict step refer to the same instant
            w = sample_noise(model.Q, rngs[(sid, "process")], model.Q_factor)
            x_true[sid] = step_dynamics(model, x_true[sid], rt.last_u, w)
            v = sample_noise(model.R, rngs[(sid, "measurement")],
                             model.R_factor)
            y = measure(model, x_true[sid], rt.last_u, v)
            y = inject_anomaly(y, schedules[sid], t)

            safe_stop_here = False
            try:
                res = subsystem_tick(rt, store, c_map[sid], y, t,
                                     detection_times)
            except SafeStop as stop:
                res = stop.result
                safe_stop_here = True
                events.append({"type": "safe-stop", "subsystem": sid, "t": t,
                               "episode_start": stop.episode_start,
                               "reason": stop.reason})
            except UnrecoverableError as exc:
                events.append({"type": "safe-stop", "subsystem": sid, "t": t,
                               "episode_start": None,
                               "reason": f"unrecoverable: {exc}"})
                stopped = True
                break

            if sid == robot.OUTER:
                wheel_refs[0] = robot.wheel_transform(res.u, params)

            tr, n = traces[sid], recorded[sid]
            recorded[sid] = n + 1
            tr["t"][n] = t
            tr["x_true"][n] = x_true[sid]
            tr["y_meas"][n] = y
            tr["x_hat"][n] = res.x_hat_est
            tr["x_rf"][n] = res.x_hat
            if res.x_rec is not None:
                tr["x_rec"][n] = res.x_rec
            tr["recovered"][n] = res.mask
            tr["u"][n] = res.u
            tr["ads_flags"][n] = res.flags
            tr["ckpt_event"][n] = res.ckpt_event
            if res.k1 is not None:
                tr["k1"][n] = res.k1
                if sid in bounds:
                    tr["rsee_bound"][n] = recovery_error_bound_at(
                        bounds[sid], t_us // dt_us[sid],
                        to_us(res.k1) // dt_us[sid])
            tr["safe_stop"][n] = safe_stop_here

            if safe_stop_here:
                stopped = True
                break

    safe_stopped = any(e["type"] == "safe-stop" for e in events)
    return SimResult({sid: {name: col[:recorded[sid]]
                            for name, col in tr.items()}
                      for sid, tr in traces.items()},
                     store, events, safe_stopped, cfg)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if np.isnan(f):
        return ""
    return repr(f)


_CSV_BLOCK = 1024     # rows formatted and written at a time


def _names(known, n: int) -> tuple:
    """``known`` column names, or ``0 .. n-1`` when they do not fit ``n``."""
    return known if known is not None and len(known) == n else tuple(
        str(j) for j in range(n))


def _joined(block: np.ndarray, as_int: bool) -> list:
    """Each row of a 2-D block as comma-joined fields: ``repr`` of floats,
    NaN as ``nan``, or the integers of an integer or Boolean block."""
    if as_int:
        return [",".join(map(str, row)) for row in block.astype(int).tolist()]
    return [",".join(map(repr, row)) for row in block.tolist()]


def emit_csv(result: SimResult, out_dir) -> list:
    """Write one CSV per subsystem; returns the written paths.

    Floats are rendered with Python's shortest round-trip repr, so
    re-parsing reproduces the trace bit-exactly and identical runs yield
    byte-identical files.  NaN is written as an empty field, and so is
    ``x_rf`` on a tick without recovery.  Each field is what :func:`_fmt`
    makes of the value; the rows are formatted column by column, a block
    of rows at a time.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for sid, tr in result.traces.items():
        n_x = tr["x_true"].shape[1]
        n_y = tr["y_meas"].shape[1]
        sn = _names(STATE_NAMES.get(sid), n_x)
        mn = _names(MEAS_NAMES.get(sid), n_y)
        un = _names(INPUT_NAMES.get(sid), tr["u"].shape[1])
        # a generic detector flags the loop as a whole: one column
        flags = ([f"ads_flag_{c}" for c in mn]
                 if tr["ads_flags"].shape[1] == n_y else ["ads_flag"])
        header = (["t"]
                  + [f"x_true_{c}" for c in sn]
                  + [f"y_meas_{c}" for c in mn]
                  + [f"x_hat_{c}" for c in sn]
                  + [f"x_rf_{c}" for c in sn]
                  + [f"recovered_mask_{c}" for c in sn]
                  + [f"u_{c}" for c in un]
                  + flags
                  + ["ckpt_event"]
                  + [f"rsee_bound_{c}" for c in sn]
                  + [f"ee_bound_{c}" for c in sn]
                  + ["safe_stop"])
        path = os.path.join(out_dir, f"{sid}.csv")
        try:
            with open(path, "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for lo in range(0, len(tr["t"]), _CSV_BLOCK):
                    c = {name: col[lo:lo + _CSV_BLOCK]
                         for name, col in tr.items()}
                    x_rf = np.where(c["recovered"].any(axis=1)[:, None],
                                    c["x_rf"], np.nan)
                    parts = [
                        _joined(np.column_stack(
                            (c["t"], c["x_true"], c["y_meas"], c["x_hat"],
                             x_rf)), False),
                        _joined(c["recovered"], True),
                        _joined(c["u"], False),
                        _joined(np.column_stack(
                            (c["ads_flags"], c["ckpt_event"])), True),
                        _joined(np.column_stack(
                            (c["rsee_bound"], c["ee_bound"])), False),
                        _joined(c["safe_stop"][:, None], True),
                    ]
                    text = "\n".join(map(",".join, zip(*parts))) + "\n"
                    # repr writes NaN as "nan", which no other field holds
                    fh.write(text.replace("nan", ""))
        except OSError as exc:
            raise OSError(f"failed writing trace CSV {path}: {exc}") from exc
        paths.append(path)
    return paths


def every_tick_shadow(result: SimResult) -> dict:
    """Per-loop recovery of a finished run as if every tick were checkpointed.

    Each healthy tick's final estimate is a virtual checkpoint.  At the
    first recovering tick of an episode the newest one older than the
    largest detection time is chosen, as real recovery chooses among the
    consistent checkpoints, and the logged controls are replayed from it;
    each later tick of the episode extends the replay by one control.  The
    shadow shares the run's plant, noise and control history and differs
    only in the checkpoint it rolls forward from.  Returns
    ``{loop id: (ticks, n_x) array}``, NaN on healthy ticks.
    """
    ads = cfgmod.build_ads(result.config)
    detection_times = {sid: a.detection_time for sid, a in ads.items()}
    _, models = cfgmod.build_models(result.config)
    shadows = {}
    for sid, tr in result.traces.items():
        model = models[sid]
        t = tr["t"]
        shadow = shadows[sid] = np.full((len(t), model.n_x), np.nan)
        if not len(t):
            continue
        healthy = ~tr["ads_flags"].any(axis=1)
        edges = np.flatnonzero(np.diff(np.r_[True, healthy, True]))
        for a, b in edges.reshape(-1, 2):     # an episode is ticks a..b-1
            k1 = most_recent_consistent_checkpoint(
                {sid: t[:a][healthy[:a]].tolist()}, detection_times, t[a])
            _, _, controls = result.store.retrieve(sid, k1, t[b - 1])
            n = len(controls) - (b - 1 - a)   # controls in [k1, t[a])
            x = replay(model, tr["x_rf"][a - n], controls[:n])
            shadow[a] = x
            for k, c in zip(range(a + 1, b), controls[n:]):
                x = model.f(x, c.u)
                shadow[k] = x
    return shadows
