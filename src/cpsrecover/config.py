"""Scenario configuration: JSON schema, validation, and the case-study default.

A scenario is a plain JSON-compatible dict.  Top-level keys:

``horizon``            simulation length, seconds; at most
                       ``MAX_TRACE_ROWS`` ticks of the fastest loop
``seed``               master RNG seed
``checkpoint_freq_hz`` checkpointing frequency (every loop checkpoints on
                       multiples of its reciprocal)
``t_max``              maximum tolerable anomaly duration, seconds
``plant_mode``         "ideal" (outer plant driven by the commanded body
                       velocity) or "coupled" (driven by the velocity
                       reconstructed from the motor speeds)
``robot``              physical/controller parameter overrides
``noise``              per-level noise standard deviations
                       ``<level>_q_std`` and ``<level>_r_std``
``init``               initial state means per level
``anomalies``          per-loop anomaly windows
                       ``{t_start, t_end, y_a, gamma}``
``ads``                per-loop detector config
                       ``{kind, mode, detection_time, threshold}``
``bounds``             optional per-loop bound parameters for the online
                       bound columns

:func:`validate_config` returns the *resolved* scenario, a new dict that
holds every top-level key.  A key the config leaves out takes the case
study's value, except ``anomalies`` and ``bounds``, which then hold none.
``noise``, ``init`` and ``robot`` merge key by key into the case study's
values, and ``ads`` merges loop by loop: an ``ads.<loop>`` entry replaces
that loop's entry as a whole, and a field it leaves out takes the
``AdsConfig`` default, so ``{"kind": "generic"}`` alone gets a
``detection_time`` of 0, not the case study's 0.25.

The loops and levels are those :data:`robot.LOOPS` and
:data:`robot.LEVELS` list when a function is called: a loop's id keys its
``anomalies``, ``ads`` and ``bounds``, and a level, which its loops share,
names its ``robot`` rate, its ``noise`` and its ``init``.  Coupled mode
needs the loops of :data:`robot.COUPLED_READS`.  This module names no
loop.

:func:`build_system` turns a resolved scenario into the loops of one run,
for :func:`cpsrecover.sim.run_loops`; :func:`build_models` and
:func:`build_bound_params` build its parts, and serve the bound analysis.
All three read the resolved scenario by key.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

import numpy as np

from . import robot
from .analysis import BoundParams
from .anomaly import (DETECTOR_KINDS, DETECTOR_MODES, AdsConfig,
                      AnomalySchedule, AnomalyWindow)
from .estimator import EstimatorState
from .framework import SubsystemRuntime
from .timebase import US_PER_S, base_resolution_us, to_us

SUBSYSTEMS = tuple(robot.LOOPS)     # robot's loops at import, in fire order
# a run that keeps whole traces (compare, checkpoints) allocates each
# loop's rows before its first tick: its trace columns and detection flags
# take 102 bytes per row of a motor loop (about 1.0 GB for 10**7 rows) and
# 161 per row of the pose loop, 16 and 24 more with bounds; noise, anomaly
# windows and flags come a block of ``sim._BLOCK`` rows at a time.  ``run``
# holds one block per loop, but validation is the same for every command
MAX_TRACE_ROWS = 10_000_000


class ConfigError(ValueError):
    """Scenario validation failure; the message lists every violation."""


def default_config() -> dict:
    """The ground-robot case study: 10 s horizon, 1 Hz checkpointing,
    additive bursts on the outer position sensors and both encoders in
    [3.25, 5) and [8.25, 10) with a 0.25 s detection delay, for every loop
    :data:`robot.LEVELS` lists."""
    # each level's offsets y_a in [3.25, 5) and in [8.25, 10), and the
    # sensors gamma they hit; every loop gets lists of its own
    bursts = {"outer": ([5.0, 5.0, 0.0], [-5.0, -5.0, 0.0], [1, 1, 0]),
              "inner": ([20000.0], [-20000.0], [1])}
    return {
        "horizon": 10.0,
        "seed": 0,
        "checkpoint_freq_hz": 1.0,
        "t_max": 5.0,
        "plant_mode": "ideal",
        "out_dir": ".",
        "robot": {},  # overrides for RobotParams fields
        "noise": {
            "outer_q_std": 0.1,
            "outer_r_std": 0.1,
            "inner_q_std": 50.0,
            "inner_r_std": 50.0,
        },
        "init": {
            "outer": [2.0, 0.0, 1.5707963267948966],
            "inner": [0.0, 40.0],
        },
        "anomalies": {
            sid: [{"t_start": a, "t_end": b, "y_a": list(y_a),
                   "gamma": list(gamma)}
                  for (a, b), y_a in zip(((3.25, 5.0), (8.25, 10.0)),
                                         (first, second))]
            for level, (first, second, gamma) in bursts.items()
            for sid in robot.LEVELS[level]
        },
        "ads": {
            sid: {"kind": "specific", "mode": "oracle",
                  "detection_time": 0.25, "threshold": 0.0}
            for sid in robot.LOOPS
        },
        "bounds": {},
    }


def build_case_study(**overrides) -> dict:
    """Case-study configuration with optional top-level overrides."""
    cfg = default_config()
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("a scenario must be a JSON object")
    return cfg


def save_config(cfg: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")


def validate_config(cfg: dict) -> dict:
    """The resolved scenario of ``cfg``, which is left unchanged; raises
    :class:`ConfigError` listing every violated invariant.

    One pass over every key the simulation and the bound analysis read:
    types, shapes, ranges and the tick grid.  Builds no models, so it is
    cheap enough to run before every simulation.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("a scenario must be a JSON object")
    errors = []
    defaults = default_config()
    # the resolved top level: a copy, so the argument is left unchanged
    cfg = {**defaults, "anomalies": {}, "bounds": {}, **cfg}
    for k in cfg:
        if k not in defaults:
            errors.append(f"unknown key {k!r}")
    params = _check_robot(cfg["robot"], errors)
    # each level's loop period, under the name of its first loop
    periods = {sids[0]: 1.0 / getattr(params, f"{level}_rate")
               for level, sids in robot.LEVELS.items()}
    base = base_resolution_us(periods.values())
    horizon = cfg["horizon"]
    if not _seconds(horizon) or horizon <= 0:
        errors.append("horizon must be a positive number of seconds")
    elif to_us(horizon) % base != 0:
        errors.append("horizon must be a multiple of the base tick")
    elif (-(-to_us(horizon) // min(map(to_us, periods.values())))
          > MAX_TRACE_ROWS):
        errors.append(f"horizon {horizon} s needs more than the cap of "
                      f"{MAX_TRACE_ROWS} trace rows per loop")
    seed = cfg["seed"]
    if (isinstance(seed, (bool, np.bool_))
            or not isinstance(seed, numbers.Integral) or seed < 0):
        errors.append("seed must be a nonnegative integer")
    mu = cfg["checkpoint_freq_hz"]
    period_us = _period_us(mu)
    if period_us is None:
        errors.append("checkpoint_freq_hz must be a frequency whose period "
                      "is at least 1 microsecond")
    else:
        for name, dt in periods.items():
            if period_us % to_us(dt) != 0:
                errors.append(
                    f"checkpoint period 1/{mu} Hz is not a multiple of the "
                    f"{name} loop period {dt}")
    if cfg["plant_mode"] not in ("ideal", "coupled"):
        errors.append("plant_mode must be 'ideal' or 'coupled'")
    elif cfg["plant_mode"] == "coupled":
        errors += [f"plant_mode 'coupled' needs loop {sid!r} in robot.LOOPS"
                   for sid in robot.COUPLED_READS if sid not in robot.LOOPS]
    t_max = cfg["t_max"]
    if not _seconds(t_max) or t_max <= 0:
        errors.append("t_max must be a positive number of seconds")
    if not isinstance(cfg["out_dir"], str):
        errors.append("out_dir must be a string")
    noise = cfg["noise"]
    if _check_keys(noise, "noise", defaults["noise"], errors):
        for k, v in noise.items():
            if k in defaults["noise"] and not (_number(v) and v >= 0):
                errors.append(f"noise.{k} must be a nonnegative number")
            elif k in defaults["noise"] and not _number(v * v):
                errors.append(f"noise.{k} is too large: its square, the "
                              "variance, overflows a float")
    init = cfg["init"]
    if _check_keys(init, "init", defaults["init"], errors):
        for level, sids in robot.LEVELS.items():
            n_x = len(robot.LOOPS[sids[0]].state)
            if level in init and not _vector(init[level], n_x):
                errors.append(f"init.{level} must be a list of {n_x} numbers")
    anomalies = cfg["anomalies"]
    if _check_keys(anomalies, "anomalies", robot.LOOPS, errors, "loop id"):
        for sid, windows in anomalies.items():
            if sid in robot.LOOPS:
                _check_windows(sid, windows, errors)
    ads = cfg["ads"]
    if _check_keys(ads, "ads", robot.LOOPS, errors, "loop id"):
        for sid, spec in ads.items():
            if sid in robot.LOOPS:
                _check_ads(sid, spec, base, errors)
    bounds = cfg["bounds"]
    if _check_keys(bounds, "bounds", robot.LOOPS, errors, "loop id"):
        for sid, spec in bounds.items():
            if sid in robot.LOOPS:
                _check_bounds(sid, spec, errors)
                _check_bounded_windows(sid, anomalies, errors)
    if errors:
        raise ConfigError("; ".join(errors))
    for k in ("robot", "noise", "init", "ads"):
        cfg[k] = {**defaults[k], **cfg[k]}
    return cfg


def _number(v) -> bool:
    """A finite real number; Booleans do not count."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an integer too large for a float
        return False


_MAX_SECONDS = 1e9   # keeps every time an exact integer of microseconds


def _seconds(v) -> bool:
    """A number of seconds that converts to integer microseconds."""
    return _number(v) and abs(v) <= _MAX_SECONDS


def _period_us(freq) -> int | None:
    """The period of ``freq`` Hz in microseconds, or None unless it is a
    positive frequency whose period is at least 1 microsecond."""
    if not (_number(freq) and freq > 0 and _seconds(1.0 / freq)):
        return None
    return to_us(1.0 / freq) or None


def _vector(v, n: int, nonnegative: bool = False) -> bool:
    """A sequence of ``n`` finite (and optionally nonnegative) numbers."""
    return (isinstance(v, (list, tuple, np.ndarray))
            and getattr(v, "ndim", 1) == 1 and len(v) == n
            and all(_number(x) and (x >= 0 or not nonnegative) for x in v))


def _check_keys(value, where: str, allowed, errors: list,
                what: str = "key") -> bool:
    """Whether ``value`` is an object; report keys outside ``allowed``."""
    if not isinstance(value, dict):
        errors.append(f"{where} must be an object")
        return False
    for k in value:
        if k not in allowed:
            errors.append(f"{where}: unknown {what} {k!r}")
    return True


_ROBOT_FIELDS = tuple(f.name for f in dataclasses.fields(robot.RobotParams))


def _check_robot(spec, errors: list) -> robot.RobotParams:
    """The configured robot parameters, or the defaults when invalid, so
    that the remaining checks still run."""
    if not _check_keys(spec, "robot", _ROBOT_FIELDS, errors):
        return robot.RobotParams()
    bad = [k for k, v in spec.items() if k in _ROBOT_FIELDS and not _number(v)]
    errors.extend(f"robot.{k} must be a finite number" for k in bad)
    if bad or any(k not in _ROBOT_FIELDS for k in spec):
        return robot.RobotParams()
    try:
        params = robot.RobotParams(**spec)
    except ValueError as exc:
        errors.append(f"robot: {exc}")
        return robot.RobotParams()
    # a loop ticks every to_us(period) microseconds while its model steps
    # by the period itself, so the two must agree
    n_errors = len(errors)
    for name in (f"{level}_rate" for level in robot.LEVELS):
        rate = getattr(params, name)
        period = US_PER_S / rate if _period_us(rate) else None
        if period is None:
            errors.append(f"robot.{name} must be a frequency whose period is "
                          "at least 1 microsecond")
        elif abs(period - round(period)) > 1e-9 * period:
            errors.append(f"robot.{name} {rate} Hz has a period of {period} "
                          "microseconds, which is not a whole number")
    return robot.RobotParams() if len(errors) > n_errors else params


_WINDOW_KEYS = ("t_start", "t_end", "y_a", "gamma")


def _check_windows(sid: str, windows, errors: list) -> None:
    if not isinstance(windows, list):
        errors.append(f"anomalies.{sid} must be a list of windows")
        return
    n_y = len(robot.LOOPS[sid].meas)
    n_errors = len(errors)
    for i, w in enumerate(windows):
        where = f"anomalies.{sid}[{i}]"
        if not _check_keys(w, where, _WINDOW_KEYS, errors):
            continue
        errors.extend(f"{where}: missing {k!r}" for k in _WINDOW_KEYS
                      if k not in w)
        errors.extend(f"{where}: {k} must be a number of seconds"
                      for k in ("t_start", "t_end")
                      if k in w and not _seconds(w[k]))
        errors.extend(f"{where}: {k} must be a list of {n_y} numbers"
                      for k in ("y_a", "gamma")
                      if k in w and not _vector(w[k], n_y))
    if len(errors) == n_errors:
        try:
            _schedule_from(windows)
        except ValueError as exc:
            errors.append(f"{sid}: {exc}")


_ADS_KEYS = tuple(f.name for f in dataclasses.fields(AdsConfig))


def _check_ads(sid: str, spec, base: int, errors: list) -> None:
    where = f"ads.{sid}"
    if not _check_keys(spec, where, _ADS_KEYS, errors):
        return
    if spec.get("kind", "specific") not in DETECTOR_KINDS:
        errors.append(f"{where}: kind must be one of {DETECTOR_KINDS}")
    if spec.get("mode", "oracle") not in DETECTOR_MODES:
        errors.append(f"{where}: mode must be one of {DETECTOR_MODES}")
    if not _number(spec.get("threshold", 0.0)):
        errors.append(f"{where}: threshold must be a number")
    detection_time = spec.get("detection_time", 0.0)
    if not _seconds(detection_time) or detection_time < 0:
        errors.append(f"{where}: detection_time must be a nonnegative "
                      "number of seconds")
    elif to_us(detection_time) % base != 0:
        # detection windows must land on the shared tick grid (the case
        # study uses 0.25 s against a 0.1 s outer period, so the base tick
        # is the right granularity, not the per-loop period)
        errors.append(
            f"{sid}: detection_time must be an integer multiple of the "
            f"base tick {base / 1e6}")


_BOUND_VECTORS = ("eps_delta", "eps_omega", "phi_bar", "E_max")
_BOUND_REQUIRED = ("A_bar", "eps_delta", "eps_omega")


def _check_bounded_windows(sid: str, anomalies, errors: list) -> None:
    """The bounds anchor at a checkpoint strictly before each anomaly."""
    windows = anomalies.get(sid) if isinstance(anomalies, dict) else None
    if isinstance(windows, list) and any(
            isinstance(w, dict) and _seconds(w.get("t_start"))
            and w["t_start"] <= 0 for w in windows):
        errors.append(f"bounds.{sid}: every anomaly window of a loop with "
                      "bounds must start after t = 0")


def _check_bounds(sid: str, spec, errors: list) -> None:
    where = f"bounds.{sid}"
    if not _check_keys(spec, where, ("A_bar",) + _BOUND_VECTORS, errors):
        return
    errors.extend(f"{where}: missing {k!r}" for k in _BOUND_REQUIRED
                  if k not in spec)
    n_x = len(robot.LOOPS[sid].state)
    A_bar = spec.get("A_bar")
    if "A_bar" in spec and not (
            isinstance(A_bar, (list, tuple, np.ndarray))
            and getattr(A_bar, "ndim", 2) == 2 and len(A_bar) == n_x
            and all(_vector(row, n_x, nonnegative=True) for row in A_bar)):
        errors.append(f"{where}: A_bar must be a {n_x} x {n_x} matrix of "
                      "finite nonnegative numbers")
    for k in _BOUND_VECTORS:
        if k in spec and not _vector(spec[k], n_x, nonnegative=True):
            errors.append(f"{where}: {k} must be a list of {n_x} finite "
                          "nonnegative numbers")


def _schedule_from(windows) -> AnomalySchedule:
    return AnomalySchedule(tuple(
        AnomalyWindow(w["t_start"], w["t_end"],
                      np.asarray(w["y_a"], float),
                      np.asarray(w["gamma"], float))
        for w in windows))


def build_models(cfg: dict):
    """The robot parameters and each loop's model, in fire order, from a
    resolved scenario: ``(params, {loop id: model})``."""
    params = robot.RobotParams(**cfg["robot"])
    return params, {sid: robot.build_model(sid, params, cfg["noise"],
                                           cfg["init"])
                    for sid in robot.LOOPS}


def build_bound_params(cfg: dict, models) -> dict:
    """Each bounded loop's :class:`BoundParams`, from a resolved scenario."""
    return {sid: BoundParams(**spec, mu=cfg["checkpoint_freq_hz"],
                             tick=models[sid].dt)
            for sid, spec in cfg["bounds"].items()}


def build_system(cfg: dict) -> list:
    """The loops of one run of a resolved scenario, in fire order: each a
    :class:`SubsystemRuntime` with its model, columns, schedule, detector,
    bounds, controller, coupled-mode applied input, ``t_max`` and tick count,
    and no trace rows, which :func:`sim.run_loops` holds.
    :func:`robot.make_controllers` wires the controllers, which keep state,
    so each run needs its own build."""
    params, models = build_models(cfg)
    bounds = build_bound_params(cfg, models)
    loops = {}
    controllers, coupled = robot.make_controllers(
        params, lambda sid: loops[sid].x_true)
    applied = coupled if cfg["plant_mode"] == "coupled" else {}
    for sid, columns in robot.LOOPS.items():
        model = models[sid]
        loops[sid] = SubsystemRuntime(
            model=model, columns=columns, est=EstimatorState.initial(model),
            controller=controllers[sid], applied_input=applied.get(sid),
            ads=AdsConfig(**cfg["ads"][sid]),
            schedule=_schedule_from(cfg["anomalies"].get(sid, [])),
            t_max=cfg["t_max"],
            ticks=-(-to_us(cfg["horizon"]) // to_us(model.dt)),
            bounds=bounds.get(sid))
    return list(loops.values())
