"""Checkpointing, roll-forward recovery and the hierarchy coordinator.

Three cooperating pieces:

* :func:`subsystem_tick` - one loop iteration of a sub-system: estimate,
  detect, recover if needed, control, log, checkpoint.
* :func:`roll_forward_recover` - rebuild the current estimate by replaying
  the dynamics predict step from the most recent consistent checkpoint
  using the logged control inputs, then overwrite exactly the estimate
  elements implicated by the detector.
* the coordinator - issues synchronized checkpoint triggers to every loop
  and locates the most recent checkpoint time common to all loops that
  lies outside every detector's detection window.

Consistency classification of checkpoint sets (all elements from one
instant / per-loop uniform but cross-loop different / mixed) is provided
for analysis; recovery itself always uses consistent checkpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .anomaly import AdsConfig, AdsOutput, AnomalySchedule, ads_evaluate, anomaly_detected
from .estimator import EstimatorState, estimator_step
from .models import SubsystemModel
from .store import Checkpoint, ControlRecord, SecureStore
from .timebase import to_us, to_s

# Gain entries below this are treated as structurally zero when mapping
# sensor flags to estimate elements.
GAIN_ZERO_TOL = 1e-12

CONSISTENT = "consistent"
PARTLY_INCONSISTENT = "partly-inconsistent"
FULLY_INCONSISTENT = "fully-inconsistent"


class SafeStop(RuntimeError):
    """An anomaly episode outlasted the maximum tolerable duration."""

    def __init__(self, subsystem: str, t: float, episode_start: float, reason: str):
        super().__init__(f"{subsystem}: safe stop at t={t} ({reason})")
        self.subsystem = subsystem
        self.t = t
        self.episode_start = episode_start
        self.reason = reason


class UnrecoverableError(RuntimeError):
    """Recovery cannot proceed (no usable checkpoint or missing controls)."""


@dataclass
class CoordinatorState:
    """Checkpoint trigger source shared by the whole hierarchy."""

    dt_c: float                   # checkpoint interval, seconds
    subsystem_ids: tuple
    base_us: int                  # base tick resolution

    def __post_init__(self):
        dtc_us = to_us(self.dt_c)
        if dtc_us <= 0 or dtc_us % self.base_us != 0:
            raise ValueError("checkpoint interval must be a positive multiple "
                             "of the base tick")
        self.dt_c_us = dtc_us


def coordinator_tick(coord: CoordinatorState, t: float) -> dict:
    """Checkpoint Booleans for every sub-system at base-grid time ``t``."""
    t_us = to_us(t)
    if t_us % coord.base_us != 0:
        raise ValueError(f"t={t} is not on the base tick grid")
    fire = t_us % coord.dt_c_us == 0
    return {sid: fire for sid in coord.subsystem_ids}


def _holds_us(times: list, t_us: int) -> bool:
    """Whether the ascending ``times`` hold a time of ``t_us`` microseconds."""
    j = bisect_left(times, t_us, key=to_us)
    return j < len(times) and to_us(times[j]) == t_us


def most_recent_consistent_checkpoint(save_times: dict, detection_times: dict,
                                      k: float) -> float:
    """Largest save time common to all sub-systems outside detection windows.

    The returned time ``k1`` satisfies ``k - k1 > max(detection_times)``,
    which guarantees the checkpoint predates the (possibly still undetected)
    onset of the anomaly flagged at ``k``.  Times are compared in integer
    microseconds.  Each list of ``save_times`` must be in ascending order,
    as the store keeps them: the search bisects the lists.
    """
    if not save_times:
        raise UnrecoverableError("no save times")
    first, *others = save_times.values()
    cutoff_us = to_us(k) - to_us(max(detection_times.values()))
    for i in range(bisect_left(first, cutoff_us, key=to_us) - 1, -1, -1):
        t_us = to_us(first[i])
        if all(_holds_us(ts, t_us) for ts in others):
            return to_s(t_us)
    raise UnrecoverableError(
        f"no consistent checkpoint older than detection window before k={k}")


def classify_checkpoint_set(snapshots: dict) -> str:
    """Classify per-subsystem element timestamps.

    ``snapshots`` maps subsystem id to the list of per-element timestamps of
    its saved estimate.  All elements of all sub-systems at one instant is
    consistent; per-subsystem uniform but different across sub-systems is
    partly inconsistent; anything else is fully inconsistent.
    """
    if not snapshots:
        raise ValueError("empty snapshot set")
    per_sub = {sid: set(to_us(t) for t in ts) for sid, ts in snapshots.items()}
    if any(len(s) != 1 for s in per_sub.values()):
        return FULLY_INCONSISTENT
    stamps = set(next(iter(s)) for s in per_sub.values())
    return CONSISTENT if len(stamps) == 1 else PARTLY_INCONSISTENT


def safe_stop_check(episode_start: float, k: float, t_max: float) -> bool:
    """True iff the episode duration strictly exceeds ``t_max``."""
    return to_us(k) - to_us(episode_start) > to_us(t_max)


@dataclass
class Episode:
    """An anomaly episode in progress on one loop."""

    start: float                      # first detected tick
    k1: float                         # consistent checkpoint rolled from
    x_rec: np.ndarray                 # latest roll-forward value


@dataclass
class SubsystemRuntime:
    """Mutable per-loop state threaded through the tick function."""

    model: SubsystemModel
    est: EstimatorState
    controller: Callable[[np.ndarray, float], np.ndarray]  # (x_hat, t) -> u
    ads: AdsConfig
    schedule: AnomalySchedule
    t_max: float                      # maximum tolerable anomaly duration, s
    last_u: np.ndarray = None         # input applied at the previous tick
    episode: Episode | None = None    # None while healthy
    innovations: deque = field(default_factory=lambda: deque(maxlen=64))
    # set by the scheduler when the logged input differs from h()'s output
    # (coupled plant mode logs the input actually applied to the plant)
    applied_input: Callable[[np.ndarray], np.ndarray] = None

    def __post_init__(self):
        if self.last_u is None:
            self.last_u = np.zeros(self.model.n_u)
        win = max(1, round(self.ads.detection_time / self.model.dt))
        self.innovations = deque(self.innovations, maxlen=win)


@dataclass
class TickResult:
    """Everything one tick produces, for the trace recorder."""

    u: np.ndarray
    x_hat_est: np.ndarray        # estimator posterior before any recovery
    x_hat: np.ndarray            # final estimate handed to the controller
    x_rec: np.ndarray | None     # full roll-forward vector, if recovering
    mask: np.ndarray             # per-element recovery mask
    flags: object                # detector output flags
    detected: bool
    ckpt_event: bool
    k1: float | None             # the episode's checkpoint time, if recovering


def element_mask(K: np.ndarray, ads_out: AdsOutput, n_x: int) -> np.ndarray:
    """Map sensor flags to the estimate elements that depend on them.

    Specific detector: nonzero pattern of ``K @ flags``.  Generic detector:
    every element.
    """
    if ads_out.kind == "generic":
        return np.ones(n_x, dtype=bool)
    g = np.abs(K @ np.asarray(ads_out.flags, float))
    return g > GAIN_ZERO_TOL


def replay(model: SubsystemModel, x: np.ndarray, controls) -> np.ndarray:
    """Roll ``x`` forward through the predict step, one logged control each."""
    for c in controls:
        x = model.f(x, c.u)
    return x


def roll_forward_recover(rt: SubsystemRuntime, store: SecureStore,
                         x_hat: np.ndarray, K: np.ndarray, ads_out: AdsOutput,
                         detection_times: dict, t: float):
    """Recovery step at time ``t`` for a detected anomaly.

    On the first detected tick of an episode the estimate is re-rolled from
    the most recent consistent checkpoint through the logged controls; on
    later ticks a single predict step extends the episode's roll-forward
    value.  Returns ``(x_hat_updated, x_rec, mask, k1)``; ``k1`` is ``None``
    unless this call re-rolled.
    """
    model = rt.model
    dt_us = to_us(model.dt)
    k1 = None
    if rt.episode is None:
        save_times = {sid: store.save_times(sid) for sid in store.subsystems()}
        k1 = most_recent_consistent_checkpoint(save_times, detection_times, t)
        cps, _, controls = store.retrieve(model.id, k1, t)
        base = next((c for c in cps if to_us(c.t) == to_us(k1)), None)
        if base is None:
            raise UnrecoverableError(f"{model.id}: checkpoint at {k1} missing")
        expected = (to_us(t) - to_us(k1)) // dt_us
        if len(controls) != expected or any(
                to_us(c.t) != to_us(k1) + i * dt_us
                for i, c in enumerate(controls)):
            raise UnrecoverableError(
                f"{model.id}: control log has gaps in [{k1}, {t})")
        x_rec = replay(model, base.x_hat, controls)
    else:
        x_rec = model.f(rt.episode.x_rec, rt.last_u)

    mask = element_mask(K, ads_out, model.n_x)
    x_new = x_hat.copy()
    x_new[mask] = x_rec[mask]
    return x_new, x_rec, mask, k1


def subsystem_tick(rt: SubsystemRuntime, store: SecureStore, c_k: bool,
                   y_now: np.ndarray, t: float,
                   detection_times: dict | None = None) -> TickResult:
    """One loop iteration at time ``t`` with measurement ``y_now``.

    Order: estimate, detect, recover (if flagged), control, log control,
    checkpoint (healthy tick with coordinator Boolean set), safe-stop check.
    Raises :class:`SafeStop` when the episode outlasts the tolerable
    duration and :class:`UnrecoverableError` when recovery is impossible.
    """
    model = rt.model
    step = estimator_step(model, rt.est, rt.last_u, y_now)
    rt.innovations.append(np.atleast_1d(step.innovation))

    ads_out = ads_evaluate(rt.ads, list(rt.innovations), rt.schedule, t,
                           n_y=model.n_y)
    detected = anomaly_detected(ads_out)

    x_hat = step.x_hat
    x_rec = None
    mask = np.zeros(model.n_x, dtype=bool)
    if detected:
        if detection_times is None:
            detection_times = {model.id: rt.ads.detection_time}
        x_hat, x_rec, mask, k1 = roll_forward_recover(
            rt, store, step.x_hat, step.K, ads_out, detection_times, t)

    u = np.atleast_1d(np.asarray(rt.controller(x_hat, t), float))
    u_logged = u if rt.applied_input is None else np.atleast_1d(
        np.asarray(rt.applied_input(u), float))
    store.append_control(model.id, ControlRecord(t, u_logged))

    ckpt_event = False
    if not detected and c_k:
        flags = (np.asarray(ads_out.flags, int) if ads_out.kind == "specific"
                 else np.array([int(ads_out.flags)]))
        store.append_checkpoint(model.id, Checkpoint(t, x_hat, flags))
        ckpt_event = True

    # commit runtime state
    rt.est = EstimatorState(x_hat.copy(), step.P, step.fixed_point)
    rt.last_u = u_logged
    if not detected:
        rt.episode = None
    elif rt.episode is None:
        rt.episode = Episode(t, k1, x_rec)
    else:
        rt.episode.x_rec = x_rec

    ep = rt.episode
    result = TickResult(u, step.x_hat, x_hat, x_rec, mask, ads_out.flags,
                        detected, ckpt_event, None if ep is None else ep.k1)
    if ep is not None and safe_stop_check(ep.start, t, rt.t_max):
        stop = SafeStop(model.id, t, ep.start,
                        "anomaly duration exceeded maximum tolerable duration")
        stop.result = result
        raise stop
    return result
