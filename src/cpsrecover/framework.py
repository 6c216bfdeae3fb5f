"""Checkpointing, roll-forward recovery and consistent-checkpoint selection.

Three cooperating pieces:

* :func:`subsystem_tick` - one loop iteration of a sub-system: estimate,
  detect, recover if needed, control, log, checkpoint.
* :func:`roll_forward_recover` - rebuild the current estimate by replaying
  the dynamics predict step from the most recent consistent checkpoint
  using the logged control inputs, then overwrite exactly the estimate
  elements implicated by the detector.
* :func:`most_recent_consistent_checkpoint` - the most recent checkpoint
  time common to all loops that lies outside every detector's detection
  window.  The scheduler hands every loop the same checkpoint Boolean on
  each tick, so healthy loops save at the same instants.

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

from .anomaly import AdsConfig, AnomalySchedule, ads_evaluate
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


class UnrecoverableError(RuntimeError):
    """Recovery cannot proceed (no usable checkpoint or missing controls)."""


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
    # set by the scheduler when the logged input differs from h()'s output
    # (coupled plant mode logs the input actually applied to the plant)
    applied_input: Callable[[np.ndarray], np.ndarray] = None
    # the recent innovations a residual-threshold detector averages; an
    # oracle detector reads none, so it keeps None
    innovations: deque | None = field(init=False, default=None)

    def __post_init__(self):
        if self.last_u is None:
            self.last_u = np.zeros(self.model.n_u)
        if self.ads.mode == "residual-threshold":
            self.innovations = deque(maxlen=max(
                1, round(self.ads.detection_time / self.model.dt)))


@dataclass
class TickResult:
    """Everything one tick produces, for the trace recorder."""

    u: np.ndarray
    x_hat_est: np.ndarray        # estimator posterior before any recovery
    x_hat: np.ndarray            # final estimate handed to the controller
    x_rec: np.ndarray | None     # full roll-forward vector, if recovering
    mask: np.ndarray             # per-element recovery mask
    flags: np.ndarray            # detector output flags
    detected: bool
    ckpt_event: bool
    k1: float | None             # the episode's checkpoint time, if recovering
    safe_stop: bool              # the episode outlasted the tolerable duration


def element_mask(K: np.ndarray, flags: np.ndarray, kind: str) -> np.ndarray:
    """Map detector flags to the estimate elements that depend on them.

    Specific detector: nonzero pattern of ``K @ flags``.  Generic detector:
    every element.
    """
    if kind == "generic":
        return np.ones(K.shape[0], dtype=bool)
    g = np.abs(K @ np.asarray(flags, float))
    return g > GAIN_ZERO_TOL


def replay(model: SubsystemModel, x: np.ndarray, controls) -> np.ndarray:
    """Roll ``x`` forward through the predict step, one logged control each."""
    for c in controls:
        x = model.f(x, c.u)
    return x


def roll_forward_recover(rt: SubsystemRuntime, store: SecureStore,
                         x_hat: np.ndarray, K: np.ndarray, flags: np.ndarray,
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
        # cps is ascending from k1, so the base checkpoint can only be first
        if not cps or to_us(cps[0].t) != to_us(k1):
            raise UnrecoverableError(f"{model.id}: checkpoint at {k1} missing")
        expected = (to_us(t) - to_us(k1)) // dt_us
        if len(controls) != expected or any(
                to_us(c.t) != to_us(k1) + i * dt_us
                for i, c in enumerate(controls)):
            raise UnrecoverableError(
                f"{model.id}: control log has gaps in [{k1}, {t})")
        x_rec = replay(model, cps[0].x_hat, controls)
    else:
        x_rec = model.f(rt.episode.x_rec, rt.last_u)

    mask = element_mask(K, flags, rt.ads.kind)
    x_new = x_hat.copy()
    x_new[mask] = x_rec[mask]
    return x_new, x_rec, mask, k1


def subsystem_tick(rt: SubsystemRuntime, store: SecureStore, c_k: bool,
                   y_now: np.ndarray, t: float,
                   detection_times: dict | None = None) -> TickResult:
    """One loop iteration at time ``t`` with measurement ``y_now``.

    Order: estimate, detect, recover (if flagged), control, log control,
    checkpoint (healthy tick with checkpoint Boolean ``c_k`` set), safe-stop
    check.  The result's ``safe_stop`` is set when the episode outlasts the
    tolerable duration; raises :class:`UnrecoverableError` when recovery is
    impossible.
    """
    model = rt.model
    est, K, innovation = estimator_step(model, rt.est, rt.last_u, y_now)
    window = ()
    if rt.innovations is not None:
        rt.innovations.append(np.atleast_1d(innovation))
        window = rt.innovations

    flags = ads_evaluate(rt.ads, window, rt.schedule, t, n_y=model.n_y)
    detected = bool(flags.any())

    x_hat = est.x_hat
    x_rec = None
    mask = np.zeros(model.n_x, dtype=bool)
    if detected:
        if detection_times is None:
            detection_times = {model.id: rt.ads.detection_time}
        x_hat, x_rec, mask, k1 = roll_forward_recover(
            rt, store, est.x_hat, K, flags, detection_times, t)

    u = np.atleast_1d(np.asarray(rt.controller(x_hat, t), float))
    u_logged = u if rt.applied_input is None else np.atleast_1d(
        np.asarray(rt.applied_input(u), float))
    store.append_control(model.id, ControlRecord(t, u_logged))

    ckpt_event = False
    if not detected and c_k:
        store.append_checkpoint(model.id, Checkpoint(t, x_hat, flags))
        ckpt_event = True

    # commit runtime state
    rt.est = EstimatorState(x_hat.copy(), est.P)
    rt.last_u = u_logged
    if not detected:
        rt.episode = None
    elif rt.episode is None:
        rt.episode = Episode(t, k1, x_rec)
    else:
        rt.episode.x_rec = x_rec

    ep = rt.episode
    return TickResult(u, est.x_hat, x_hat, x_rec, mask, flags, detected,
                      ckpt_event, None if ep is None else ep.k1,
                      ep is not None and safe_stop_check(ep.start, t, rt.t_max))
