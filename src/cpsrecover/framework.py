"""Checkpointing, roll-forward recovery and consistent-checkpoint selection.

Three cooperating pieces:

* :func:`subsystem_tick` - one loop iteration of a sub-system: estimate,
  detect, recover if needed, control, log, checkpoint.  It reads the
  flags its :class:`SubsystemRuntime` resolved for the block it is in and
  writes its trace row there.
* :func:`roll_forward_recover` - rebuild the current estimate by replaying
  the dynamics predict step from the most recent consistent checkpoint
  using the logged control inputs (:func:`replay`, which
  :func:`cpsrecover.sim.every_tick_shadow` runs too), then overwrite
  exactly the estimate elements implicated by the detector.  Those
  elements depend on the gain, the flags and the detector kind alone, so
  a gain-table gain, which recurs, reads them from a memo keyed on the
  three.
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

from .analysis import BoundParams, recovery_error_bound_at
from .anomaly import AdsConfig, AnomalySchedule, ads_evaluate, oracle_flags
from .estimator import EstimatorState, estimator_step
from .models import SubsystemModel
from .store import Checkpoint, SecureStore
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


def consistent_checkpoint(store: SecureStore, detection_times: dict,
                          k: float) -> float:
    """:func:`most_recent_consistent_checkpoint` over the save times of
    every loop in ``store``: the checkpoint recovery at ``k`` rolls from."""
    save_times = {sid: store.save_times(sid) for sid in store.subsystems()}
    return most_recent_consistent_checkpoint(save_times, detection_times, k)


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


@dataclass
class Episode:
    """An anomaly episode in progress on one loop."""

    start: float                      # first detected tick
    k1: float                         # consistent checkpoint rolled from
    x_rec: np.ndarray                 # latest roll-forward value
    # start + t_max in µs: a tick after it safe-stops, so an episode of
    # exactly t_max does not
    deadline_us: int


@dataclass
class SubsystemRuntime:
    """Mutable per-loop state threaded through the tick function.

    A runtime is built from its loop's description alone: its model,
    controller, detector, anomaly schedule, ``t_max``, coupled-mode applied
    input, bounds and trace column names.  It starts its own run state:
    the estimate at the model's prior (``EstimatorState.initial``), a zero
    last input, the plant at ``mu0`` and no episode.  How many ticks a run
    has is the scheduler's to say (:func:`cpsrecover.sim.run_loops`).

    The loop ticks at ``0, dt, 2 dt, ...``; ``rows`` counts its ticks so
    far, so it is the row the next tick reads and writes.  The runtime
    holds rows ``lo`` on, as many as :meth:`hold` was last asked for, and
    built, it holds none: the scheduler holds every tick of a run that
    keeps its whole trace, or fresh rows for each block of a run that hands
    each finished block to a sink.  ``flags`` (Booleans) and ``detected``
    (0/1) give the detector's flags of each held row: :meth:`start_block`
    resolves an oracle's a block at a time, and residual-threshold ticks
    fill their own rows.  ``trace`` holds the loop's trace columns,
    ``flags`` among them as ``ads_flags``, and each tick writes its row;
    ``columns`` names the columns of a state, sensor and input.  No tick
    writes ``ee_bound``, nor ``rsee_bound`` without ``bounds``: each is
    one shared read-only row (``np.broadcast_to``, row stride 0), so it
    costs no memory per row.  ``logged_u`` holds each row's logged input:
    the ``u`` column itself, or, where ``applied_input`` is set, an array
    of its own, NaN until a tick logs its row.  The scheduler steps the
    plant and keeps its state in ``x_true``, which the tick records.
    """

    model: SubsystemModel
    # (x_hat, t) -> u, a 1-D float array of the model's n_u inputs
    controller: Callable[[np.ndarray, float], np.ndarray]
    ads: AdsConfig
    schedule: AnomalySchedule
    t_max: float                      # maximum tolerable anomaly duration, s
    # set by the scheduler when the logged input differs from h()'s output
    # (coupled plant mode logs the input actually applied to the plant);
    # u -> the applied input, an array like u
    applied_input: Callable[[np.ndarray], np.ndarray] = None
    bounds: BoundParams | None = None  # fills the bound columns
    columns: tuple | None = None      # (state, meas, input) column names
    est: EstimatorState = field(init=False)
    last_u: np.ndarray = field(init=False)  # input applied at the last tick
    x_true: np.ndarray = field(init=False)  # plant state; mu0 until drawn
    episode: Episode | None = field(init=False, default=None)  # None: healthy
    # the recent innovations a residual-threshold detector averages; an
    # oracle detector reads none, so it keeps None
    innovations: deque | None = field(init=False, default=None)
    flags: np.ndarray = field(init=False, repr=False, default=None)
    detected: bytearray = field(init=False, repr=False, default=None)
    trace: dict = field(init=False, repr=False, default=None)
    logged_u: np.ndarray = field(init=False, repr=False, default=None)
    rows: int = field(init=False, default=0)
    lo: int = field(init=False, default=0)     # the first row held

    def __post_init__(self):
        self.est = EstimatorState.initial(self.model)
        self.last_u = np.zeros(self.model.n_u)
        self.x_true = np.asarray(self.model.mu0, float)
        if self.ads.mode == "residual-threshold":
            self.innovations = deque(maxlen=max(
                1, round(self.ads.detection_time / self.model.dt)))

    def hold(self, rows: int) -> None:
        """Hold ``rows`` fresh rows from row ``self.rows`` on, each with
        the defaults of the columns a tick may leave unwritten, and no
        flag set; :meth:`start_block` resolves an oracle's flags."""
        n_x, n_y, n_u = self.model.n_x, self.model.n_y, self.model.n_u
        # a column without a value on a tick (x_rec while healthy, k1 and
        # rsee_bound outside recovery, ee_bound without bounds) is NaN there;
        # a column no tick writes is one read-only row shared by every row
        nan_row = np.full(n_x, np.nan)
        ee_row = nan_row if self.bounds is None else self.bounds.eps_delta
        # a generic detector flags the loop as a whole: one flag
        self.flags = np.zeros((rows, n_y if self.ads.kind == "specific"
                               else 1), bool)
        self.detected = bytearray(rows)
        self.trace = {
            "t": np.empty(rows),
            "x_true": np.empty((rows, n_x)),
            "y_meas": np.empty((rows, n_y)),
            "x_hat": np.empty((rows, n_x)),         # estimator posterior
            "x_rf": np.empty((rows, n_x)),          # final estimate
            "x_rec": np.full((rows, n_x), np.nan),  # raw roll-forward vector
            "recovered": np.zeros((rows, n_x), bool),  # per-element mask
            "u": np.empty((rows, n_u)),
            "ads_flags": self.flags,
            "ckpt_event": np.zeros(rows, bool),
            "k1": np.full(rows, np.nan),            # checkpoint in use
            "rsee_bound": (np.broadcast_to(nan_row, (rows, n_x))
                           if self.bounds is None
                           else np.full((rows, n_x), np.nan)),
            "ee_bound": np.broadcast_to(ee_row, (rows, n_x)),
            "safe_stop": np.zeros(rows, bool),
        }
        self.logged_u = (self.trace["u"] if self.applied_input is None
                         else np.full((rows, n_u), np.nan))
        self.lo = self.rows

    def start_block(self, t_us: np.ndarray) -> None:
        """Resolve an oracle's flags of the held rows from ``rows`` on,
        ticking at the (integer µs) times ``t_us``.  A residual-threshold
        detector's rows stay clear until its ticks flag them."""
        if self.ads.mode == "oracle":
            n = self.rows - self.lo
            flags = oracle_flags(self.ads, self.schedule, t_us, self.model.n_y)
            self.flags[n:n + len(flags)] = flags
            self.detected[n:n + len(flags)] = flags.any(axis=1).tobytes()


def element_mask(K: np.ndarray, flags: np.ndarray, kind: str) -> np.ndarray:
    """Map detector flags to the estimate elements that depend on them.

    Specific detector: nonzero pattern of ``K @ flags``.  Generic detector:
    every element.
    """
    if kind == "generic":
        return np.ones(K.shape[0], dtype=bool)
    g = np.abs(K.dot(np.asarray(flags, float)))
    return g > GAIN_ZERO_TOL


def _mask(K: np.ndarray, flags: np.ndarray, kind: str) -> tuple:
    """The read-only :func:`element_mask` and whether it is full."""
    mask = element_mask(K, flags, kind)
    mask.flags.writeable = False
    return mask, np.count_nonzero(mask) == mask.size


# _mask of read-only gains, keyed on what a mask depends on: the gain's
# shape, type and bytes, the flag row's type and bytes and the detector
# kind.  Read-only gains are the estimator's gain-table entries, which
# recur across ticks and runs; a new gain of each tick, as the pose loop's,
# is never a key.  Past _MASK_ENTRIES the oldest entry goes.
_MASKS: dict = {}
_MASK_ENTRIES = 1024


def _memo_mask(K: np.ndarray, flags: np.ndarray, kind: str) -> tuple:
    key = (K.shape, K.dtype.char, K.tobytes(), flags.dtype.char,
           flags.tobytes(), kind)
    hit = _MASKS.get(key)
    if hit is None:
        if len(_MASKS) >= _MASK_ENTRIES:
            del _MASKS[next(iter(_MASKS))]
        hit = _MASKS[key] = _mask(K, flags, kind)
    return hit


def replay(model: SubsystemModel, x: np.ndarray, inputs) -> np.ndarray:
    """Roll ``x`` forward through the predict step, one step per logged
    input of ``inputs``, each an array of the model's ``n_u`` inputs."""
    for u in inputs:
        x = model.f(x, u)
    return x


def roll_forward_recover(rt: SubsystemRuntime, store: SecureStore,
                         x_hat: np.ndarray, K: np.ndarray, flags: np.ndarray,
                         detection_times: dict, t: float, prior):
    """Recovery step at time ``t`` for a detected anomaly.

    On the first detected tick of an episode the estimate is re-rolled from
    the most recent consistent checkpoint through the logged controls; on
    later ticks a single predict step extends the episode's roll-forward
    value.  ``prior`` is the estimator's prior mean on this tick, ``f`` of
    the current estimate and the last input: when the previous tick took
    every element from the roll-forward, the estimate *is* that value, so
    ``prior`` is its predict step.  Returns ``(x_hat_updated, x_rec, mask,
    k1)``; ``k1`` is ``None`` unless this call re-rolled, and a full mask
    returns ``x_rec`` itself as the updated estimate.  The mask is
    read-only.  A read-only ``K``, a gain-table entry, takes its mask from
    a memo keyed on the gain's and the flags' bytes and the detector kind,
    which every later tick and run with the same three shares; any other
    ``K`` computes its own.
    """
    model = rt.model
    ep = rt.episode
    k1 = None
    if ep is None:
        dt_us = to_us(model.dt)
        k1 = consistent_checkpoint(store, detection_times, t)
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
        x_rec = replay(model, cps[0].x_hat, [c.u for c in controls])
    elif rt.est.x_hat is ep.x_rec:
        x_rec = prior
    else:
        x_rec = model.f(ep.x_rec, rt.last_u)

    mask, full = (_mask if K.flags.writeable else _memo_mask)(
        K, flags, rt.ads.kind)
    if full:
        return x_rec, x_rec, mask, k1
    x_new = x_hat.copy()
    x_new[mask] = x_rec[mask]
    return x_new, x_rec, mask, k1


def subsystem_tick(rt: SubsystemRuntime, store: SecureStore, c_k: bool,
                   y_now: np.ndarray, t: float,
                   detection_times: dict) -> str | None:
    """One loop iteration at time ``t`` with measurement ``y_now``.

    Order: estimate, detect, recover (if flagged), control, log control,
    checkpoint (healthy tick with checkpoint Boolean ``c_k`` set), safe-stop
    check; ``detection_times`` maps every loop id to its detection time.
    The tick reads its flags from, and writes its trace row to, row
    ``rt.rows`` of ``rt``, its held row ``rt.rows - rt.lo``, then counts
    itself.  Returns why the run must stop, or None to go on; a stopping
    tick sets its row's ``safe_stop``, which no other tick writes.  The one
    exception that leaves the tick is the store's :class:`IntegrityError`,
    which a recovering tick's ``retrieve`` raises on a store that fails its
    check; the run ends with it.  A tick past its episode's tolerable
    duration returns ``"anomaly duration exceeded maximum tolerable
    duration"``.  When recovery is impossible the tick writes its row, the
    estimate and flags, ``u`` NaN (no control was computed or logged) and
    nothing recovered, and returns ``"unrecoverable: <why>"``, the message
    of the :class:`UnrecoverableError` that recovery raised.
    """
    model = rt.model
    k = rt.rows
    n = k - rt.lo
    est, K, innovation, prior = estimator_step(model, rt.est, rt.last_u,
                                               y_now)
    if rt.innovations is not None:
        rt.innovations.append(np.atleast_1d(innovation))
        rt.flags[n] = ads_evaluate(rt.ads, rt.innovations)
        rt.detected[n] = bool(rt.flags[n].any())
    detected = rt.detected[n]

    tr = rt.trace
    tr["t"][n] = t
    tr["x_true"][n] = rt.x_true
    tr["y_meas"][n] = y_now
    tr["x_hat"][n] = x_hat = est.x_hat
    if detected:
        try:
            x_hat, x_rec, mask, k1 = roll_forward_recover(
                rt, store, x_hat, K, rt.flags[n], detection_times, t, prior)
        except UnrecoverableError as exc:
            tr["x_rf"][n] = x_hat
            tr["u"][n] = np.nan
            tr["safe_stop"][n] = True
            rt.rows = k + 1
            return f"unrecoverable: {exc}"

    u = rt.controller(x_hat, t)
    if rt.applied_input is None:
        u_logged = u
    else:
        u_logged = rt.logged_u[n] = rt.applied_input(u)
    store.append_control(model.id, t, u_logged)

    tr["x_rf"][n] = x_hat
    tr["u"][n] = u
    # commit runtime state; no step changes an estimate in place
    rt.rows = k + 1
    rt.last_u = u_logged
    if not detected:
        if c_k:
            store.append_checkpoint(model.id,
                                    Checkpoint(t, x_hat, rt.flags[n]))
            tr["ckpt_event"][n] = True
        rt.est = est
        rt.episode = None
        return None

    rt.est = EstimatorState(x_hat, est.P, est.gain_table)
    ep = rt.episode
    if ep is None:
        ep = rt.episode = Episode(t, k1, x_rec, to_us(t) + to_us(rt.t_max))
    else:
        ep.x_rec = x_rec
    tr["x_rec"][n] = x_rec
    tr["recovered"][n] = mask
    tr["k1"][n] = ep.k1
    if rt.bounds is not None:
        tr["rsee_bound"][n] = recovery_error_bound_at(
            rt.bounds, k, to_us(ep.k1) // to_us(model.dt))
    if to_us(t) > ep.deadline_us:
        tr["safe_stop"][n] = True
        return "anomaly duration exceeded maximum tolerable duration"
    return None
