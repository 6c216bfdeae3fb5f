"""Shared model builders and reference computations for the test suite."""

import hashlib
import math
import struct
import types

import numpy as np
from hypothesis import strategies as st

from cpsrecover.analysis import checkpoint_time_before_anomaly
from cpsrecover.config import default_config
from cpsrecover.estimator import _REG, EstimatorState
from cpsrecover.framework import SubsystemRuntime
from cpsrecover.models import SubsystemModel, identity
from cpsrecover.store import (Checkpoint, SecureStore, _unpack_checkpoint,
                              _unpack_control)
from cpsrecover.timebase import to_us


# build_case_study overrides: an inner-1 window from t = 0 that its detector
# flags at once, so the first inner-1 tick finds no checkpoint to recover from
UNRECOVERABLE = {
    "horizon": 2.0,
    "anomalies": {"inner-1": [{"t_start": 0.0, "t_end": 1.0,
                               "y_a": [20000.0], "gamma": [1]}]},
    "ads": {"inner-1": {"kind": "specific", "mode": "oracle",
                        "detection_time": 0.0, "threshold": 0.0}},
}


# (log, loop, time) of a record that ``tamper_after_append`` edits in the
# seed-42 default run: the first inner-1 checkpoint, which the cut at 1 s
# checks first, and the inner-2 control at 3.2 s, which the outer loop's
# recovery at 3.5 s checks first
MID_RUN_EDITS = {"cut": ("checkpoint", "inner-1", 0.0),
                 "recovery": ("control", "inner-2", 3.2)}


def tamper_after_append(monkeypatch, log: str, subsystem: str,
                        t: float) -> None:
    """Patch ``SecureStore`` so that the record its ``log``, "checkpoint"
    or "control", of ``subsystem`` gets at ``t`` is edited in place right
    after it is appended."""
    name = f"append_{log}"
    append = getattr(SecureStore, name)

    def append_then_tamper(store, sid, *args):
        append(store, sid, *args)
        at = args[0].t if log == "checkpoint" else args[0]
        if sid == subsystem and to_us(at) == to_us(t):
            store._tamper(sid, which=log, index=-1)

    monkeypatch.setattr(SecureStore, name, append_then_tamper)


def long_periodic_config(horizon: float = 160.0) -> dict:
    """The 160 s case with a 1.75 s burst every 5 s on every loop, built as
    the benchmark's long-periodic workload builds it, or its schedule over
    another horizon."""
    cfg = default_config()
    cfg["seed"], cfg["horizon"] = 1, horizon
    n = int((horizon - 3.25 - 1.75) // 5.0) + 1
    for sid, (first, second) in cfg["anomalies"].items():
        cfg["anomalies"][sid] = [
            dict(first if i % 2 == 0 else second,
                 t_start=3.25 + 5.0 * i, t_end=3.25 + 5.0 * i + 1.75)
            for i in range(n)]
    return cfg


def prior(n: int) -> dict:
    """``mu0``/``Sigma0`` keywords for an ``n``-state model: zero mean and
    identity covariance."""
    return {"mu0": np.zeros(n), "Sigma0": np.eye(n)}


def scalar_lti_model(a=1.0, b=1.0, c=1.0, q=0.0, r=0.0, dt=1.0, x0=0.0,
                     p0=1.0, model_id="lti"):
    """x_{k+1} = a x + b u, y = c x; handy scalar test system."""
    A = np.array([[a]])
    C = np.array([[c]])
    return SubsystemModel(
        id=model_id, n_x=1, n_y=1, n_u=1,
        f=lambda x, u: A @ x + np.array([b]) * u[0],
        g=lambda x, u: C @ x,
        jac_A=lambda x, u: A, jac_C=lambda x, u: C,
        Q=np.array([[q]]), R=np.array([[r]]), dt=dt,
        mu0=np.array([x0]), Sigma0=np.array([[p0]]))


def random_lti_model(rng, n=None, dt=1.0):
    """Random LTI system with identity measurement; returns (model, A, B)."""
    n = n if n is not None else int(rng.integers(1, 6))
    m = int(rng.integers(1, n + 1))
    A = rng.uniform(-1, 1, (n, n))
    B = rng.uniform(-1, 1, (n, m))
    C = np.eye(n)
    model = SubsystemModel(
        id="rand-lti", n_x=n, n_y=n, n_u=m,
        f=lambda x, u: A @ x + B @ u,
        g=lambda x, u: C @ x,
        jac_A=lambda x, u: A, jac_C=lambda x, u: C,
        Q=np.zeros((n, n)), R=np.zeros((n, n)), dt=dt, **prior(n))
    return model, A, B


def ticking_runtime(model, ads, schedule, ticks: int,
                    t_max: float = 100.0) -> SubsystemRuntime:
    """A runtime of ``model`` with a zero controller that a test ticks by
    hand: it holds a row for each of its ``ticks``, as ``sim.run_loops``
    does for a run that keeps whole traces, and has resolved their
    flags."""
    rt = SubsystemRuntime(model=model,
                          controller=lambda x, t: np.zeros(model.n_u),
                          ads=ads, schedule=schedule, t_max=t_max)
    rt.hold(ticks)
    rt.start_block(np.arange(ticks) * to_us(model.dt))
    return rt


def _decoded(logs: dict, subsystem: str, unpack) -> list:
    chain = logs.get(subsystem)
    return [unpack(p) for p in chain.payloads] if chain else []


def checkpoints_of(store, subsystem: str) -> list:
    """A loop's checkpoint records, decoded in append order (none for an
    unknown loop); the store is not verified."""
    return _decoded(store._checkpoints, subsystem, _unpack_checkpoint)


def controls_of(store, subsystem: str) -> list:
    """A loop's control records, decoded in append order (none for an
    unknown loop); the store is not verified."""
    return _decoded(store._controls, subsystem, _unpack_control)


def full_store(result) -> SecureStore:
    """Every record a finished run appended, rebuilt from its trace under
    its store's key: on each loop's checkpoint log, one checkpoint per
    ``ckpt_event`` row, of the row's final estimate and flags; on its
    control log, the logged input of every row but an unrecoverable
    stop's, which logged none.

    Asserts that the run's own store holds a suffix of each rebuilt log,
    tag for tag, and that the log's anchor is the rebuilt tag and time just
    before that suffix, and its dropped count that suffix's offset.  Each
    tag commits to its whole chain, so the rebuilt history is the one the
    run hashed.
    """
    full = SecureStore()
    full._key = result.store._key
    unrecoverable = {e["subsystem"] for e in result.events
                     if e["reason"].startswith("unrecoverable")}
    for rt in result.loops:
        sid, tr = rt.model.id, result.traces[rt.model.id]
        rows = len(tr["t"]) - (sid in unrecoverable)
        for k in np.flatnonzero(tr["ckpt_event"]):
            full.append_checkpoint(sid, Checkpoint(
                tr["t"][k], tr["x_rf"][k], tr["ads_flags"][k]))
        for k in range(rows):
            full.append_control(sid, tr["t"][k], rt.logged_u[k])
    run = result.store
    assert run.subsystems() == full.subsystems()
    for logs in ("_checkpoints", "_controls"):
        for sid, rebuilt in getattr(full, logs).items():
            chain = getattr(run, logs)[sid]
            n = chain.dropped
            assert chain.payloads == rebuilt.payloads[n:], chain.label
            assert chain.tags == rebuilt.tags[n:], chain.label
            assert (chain.anchor, chain.anchor_t) == (
                (rebuilt.tags[n - 1],
                 struct.unpack_from("<d", rebuilt.payloads[n - 1], 1)[0]) if n
                else (b"\x00" * 32, -math.inf)), chain.label
    return full


def finite_difference_jacobian(fn, x, u, rel_h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of ``fn(x, u)`` w.r.t. ``x``."""
    x = np.asarray(x, float)
    f0 = np.asarray(fn(x, u), float)
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        h = rel_h * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(fn(xp, u), float) - np.asarray(fn(xm, u), float)) / (2 * h)
    return J


# -- reference EKF stages ----------------------------------------------------
# The predict / gain / update chain that ``estimator_step`` must equal bit for
# bit, kept here as the reference the estimator tests compare against.


def ekf_predict(model: SubsystemModel, est: EstimatorState, u):
    """Prior mean ``f(x_hat, u)`` and covariance ``A P A^T + Q``."""
    u = np.asarray(u, float)
    A = model.jac_A(est.x_hat, u)
    x_pred = model.f(est.x_hat, u)
    P_pred = A @ est.P @ A.T + model.Q
    return x_pred, P_pred


def ekf_gain(model: SubsystemModel, P_pred, x_pred, u) -> np.ndarray:
    """Kalman gain ``P C^T (C P C^T + R)^-1`` with C evaluated at the prior."""
    C = np.atleast_2d(model.jac_C(x_pred, np.asarray(u, float)))
    S = C @ P_pred @ C.T + model.R + _REG * identity(model.n_y)
    try:
        K = np.linalg.solve(S.T, (P_pred @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{model.id}: singular innovation covariance") from exc
    return K


def ekf_update(model: SubsystemModel, x_pred, P_pred, K, y_meas, u):
    """Measurement update; covariance ``(I - K C) P`` then symmetrized.

    Returns the posterior :class:`EstimatorState` and the innovation
    ``y_meas - g(x_pred, u)``.
    """
    u = np.asarray(u, float)
    y_meas = np.asarray(y_meas, float)
    C = np.atleast_2d(model.jac_C(x_pred, u))
    innov = y_meas - model.g(x_pred, u)
    x_hat = x_pred + K @ innov
    P = (identity(model.n_x) - K @ C) @ P_pred
    P = (P + P.T) / 2.0
    return EstimatorState(x_hat, P), innov


# -- reference CSV field ------------------------------------------------------


def reference_fmt(value) -> str:
    """One CSV field, rendered on its own: the rule ``sim.write_csv`` must
    keep.  Booleans and integers as integers, NaN as an empty field, any
    other float in Python's shortest round-trip repr."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if np.isnan(f):
        return ""
    return repr(f)


# -- reference anomaly schedule ----------------------------------------------
# The injection and oracle detector as a run once evaluated them on every
# tick, with the active window found by a scan; the schedule a run resolves
# once per loop must equal them tick by tick.


def reference_active_window(schedule, t: float):
    """The window with ``t_start <= t < t_end`` in integer µs, if any."""
    t_us = to_us(t)
    return next((w for w in schedule.windows
                 if to_us(w.t_start) <= t_us < to_us(w.t_end)), None)


def reference_inject_anomaly(y_healthy, schedule, t: float) -> np.ndarray:
    """``y + gamma * y_a`` inside a window; outside, ``y_healthy`` itself."""
    w = reference_active_window(schedule, t)
    if w is None:
        return y_healthy
    return np.asarray(y_healthy, float) + w.gamma * w.y_a


def reference_oracle_flags(n_y: int, schedule, t: float,
                           detection_time: float) -> np.ndarray:
    """A specific oracle detector's flags at ``t``."""
    flags = np.zeros(n_y, dtype=int)
    w = reference_active_window(schedule, t)
    if (w is not None
            and to_us(w.t_start) + to_us(detection_time) <= to_us(t)):
        flags |= w.gamma.astype(int)
    return flags


# -- reference roll-forward --------------------------------------------------
# Recovery as a tick once computed it, with ``model.f`` called for every
# roll-forward step; a tick that reuses the estimator's prior must equal it.


def reference_roll_forward(model: SubsystemModel, store, trace) -> np.ndarray:
    """Each recovering row's roll-forward value, NaN on the other rows.

    A row recovers when its ``k1`` is set.  The first row of an episode
    replays the logged controls in ``[k1, t)`` from the checkpoint at
    ``k1``; each later row is one predict step of the row before, with that
    row's logged control.  Controls are logged one per tick, so control
    ``n`` is row ``n``'s.
    """
    controls = controls_of(store, model.id)
    saved = {to_us(cp.t): cp.x_hat for cp in checkpoints_of(store, model.id)}
    out = np.full(trace["x_rec"].shape, np.nan)
    recovering = ~np.isnan(trace["k1"])
    x = None
    for n in np.flatnonzero(recovering):
        if n and recovering[n - 1]:
            x = model.f(x, controls[n - 1].u)
        else:
            k1_us, t_us = to_us(trace["k1"][n]), to_us(trace["t"][n])
            x = saved[k1_us]
            for c in controls:
                if k1_us <= to_us(c.t) < t_us:
                    x = model.f(x, c.u)
        out[n] = x
    return out


# -- reference element-wise arithmetic ---------------------------------------
# The numpy expressions the per-tick float kernels replace.  A kernel must
# equal its expression bit for bit on every input, the sign and payload of
# a NaN and the sign of a zero included.


def _from_bits(sign: int, quiet: int, payload: int) -> float:
    bits = sign << 63 | 0x7FF << 52 | quiet << 51 | payload
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# a NaN of either sign, quiet or signalling, with a random payload (an
# all-zero signalling payload is an infinity)
_nans = st.builds(_from_bits, st.integers(0, 1), st.integers(0, 1),
                  st.integers(0, 2 ** 51 - 1))
# every IEEE class: finite, +-inf, +-0, subnormals and NaNs
ieee_floats = st.one_of(
    st.floats(width=64, allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     2.0 ** -1060, 1.5, -2.5]),
    _nans)


def ieee_vectors(n: int):
    """``(n,)`` float64 arrays of :data:`ieee_floats`, their bits kept."""
    return st.lists(ieee_floats, min_size=n, max_size=n).map(np.array)


def reference_motor_f(params, dt, x, u):
    """A DC motor model's Euler step."""
    Rm, L = params.motor_resistance, params.motor_inductance
    A_c = np.array([[-Rm / L, -params.k_emf / L],
                    [params.k_torque / params.inertia,
                     -params.k_friction / params.inertia]])
    B_c = np.array([1.0 / L, 0.0])
    return x + np.multiply(A_c.dot(x) + B_c * u[0], np.array(dt, float))


def reference_pack_control(t: float, u) -> bytes:
    """A control record's payload."""
    u = np.asarray(u, "<f8")
    return b"U" + struct.pack("<dI", t, u.size) + u.tobytes()


def reference_tag(key: bytes, kind: bytes, sid: bytes, prev: bytes,
                  payload: bytes) -> bytes:
    """A record's tag, derived from the store key ``key`` by hand: the key
    hashed to 32 bytes, the log's key that key's BLAKE2s of the log's kind
    byte and sub-system id, and the tag that log key's BLAKE2s of the
    previous tag and the payload."""
    store_key = hashlib.blake2s(key).digest()
    log_key = hashlib.blake2s(kind + sid, key=store_key).digest()
    return hashlib.blake2s(prev + payload, key=log_key).digest()


def cold(fn):
    """``fn`` with a fresh copy of its bytecode.  CPython 3.11 specialises a
    float sum or product after its first few runs, and which of two NaN
    operands it keeps may change then, so a kernel is checked both warm
    and cold."""
    return types.FunctionType(fn.__code__.replace(), fn.__globals__,
                              fn.__name__, fn.__defaults__, fn.__closure__)


def outcome(fn, *args):
    """``fn(*args)`` as its float64 bytes and shape, or the type of what it
    raised, under numpy's errstate for invalid and overflowing values."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return out.dtype, out.shape, out.tobytes()


# -- reference bound formulas -------------------------------------------------
# The bounds as ``analysis`` once evaluated them on every call: a bound adds
# ``phi_bar`` to a cached chain sum ``D_n + S_n``, a gap subtracts two such
# bounds, a duration search steps one chain length at a time, and the
# remainders test every tick.  The cached rows must give the same bytes.


class ReferenceBounds:
    """Per-call bound formulas for one ``analysis.BoundParams``, over chain
    sums grown with the same recurrence, capacity doubling and NaN rule as
    the module's cache."""

    def __init__(self, params):
        self.params = params
        self._A_abs = np.abs(params.A_bar)
        self._rows = np.empty((16, len(params.eps_delta)))
        self._rows[0] = params.eps_delta
        self._len = 1

    def _at(self, n: int) -> np.ndarray:
        """``D_n + S_n``, a view into the cache."""
        if n >= self._len:
            rows = np.empty((max(2 * len(self._rows), n + 1),
                             self._rows.shape[1]))
            rows[:self._len] = self._rows[:self._len]
            A_abs, w = self._A_abs, self.params.eps_omega
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(self._len, len(rows)):
                    np.matmul(A_abs, rows[i - 1] + w, out=rows[i])
                nan = np.isnan(rows[self._len:]).any(axis=1)
                if nan.any():
                    for i in range(self._len + nan.argmax(), len(rows)):
                        np.nansum(A_abs * (rows[i - 1] + w), axis=1,
                                  out=rows[i])
            self._rows, self._len = rows, len(rows)
        return self._rows[n]

    def _chain_bound(self, n: int) -> np.ndarray:
        return self._at(n) + self.params.phi_bar

    def bound(self, k, k1) -> np.ndarray:
        """``recovery_error_bound_at``."""
        if k <= k1:
            raise ValueError("error bound requires k > k1")
        return self._chain_bound(round(k - k1))

    def gap(self, k, s) -> np.ndarray:
        """``accuracy_resource_gap_bound``."""
        p = self.params
        k1 = checkpoint_time_before_anomaly(s, p.delta_s, p.mu, p.tick)
        k1_t = round(k1 / p.tick)
        opt_t = round(s / p.tick) - 1
        if k1_t >= opt_t:
            return np.zeros_like(p.eps_delta)
        lo = np.minimum(self.bound(k, opt_t), np.finfo(float).max)
        return np.maximum(self.bound(k, k1_t) - lo, 0.0)

    def certificate(self, s):
        """``max_duration_certificate``."""
        p = self.params
        if p.E_max is None:
            raise ValueError("E_max required")
        tick, E = p.tick, p.E_max
        k1 = checkpoint_time_before_anomaly(s, p.delta_s, p.mu, tick)
        n0 = round(s / tick) - round(k1 / tick)
        max_ticks = int(p.t_search_max / tick)
        prev = self._chain_bound(n0 + 1)
        if np.any(prev > E):
            return 0.0, prev, prev.copy()
        for T in range(2, max_ticks + 1):
            b = self._chain_bound(n0 + T)
            if np.any(b > E):
                return (T - 1) * tick, prev, b
            prev = b
        lo = max(max_ticks, 1)
        return lo * tick, prev, self._chain_bound(n0 + lo + 1)


def reference_episode_remainders(model, x_true, x_rec, u, mask) -> np.ndarray:
    """``analysis._episode_remainders`` with every tick tested in turn."""
    worst = np.zeros(model.n_x)
    acc = None
    for k in range(len(x_true)):
        if np.any(mask[k]) and not np.any(np.isnan(x_rec[k])):
            if acc is None:
                acc = np.zeros(model.n_x)
            A = model.jac_A(x_rec[k], u[k])
            resid = np.abs(model.f(x_true[k], u[k]) - model.f(x_rec[k], u[k])
                           - A.dot(x_true[k] - x_rec[k]))
            acc = np.abs(A).dot(acc) + resid
            worst = np.maximum(worst, acc)
        else:
            acc = None
    return worst
