"""Error-bound formulas for recovered and healthy state estimates.

All bounds work on per-element absolute values.  Conventions:

* ``k`` and ``k1`` are sub-system tick indices (integers); one tick is
  ``params.tick`` seconds.
* ``recovery_error_bound_at(params, k, k1)`` bounds the recovered-state-
  estimate error (RSEE) *at* tick ``k``, with the predict chain anchored
  at the checkpoint tick ``k1``: ``k - k1`` predict steps.
* matrix powers are taken of ``|A_bar|`` (element-wise absolute value
  first), which upper-bounds ``|A_bar^n|`` element-wise and keeps the
  bound monotone.

The bound over a chain of ``n`` predict steps is
``D_n + S_n + phi_bar`` with ``D_n = |A|^n eps_delta`` and
``S_n = sum_{p=1..n} |A|^p eps_omega``.  It depends on ``k`` and ``k1``
only through ``n = k - k1``, so each :class:`BoundParams` caches the
sums ``D_n + S_n`` for every ``n`` evaluated so far and extends them on
demand: a bound costs the same deep into an episode as at its start, and
a duration search over ``T`` ticks costs ``O(T)``.  ``BoundParams`` is
immutable, with read-only arrays, so the cache can never go stale; derive
a variant with :func:`dataclasses.replace`, which starts a fresh cache.
Every bound returned is a new array that the caller may modify.  An
element that overflows a float is +inf, a valid but vacuous bound, and
so is every element that ``|A|`` couples to it in a longer chain; an
element it never couples to keeps its finite value, and no bound is ever
NaN.

``checkpoint_time_before_anomaly`` maps an anomaly start time to the
checkpoint the recovery will roll forward from; its definition beyond the
every-tick-checkpointing regime is a documented interpretation: the
largest checkpoint-grid time strictly before the anomaly start.  A
checkpoint before the start is also older than the detection window at
the moment of detection, so that exclusion, which checkpoint selection
applies, removes nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .timebase import to_s, to_us

_SIGMA_FACTOR = 6.0   # calibrated bounds sit this many std devs out
_FLOAT_MAX = np.finfo(float).max


class _ChainSums:
    """``D_n + S_n`` for ``n = 0, 1, ...``, grown on demand.

    Rows live in one 2-D array whose capacity doubles, and each growth
    fills it to capacity, so ``n`` rows cost ``O(n)`` time and memory in
    total and a scan asking for one more row at a time grows the cache
    once per doubling.  Row ``n + 1`` follows from row ``n`` by
    ``|A| (row_n + eps_omega)``.
    """

    def __init__(self, A_abs: np.ndarray, eps_delta: np.ndarray,
                 eps_omega: np.ndarray):
        self._A_abs = A_abs
        self._eps_omega = eps_omega
        self._rows = np.empty((16, len(eps_delta)))
        self._rows[0] = eps_delta
        self._len = 1

    def at(self, n: int) -> np.ndarray:
        """Row ``n``, a view into the cache."""
        if n >= self._len:
            self._grow(n)
        return self._rows[n]

    def _grow(self, n: int) -> None:
        if n >= len(self._rows):
            rows = np.empty((max(2 * len(self._rows), n + 1),
                             self._rows.shape[1]))
            rows[:self._len] = self._rows[:self._len]
            self._rows = rows
        rows, A_abs, w = self._rows, self._A_abs, self._eps_omega
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self._len, len(rows)):
                np.matmul(A_abs, rows[i - 1] + w, out=rows[i])
            # an element that overflows holds +inf, and a zero of |A| times
            # it makes NaN in the next row; that product of 0 and a finite
            # value is 0, so from the first NaN row on the rows are summed
            # without it (no inf - inf: every operand is nonnegative)
            nan = np.isnan(rows[self._len:]).any(axis=1)
            if nan.any():
                for i in range(self._len + nan.argmax(), len(rows)):
                    np.nansum(A_abs * (rows[i - 1] + w), axis=1, out=rows[i])
        self._len = len(rows)


@dataclass(frozen=True)
class BoundParams:
    """Inputs shared by all bound formulas.

    ``A_bar`` bounds the dynamics Jacobian element-wise, ``eps_delta`` the
    healthy estimator error, ``eps_omega`` the process noise and ``phi_bar``
    the accumulated Taylor remainders of the nonlinear dynamics (zero for
    LTI loops).  ``E_max`` is the maximum permissible error, ``delta_s`` the
    minimum time between anomalies, ``mu`` the checkpointing frequency and
    ``tick`` the sub-system loop period in seconds.

    Instances are immutable and their arrays read-only; use
    :func:`dataclasses.replace` for a variant.
    """

    A_bar: np.ndarray
    eps_delta: np.ndarray
    eps_omega: np.ndarray
    phi_bar: np.ndarray = None
    E_max: np.ndarray = None
    delta_s: float = 0.0
    mu: float = 1.0
    tick: float = 1.0
    t_search_max: float = 1000.0      # grid-search horizon cap, seconds
    _sums: _ChainSums = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A_bar = np.array(np.atleast_2d(np.asarray(self.A_bar, float)))
        n = A_bar.shape[0]

        def vector(value):
            return np.broadcast_to(np.asarray(value, float), (n,)).copy()

        fields = {"A_bar": A_bar,
                  "eps_delta": vector(self.eps_delta),
                  "eps_omega": vector(self.eps_omega),
                  "phi_bar": (np.zeros(n) if self.phi_bar is None
                              else vector(self.phi_bar))}
        if self.E_max is not None:
            fields["E_max"] = vector(self.E_max)
        for name in ("eps_delta", "eps_omega", "phi_bar"):
            if np.any(fields[name] < 0):
                raise ValueError(f"{name} must be element-wise nonnegative")
        for name, value in fields.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_sums", _ChainSums(
            np.abs(A_bar), self.eps_delta, self.eps_omega))


def _chain_bound(params: BoundParams, n: int) -> np.ndarray:
    """``D_n + S_n + phi_bar``: the bound after ``n`` steps."""
    return params._sums.at(n) + params.phi_bar


def recovery_error_bound_at(params: BoundParams, k: int, k1: int) -> np.ndarray:
    """Bound on the recovered-estimate error at tick ``k`` (chain from ``k1``).

    ``|A|^(k-k1) eps_delta + sum_{p=1}^{k-k1} |A|^p eps_omega + phi_bar``
    for every element; callers index it with the recovery mask.  The tick
    indices may be integer-valued floats.
    """
    if k <= k1:
        raise ValueError("error bound requires k > k1")
    return _chain_bound(params, round(k - k1))


def checkpoint_time_before_anomaly(s: float, delta_s: float, mu: float,
                                   tick: float) -> float:
    """Checkpoint time the recovery rolls forward from, for anomaly start ``s``.

    Largest multiple of ``1/mu``, or of the loop period ``tick`` if that is
    longer, strictly before ``s``, on the integer-microsecond grid; falls
    back to the t=0 checkpoint.  Such a checkpoint is older than the
    detection window however long after ``s`` the anomaly is detected, so
    ``delta_s`` does not change the result.
    """
    if s <= 0:
        raise ValueError("anomaly start must be positive")
    grid_us = max(to_us(1.0 / mu), to_us(tick))
    return to_s((to_us(s) - 1) // grid_us * grid_us)


def max_duration_certificate(params: BoundParams, s: float):
    """Largest anomaly duration whose error bound stays within ``E_max``.

    Returns ``(T_max, bound_at_T, bound_at_T_plus_tick)``, a bracketing
    certificate over tick-aligned durations.  In the degenerate case,
    ``E_max`` already violated at the smallest duration, ``T_max`` is 0 and
    ``np.any(bound_at_T > E_max)`` holds.  The first exceedance is found by
    a scan over durations of 1, 2, ... ticks, not a bisection: when ``|A|``
    contracts, ``D_n`` shrinks while ``S_n`` grows, so the bound need not
    be monotone in the duration.
    """
    if params.E_max is None:
        raise ValueError("E_max required")
    tick = params.tick
    k1 = checkpoint_time_before_anomaly(s, params.delta_s, params.mu, tick)
    # an anomaly lasting T ticks ends a chain of n0 + T predict steps
    n0 = round(s / tick) - round(k1 / tick)
    E = params.E_max
    max_ticks = int(params.t_search_max / tick)
    prev = _chain_bound(params, n0 + 1)
    if np.any(prev > E):
        return 0.0, prev, prev.copy()
    for T in range(2, max_ticks + 1):
        b = _chain_bound(params, n0 + T)
        if np.any(b > E):
            return (T - 1) * tick, prev, b
        prev = b
    lo = max(max_ticks, 1)
    return lo * tick, prev, _chain_bound(params, n0 + lo + 1)


def accuracy_resource_gap_bound(params: BoundParams, k: int, s: float) -> np.ndarray:
    """Bound on the gap between frequency-``mu`` and every-tick recovery.

    Difference of the error bounds at tick ``k`` anchored at the
    frequency-``mu`` checkpoint and at the tick just before the anomaly
    start, clamped at zero.  Zero when ``mu`` already checkpoints every tick.
    """
    tick = params.tick
    k1 = checkpoint_time_before_anomaly(s, params.delta_s, params.mu, tick)
    k1_t = round(k1 / tick)
    s_t = round(s / tick)
    opt_t = s_t - 1
    if k1_t >= opt_t:
        return np.zeros_like(params.eps_delta)
    # capping the shorter chain's bound turns inf - inf into +inf rather
    # than NaN; where only the shorter chain overflows, the gap clamps to 0
    lo = np.minimum(recovery_error_bound_at(params, k, opt_t), _FLOAT_MAX)
    return np.maximum(recovery_error_bound_at(params, k, k1_t) - lo, 0.0)


def calibrate_bound_params(model, records, tick: float, mu: float,
                           lti: bool) -> BoundParams:
    """Calibrate bound parameters from simulation traces.

    ``records`` is an iterable of per-run dicts with arrays ``x_true``,
    ``x_hat`` (final estimates), ``x_rec`` (roll-forward values, NaN when
    not recovering), ``u`` (applied inputs) and ``recovered`` (per-element
    masks), all indexed by tick.  Calibration:

    * ``A_bar``: element-wise max ``|Jacobian|`` along the trace,
    * ``eps_omega``: six times the process-noise std,
    * ``eps_delta``: six times the std of healthy-element estimation
      errors,
    * ``phi_bar``: element-wise max accumulated Taylor remainder over the
      recovery episodes (zero for LTI loops).

    ``lti=True`` declares a constant Jacobian, evaluated once per record, at
    the first tick, instead of on every tick, and a zero ``phi_bar``.
    """
    n = model.n_x
    A_bar = np.zeros((n, n))
    err_samples = []
    phi_bar = np.zeros(n)
    for rec in records:
        x_true = np.asarray(rec["x_true"], float)
        if not len(x_true):
            continue
        x_hat = np.asarray(rec["x_hat"], float)
        x_rec = rec["x_rec"]
        u = rec["u"]
        mask = np.asarray(rec["recovered"], bool)
        ticks = range(1 if lti else len(x_true))
        jac = np.array([model.jac_A(x_hat[k], u[k]) for k in ticks])
        A_bar = np.maximum(A_bar, np.abs(jac).max(axis=0))
        healthy = ~mask
        rows = healthy.any(axis=1)
        err_samples.append(np.where(healthy[rows],
                                    x_true[rows] - x_hat[rows], np.nan))
        if not lti:
            phi_bar = np.maximum(
                phi_bar, _episode_remainders(model, x_true, x_rec, u, mask))
    errs = np.concatenate([np.empty((0, n))] + err_samples)
    if not len(errs):
        raise ValueError("calibration needs at least one healthy sample")
    sigma = np.sqrt(np.nanmean(errs ** 2, axis=0))
    return BoundParams(A_bar=A_bar, eps_delta=_SIGMA_FACTOR * sigma,
                       eps_omega=_SIGMA_FACTOR * np.sqrt(np.diag(model.Q)),
                       phi_bar=phi_bar, tick=tick, mu=mu)


def _episode_remainders(model, x_true, x_rec, u, mask) -> np.ndarray:
    """Max accumulated nonlinear remainder along each recovery episode.

    Propagates ``phi_{k+1} = |A| phi_k + |f(x) - f(xr) - A (x - xr)|``
    with the Jacobian evaluated at the roll-forward value.
    """
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
