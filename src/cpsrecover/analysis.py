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

The bound over a chain of ``n`` predict steps is the row
``B_n = D_n + S_n + phi_bar`` with ``D_n = |A|^n eps_delta`` and
``S_n = sum_{p=1..n} |A|^p eps_omega``.  It depends on ``k`` and ``k1``
only through ``n = k - k1``, so each :class:`BoundParams` caches the rows
``B_n`` for every ``n`` evaluated so far and extends them on demand; a
bound is a copy of one row, and costs the same deep into an episode as at
its start.  The gap bound reads two rows, and a duration search reads one
row per duration, so a search over ``T`` ticks costs ``O(T)``.
``BoundParams`` is immutable, with read-only arrays and finite inputs, so
the cache can never go stale; derive a variant with
:func:`dataclasses.replace`, which starts a fresh cache.
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

import math
from dataclasses import dataclass, field

import numpy as np

from .timebase import to_s, to_us

_SIGMA_FACTOR = 6.0   # calibrated bounds sit this many std devs out
_FLOAT_MAX = np.finfo(float).max


class _ChainSums:
    """Bound rows ``B_n = D_n + S_n + phi_bar`` for ``n = 0, 1, ...``, grown
    on demand.

    Rows live in one 2-D array whose capacity doubles, and each growth
    fills it to capacity, so ``n`` rows cost ``O(n)`` time and memory in
    total and a scan asking for one more row at a time grows the cache
    once per doubling.  ``D_{n+1} + S_{n+1}`` is ``|A| (D_n + S_n +
    eps_omega)``; only the last such sum is kept beside the rows.
    """

    def __init__(self, A_abs: np.ndarray, eps_delta: np.ndarray,
                 eps_omega: np.ndarray, phi_bar: np.ndarray):
        self._A_abs = A_abs
        self._eps_omega = eps_omega
        self._phi_bar = phi_bar
        self._last = eps_delta          # D_n + S_n of the last row
        self.rows = np.empty((16, len(eps_delta)))
        self.rows[0] = eps_delta + phi_bar
        self._len = 1

    def upto(self, n: int) -> np.ndarray:
        """The rows, grown to hold row ``n``."""
        if n >= self._len:
            self._grow(n)
        return self.rows

    def _grow(self, n: int) -> None:
        if n >= len(self.rows):
            rows = np.empty((max(2 * len(self.rows), n + 1),
                             self.rows.shape[1]))
            rows[:self._len] = self.rows[:self._len]
            self.rows = rows
        new, A_abs, w = self.rows[self._len:], self._A_abs, self._eps_omega
        with np.errstate(over="ignore", invalid="ignore"):
            # the new rows hold D + S until phi_bar is added at the end
            prev = self._last
            for row in new:
                np.matmul(A_abs, prev + w, out=row)
                prev = row
            # an element that overflows holds +inf, and a zero of |A| times
            # it makes NaN in the next row; that product of 0 and a finite
            # value is 0, so from the first NaN row on the rows are summed
            # without it (no inf - inf: every operand is nonnegative)
            nan = np.isnan(new).any(axis=1)
            if nan.any():
                first = nan.argmax()
                prev = new[first - 1] if first else self._last
                for row in new[first:]:
                    np.nansum(A_abs * (prev + w), axis=1, out=row)
                    prev = row
            self._last = new[-1].copy()
            new += self._phi_bar
        self._len = len(self.rows)


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
            if np.any(np.isnan(fields["E_max"])):
                raise ValueError("E_max must not be NaN")
        for name in ("A_bar", "eps_delta", "eps_omega", "phi_bar"):
            if not np.all(np.isfinite(fields[name])):
                raise ValueError(f"{name} must be finite")
            if name != "A_bar" and np.any(fields[name] < 0):
                raise ValueError(f"{name} must be element-wise nonnegative")
        for name in ("tick", "mu"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (math.isfinite(self.t_search_max) and self.t_search_max >= 0):
            raise ValueError("t_search_max must be finite and nonnegative")
        for name, value in fields.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_sums", _ChainSums(
            np.abs(A_bar), self.eps_delta, self.eps_omega, self.phi_bar))


def recovery_error_bound_at(params: BoundParams, k: int, k1: int) -> np.ndarray:
    """Bound on the recovered-estimate error at tick ``k`` (chain from ``k1``).

    ``|A|^(k-k1) eps_delta + sum_{p=1}^{k-k1} |A|^p eps_omega + phi_bar``
    for every element; callers index it with the recovery mask.  The tick
    indices may be integer-valued floats.
    """
    if k <= k1:
        raise ValueError("error bound requires k > k1")
    n = round(k - k1)
    return params._sums.upto(n)[n].copy()


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
    sums = params._sums
    rows = sums.upto(n0 + 1)
    if (rows[n0 + 1] > E).any():
        return 0.0, rows[n0 + 1].copy(), rows[n0 + 1].copy()
    for T in range(2, max_ticks + 1):
        rows = sums.upto(n0 + T)
        if (rows[n0 + T] > E).any():
            return (T - 1) * tick, rows[n0 + T - 1].copy(), rows[n0 + T].copy()
    lo = max(max_ticks, 1)
    rows = sums.upto(n0 + lo + 1)
    return lo * tick, rows[n0 + lo].copy(), rows[n0 + lo + 1].copy()


def accuracy_resource_gap_bound(params: BoundParams, k: int, s: float) -> np.ndarray:
    """Bound on the gap between frequency-``mu`` and every-tick recovery.

    Difference of the error bounds at tick ``k`` anchored at the
    frequency-``mu`` checkpoint and at the tick just before the anomaly
    start, clamped at zero.  Zero when ``mu`` already checkpoints every tick.
    """
    tick = params.tick
    k1 = checkpoint_time_before_anomaly(s, params.delta_s, params.mu, tick)
    k1_t = round(k1 / tick)
    opt_t = round(s / tick) - 1
    if k1_t >= opt_t:
        return np.zeros_like(params.eps_delta)
    if k <= opt_t:
        raise ValueError("error bound requires k > k1")
    n, n1 = round(k - opt_t), round(k - k1_t)
    rows = params._sums.upto(n1)
    # capping the shorter chain's bound turns inf - inf into +inf rather than
    # NaN; where only the shorter chain overflows, the gap clamps to 0
    return np.maximum(rows[n1] - np.minimum(rows[n], _FLOAT_MAX), 0.0)


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
    the first tick, instead of on every tick, and a zero ``phi_bar``.  With
    ``lti=False`` calibration makes one model evaluation per record, not
    per tick: ``jac_A`` on the stack of its ``x_hat`` rows, and two ``f``
    calls and one ``jac_A`` on the stack of its recovering rows, as
    :class:`~cpsrecover.models.SubsystemModel`'s stack contract allows.

    ``ValueError``, naming the record and the array, is raised before any
    model evaluation if a record's arrays differ in row count or do not
    match the model's widths, or, with ``lti=False``, if ``x_true``,
    ``x_hat`` or ``u`` is not finite or ``x_rec`` holds an infinity.
    """
    n = model.n_x
    A_bar = np.zeros((n, n))
    err_samples = []
    phi_bar = np.zeros(n)
    for i, rec in enumerate(records):
        x_true, x_hat, x_rec, u, mask = _checked_record(model, i, rec, lti)
        if not len(x_true):
            continue
        jac = model.jac_A(x_hat[0], u[0]) if lti else model.jac_A(x_hat, u)
        # a Jacobian that holds for every row may come back as one matrix
        jac = np.reshape(jac, (-1, n, n))
        A_bar = np.maximum(A_bar, np.abs(jac).max(axis=0))
        healthy = ~mask
        rows = healthy.any(axis=1)
        err_samples.append(np.where(healthy[rows],
                                    x_true[rows] - x_hat[rows], np.nan))
        if not lti:
            phi_bar = np.maximum(
                phi_bar, _episode_remainders(model, x_true, x_rec, u, mask))
    errs = np.concatenate([np.empty((0, n))] + err_samples)
    never = np.flatnonzero(np.isnan(errs).all(axis=0))
    if never.size:
        raise ValueError("calibration needs a healthy sample of every state "
                         f"element; element(s) {never.tolist()} have none")
    sigma = np.sqrt(np.nanmean(errs ** 2, axis=0))
    return BoundParams(A_bar=A_bar, eps_delta=_SIGMA_FACTOR * sigma,
                       eps_omega=_SIGMA_FACTOR * np.sqrt(np.diag(model.Q)),
                       phi_bar=phi_bar, tick=tick, mu=mu)


def _checked_record(model, i: int, rec, lti: bool) -> tuple:
    """Record ``i``'s ``x_true``, ``x_hat``, ``x_rec``, ``u`` and
    ``recovered`` as float arrays (the mask Boolean), checked as
    :func:`calibrate_bound_params` says."""
    names = ("x_true", "x_hat", "x_rec", "u", "recovered")
    arrays = [np.asarray(rec[name], bool if name == "recovered" else float)
              for name in names]
    rows = np.shape(arrays[0])[:1]
    for name, a in zip(names, arrays):
        want = rows + ((model.n_u if name == "u" else model.n_x),)
        if a.shape != want:
            raise ValueError(f"record {i}: {name} has shape {a.shape}, "
                             f"expected {want}")
        if not lti and name != "recovered" and not np.isfinite(
                a[~np.isnan(a)] if name == "x_rec" else a).all():
            raise ValueError(f"record {i}: {name} is not finite")
    return tuple(arrays)


def _episode_remainders(model, x_true, x_rec, u, mask) -> np.ndarray:
    """Max accumulated nonlinear remainder along each recovery episode.

    Propagates ``phi_{k+1} = |A| phi_k + |f(x) - f(xr) - A (x - xr)|``
    with the Jacobian evaluated at the roll-forward value, over the rows
    that recover some element and have a roll-forward value; each run of
    consecutive such rows is one episode, and ``phi`` starts it at zero.
    Every residual comes from one stack of those rows; only the recurrence
    runs row by row.
    """
    x_rec = np.asarray(x_rec, float)
    rows = np.flatnonzero(np.any(mask, axis=1)
                          & ~np.any(np.isnan(x_rec), axis=1))
    n = model.n_x
    xt, xr, uk = np.asarray(x_true)[rows], x_rec[rows], np.asarray(u)[rows]
    A = np.broadcast_to(model.jac_A(xr, uk), (len(rows), n, n))
    resids = np.abs(model.f(xt, uk) - model.f(xr, uk)
                    - np.matmul(A, (xt - xr)[..., None])[..., 0])
    A_abs = np.abs(A)
    accs = np.empty((len(rows), n))
    last = -2
    for i, k in enumerate(rows.tolist()):
        if k != last + 1:
            acc = np.zeros(n)
        acc = accs[i] = A_abs[i].dot(acc) + resids[i]
        last = k
    return np.max(accs, axis=0, initial=0.0)
