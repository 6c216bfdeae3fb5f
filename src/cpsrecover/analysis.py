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
only through ``n = k - k1``, so the rows ``B_n`` for every ``n``
evaluated so far are cached and extended on demand, one ``|A|`` product
per new row; a bound is a copy of one row, and costs the same deep into an
episode as at its start.  The rows depend only on ``A_bar``,
``eps_delta``, ``eps_omega`` and ``phi_bar``: every live
:class:`BoundParams` with equal such inputs reads one shared cache, so a
variant made by :func:`dataclasses.replace` of ``E_max``, ``mu`` or
``tick`` reads rows already grown, one with other row inputs starts a
fresh cache, and the rows go when the last set that reads them does.  A
gap bound is one row of the clamped differences ``B_{n+e} - B_n``, kept
for the last few chain offsets ``e`` and recomputed whole when the rows
grow.  A duration search compares each stretch of rows a growth adds with
``E_max`` at once, so a search over ``T`` ticks costs ``O(T)``.
``BoundParams`` is immutable, with read-only arrays and finite inputs, so
the cache can never go stale; it takes no lock, so threads that evaluate
sets with equal row inputs must hold one of their own.
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
import weakref
from dataclasses import dataclass, field

import numpy as np

from .timebase import to_s, to_us

_SIGMA_FACTOR = 6.0   # calibrated bounds sit this many std devs out
_FLOAT_MAX = np.finfo(float).max
_ROW_INPUTS = ("A_bar", "eps_delta", "eps_omega", "phi_bar")
_MEMO = 16            # entries a gap memo holds before it starts afresh
# row inputs' bytes -> the rows of every live BoundParams with those inputs
_SHARED_SUMS = weakref.WeakValueDictionary()


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
        self._gaps = {}                 # chain offset e -> gap rows

    def upto(self, n: int) -> np.ndarray:
        """The rows, grown to hold row ``n``."""
        if n >= self._len:
            self._grow(n)
        return self.rows

    def gaps(self, e: int, n: int) -> np.ndarray:
        """Gap rows ``max(B_{m+e} - min(B_m, FLOAT_MAX), 0)`` for every ``m``
        the rows hold, grown to hold ``B_n``; kept per offset ``e`` until
        the rows grow."""
        rows = self.upto(n)
        g = self._gaps.get(e)
        if g is None or len(g) + e < self._len:
            if len(self._gaps) >= _MEMO:
                self._gaps.clear()
            # capping the shorter chain's bound turns inf - inf into +inf
            # rather than NaN; where only the shorter chain overflows, the
            # gap clamps to 0
            g = self._gaps[e] = np.maximum(
                rows[e:self._len]
                - np.minimum(rows[:self._len - e], _FLOAT_MAX), 0.0)
        return g

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
            # value is 0, so from the first NaN row on, a row that comes out
            # NaN is summed again without it (no inf - inf: every operand is
            # nonnegative).  Each row is tested on its own, so no row depends
            # on where a growth began, and sets that share rows agree
            nan = np.isnan(new).any(axis=1)
            if nan.any():
                first = nan.argmax()
                prev = new[first - 1] if first else self._last
                for row in new[first:]:
                    np.matmul(A_abs, prev + w, out=row)
                    if np.isnan(row).any():
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
    ``tick`` the sub-system loop period in seconds, at least one
    microsecond, the package's time step.

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
    # anomaly start -> (checkpoint tick, last tick before the start)
    _anchors: dict = field(init=False, repr=False, compare=False)

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
        for name in _ROW_INPUTS:
            if not np.all(np.isfinite(fields[name])):
                raise ValueError(f"{name} must be finite")
            if name != "A_bar" and np.any(fields[name] < 0):
                raise ValueError(f"{name} must be element-wise nonnegative")
        for name in ("tick", "mu"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite")
        if to_us(self.tick) < 1:
            raise ValueError("tick must be at least one microsecond")
        if not (math.isfinite(self.t_search_max) and self.t_search_max >= 0):
            raise ValueError("t_search_max must be finite and nonnegative")
        for name, value in fields.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        rows_of = tuple(fields[name] for name in _ROW_INPUTS)
        key = (A_bar.shape, b"".join(a.tobytes() for a in rows_of))
        sums = _SHARED_SUMS.get(key)
        if sums is None:
            sums = _SHARED_SUMS[key] = _ChainSums(np.abs(A_bar), *rows_of[1:])
        object.__setattr__(self, "_sums", sums)
        object.__setattr__(self, "_anchors", {})


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
    E, sums = params.E_max, params._sums
    top = max(to_us(params.t_search_max) // to_us(tick), 1)
    # T becomes the first duration up to top whose bound exceeds E_max, or
    # top + 1; each stretch of rows a growth adds is compared at once
    T = 1
    while T <= top:
        rows = sums.upto(n0 + T)
        end = min(len(rows) - n0, top + 1)
        over = (rows[n0 + T:n0 + end] > E).any(axis=1)
        if over.any():
            T += int(over.argmax())
            break
        T = end
    rows = sums.upto(n0 + T)
    if T == 1:
        return 0.0, rows[n0 + 1].copy(), rows[n0 + 1].copy()
    return (T - 1) * tick, rows[n0 + T - 1].copy(), rows[n0 + T].copy()


def accuracy_resource_gap_bound(params: BoundParams, k: int, s: float) -> np.ndarray:
    """Bound on the gap between frequency-``mu`` and every-tick recovery.

    Difference of the error bounds at tick ``k`` anchored at the
    frequency-``mu`` checkpoint and at the tick just before the anomaly
    start, clamped at zero.  Zero when ``mu`` already checkpoints every tick.
    """
    anchors = params._anchors.get(s)
    if anchors is None:
        tick = params.tick
        k1 = checkpoint_time_before_anomaly(s, params.delta_s, params.mu, tick)
        if len(params._anchors) >= _MEMO:
            params._anchors.clear()
        anchors = params._anchors[s] = round(k1 / tick), round(s / tick) - 1
    k1_t, opt_t = anchors
    if k1_t >= opt_t:
        return np.zeros_like(params.eps_delta)
    if k <= opt_t:
        raise ValueError("error bound requires k > k1")
    n, n1 = round(k - opt_t), round(k - k1_t)
    return params._sums.gaps(n1 - n, n1)[n].copy()


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

    Every record is checked first; the records are then stacked, and the
    error, Jacobian and remainder work runs once over the stack, each
    result bit for bit the one record by record would give.
    ``lti=True`` declares a constant Jacobian, evaluated once per record, at
    its first tick, instead of on every tick, and a zero ``phi_bar``.  With
    ``lti=False`` calibration makes one model evaluation in all, not one
    per record or tick: ``jac_A`` on the stack of ``x_hat`` rows, and two
    ``f`` calls and one ``jac_A`` on the stack of recovering rows, as
    :class:`~cpsrecover.models.SubsystemModel`'s stack contract allows; a
    record's first row starts a new recovery episode.

    ``ValueError``, naming the record and the array, is raised before any
    model evaluation if a record's arrays differ in row count or do not
    match the model's widths, or, with ``lti=False``, if ``x_true``,
    ``x_hat`` or ``u`` is not finite or ``x_rec`` holds an infinity.
    """
    n = model.n_x
    checked = [_checked_record(model, i, rec, lti)
               for i, rec in enumerate(records)]
    mask = np.concatenate([np.empty((0, n), bool)] + [c[4] for c in checked])
    # the rows with a healthy element, each element not healthy NaN.  The
    # Boolean reductions run over transposed copies: numpy reduces a long
    # contiguous axis in one pass, and a few columns row by row, some ten
    # times slower on 10,000 rows
    errs = np.where(mask, np.nan, np.concatenate(
        [np.empty((0, n))] + [c[0] - c[1] for c in checked])).compress(
            ~mask.T.copy().all(axis=0), axis=0)
    never = np.flatnonzero(np.isnan(errs).T.copy().all(axis=1))
    if never.size:
        raise ValueError("calibration needs a healthy sample of every state "
                         f"element; element(s) {never.tolist()} have none")
    if lti:
        jac = [model.jac_A(c[1][0], c[3][0]) for c in checked if len(c[0])]
        phi_bar = np.zeros(n)
    else:
        x_true, x_hat, x_rec, u = (np.concatenate([c[j] for c in checked])
                                   for j in range(4))
        jac = model.jac_A(x_hat, u)
        starts = np.cumsum([0] + [len(c[0]) for c in checked[:-1]])
        phi_bar = _episode_remainders(model, x_true, x_rec, u, mask, starts)
    # a Jacobian that holds for every row may come back as one matrix
    A_bar = np.abs(np.reshape(jac, (-1, n, n))).max(axis=0)
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


def _episode_remainders(model, x_true, x_rec, u, mask,
                        starts=()) -> np.ndarray:
    """Max accumulated nonlinear remainder along each recovery episode.

    Propagates ``phi_{k+1} = |A| phi_k + |f(x) - f(xr) - A (x - xr)|``
    with the Jacobian evaluated at the roll-forward value, over the rows
    that recover some element and have a roll-forward value; each run of
    consecutive such rows is one episode, and ``phi`` starts it at zero.
    A row in ``starts``, the first row of a stacked record, starts one too.
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
    fresh = (np.diff(rows, prepend=-2) != 1) | np.isin(rows, starts)
    for i, new in enumerate(fresh.tolist()):
        if new:
            acc = np.zeros(n)
        acc = accs[i] = A_abs[i].dot(acc) + resids[i]
    return np.max(accs, axis=0, initial=0.0)
