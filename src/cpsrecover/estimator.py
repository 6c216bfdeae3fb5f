"""Extended Kalman filter behind a predict / gain / update interface.

The three stages are exposed separately so the recovery logic can reuse the
predict step on its own, and so other estimators with the same interface can
be plugged in later.  Covariances are symmetrized after every update; the
innovation covariance is regularized with ``1e-12 * I`` before inversion so
degenerate ``R = 0`` configurations remain usable.

:func:`estimator_step` runs the three stages in turn.  For a linear loop
the covariance and gain depend only on the model, and they can reach a
bitwise fixed point (the case study's motor loops do, after 745 ticks);
from then on the step reuses the gain and skips the covariance work, with
the same result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import SubsystemModel, identity

_REG = 1e-12


@dataclass(frozen=True)
class _FixedPoint:
    """A step of ``model`` whose posterior covariance equalled its prior.

    ``key`` holds the exact bytes of that step's ``A``, ``C`` and ``P``.
    The prior covariance, the gain and the posterior covariance are
    functions of these and of the model's read-only ``Q`` and ``R`` alone,
    so a later step with the same model and the same key computes the same
    gain ``K`` and leaves ``P`` unchanged.
    """

    model: SubsystemModel
    key: tuple
    K: np.ndarray


def _key(A, C, P) -> tuple:
    # bytes, not ==, so that -0.0 cannot stand in for 0.0, nor NaN pass
    return (A.tobytes(), C.tobytes(), P.tobytes())


@dataclass
class EstimatorState:
    """State estimate and its covariance.

    ``fixed_point`` is derived, never set by hand: :func:`estimator_step`
    returns it, and a caller that builds the next state from a step passes
    it on along with the step's ``P``.
    """

    x_hat: np.ndarray
    P: np.ndarray
    fixed_point: _FixedPoint | None = field(default=None, repr=False,
                                            compare=False)

    @classmethod
    def initial(cls, model: SubsystemModel) -> "EstimatorState":
        return cls(np.asarray(model.mu0, float).copy(),
                   np.asarray(model.Sigma0, float).copy())


@dataclass
class EstimatorStepResult:
    """Output of one full estimator step; the gain is retained for recovery."""

    x_hat: np.ndarray
    P: np.ndarray
    K: np.ndarray
    innovation: np.ndarray       # y_now - g(x_pred, u_prev)
    fixed_point: _FixedPoint | None = None


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


def estimator_step(model: SubsystemModel, est: EstimatorState,
                   u_prev, y_now) -> EstimatorStepResult:
    """Predict with the previous input, then gain and update with ``y_now``.

    The result equals :func:`ekf_predict`, :func:`ekf_gain` and
    :func:`ekf_update` in turn, bit for bit.  When ``est`` carries a fixed
    point of ``model`` and this step's ``A``, ``C`` and ``P`` are bitwise
    those of the fixed point, only the mean is updated, with the fixed
    point's gain.  A full step that leaves ``P`` bitwise unchanged returns
    a new fixed point.
    """
    fp = est.fixed_point
    if fp is not None and fp.model is model:
        u = np.asarray(u_prev, float)
        x_pred = model.f(est.x_hat, u)
        if _key(model.jac_A(est.x_hat, u), model.jac_C(x_pred, u),
                est.P) == fp.key:
            innov = np.asarray(y_now, float) - model.g(x_pred, u)
            return EstimatorStepResult(x_pred + fp.K @ innov, est.P, fp.K,
                                       innov, fp)
    x_pred, P_pred = ekf_predict(model, est, u_prev)
    K = ekf_gain(model, P_pred, x_pred, u_prev)
    new, innov = ekf_update(model, x_pred, P_pred, K, y_now, u_prev)
    fp = None
    if new.P.tobytes() == est.P.tobytes():
        u = np.asarray(u_prev, float)
        K.flags.writeable = False          # shared by every reusing step
        fp = _FixedPoint(model, _key(model.jac_A(est.x_hat, u),
                                     model.jac_C(x_pred, u), est.P), K)
    return EstimatorStepResult(new.x_hat, new.P, K, innov, fp)
