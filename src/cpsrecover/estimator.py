"""Extended Kalman filter behind a predict / gain / update interface.

The three stages are exposed separately so the recovery logic can reuse the
predict step on its own, and so other estimators with the same interface can
be plugged in later.  Covariances are symmetrized after every update; the
innovation covariance is regularized with ``1e-12 * I`` before inversion so
degenerate ``R = 0`` configurations remain usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import SubsystemModel, identity

_REG = 1e-12


@dataclass
class EstimatorState:
    """State estimate and its covariance."""

    x_hat: np.ndarray
    P: np.ndarray

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
    """Predict with the previous input, then gain and update with ``y_now``."""
    x_pred, P_pred = ekf_predict(model, est, u_prev)
    K = ekf_gain(model, P_pred, x_pred, u_prev)
    new, innov = ekf_update(model, x_pred, P_pred, K, y_now, u_prev)
    return EstimatorStepResult(new.x_hat, new.P, K, innov)
