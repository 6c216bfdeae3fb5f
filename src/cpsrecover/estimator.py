"""Extended Kalman filter: one step, predict then update.

The innovation covariance is regularized with ``1e-12 * I`` before
inversion so degenerate ``R = 0`` configurations remain usable, and the
posterior covariance is symmetrized.

For a linear loop the covariance and gain depend only on the model, and
they can reach a bitwise fixed point (the case study's motor loops do,
after 745 ticks); from then on :func:`estimator_step` reuses the gain and
skips the covariance lines, with the same result bit for bit.
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


def estimator_step(model: SubsystemModel, est: EstimatorState,
                   u_prev, y_now):
    """Predict with the previous input, then update with ``y_now``.

    Returns the posterior :class:`EstimatorState`, the gain ``K`` (kept for
    recovery) and the innovation ``y_now - g(x_pred, u_prev)``.  When
    ``est`` carries a fixed point of ``model`` and this step's ``A``, ``C``
    and ``P`` are bitwise those of the fixed point, only the mean is
    updated, with the fixed point's gain.  A full step that leaves ``P``
    bitwise unchanged returns a new fixed point.
    """
    u = np.asarray(u_prev, float)
    A = model.jac_A(est.x_hat, u)
    x_pred = model.f(est.x_hat, u)
    C = np.atleast_2d(model.jac_C(x_pred, u))
    innov = np.asarray(y_now, float) - model.g(x_pred, u)
    fp = est.fixed_point
    if fp is not None and fp.model is model and _key(A, C, est.P) == fp.key:
        return EstimatorState(x_pred + fp.K @ innov, est.P, fp), fp.K, innov

    P_pred = A @ est.P @ A.T + model.Q
    S = C @ P_pred @ C.T + model.R + _REG * identity(model.n_y)
    try:
        K = np.linalg.solve(S.T, (P_pred @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{model.id}: singular innovation covariance") from exc
    P = (identity(model.n_x) - K @ C) @ P_pred
    P = (P + P.T) / 2.0
    fp = None
    if P.tobytes() == est.P.tobytes():
        K.flags.writeable = False          # shared by every reusing step
        fp = _FixedPoint(model, _key(A, C, est.P), K)
    return EstimatorState(x_pred + K @ innov, P, fp), K, innov
