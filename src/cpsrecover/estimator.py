"""Extended Kalman filter: one step, predict then update.

The innovation covariance is regularized with ``1e-12 * I`` before
inversion so degenerate ``R = 0`` configurations remain usable, and the
posterior covariance is symmetrized.

A linear model's ``P`` and ``K`` depend on its matrices alone, not on
the data.  Each model steps through a *gain table*, resolved on its first
step and shared by every model with the same ``A``, ``C``, ``Q`` and ``R``
then: it maps the bytes of an incoming ``P`` to the read-only ``(P, K)`` a
full step computed from it.  The case study's two motor loops fill one
table of 746 entries, the last a bitwise fixed point that maps ``P`` to
itself, and read it for every later step of every run in the process.
Any other step, as each of a nonlinear loop's after its first, is a full
step, so results are the same bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import SubsystemModel, identity

_REG = 1e-12
_TABLES = 8              # gain tables kept for models built later
_TABLE_STEPS = 4096      # entries a table takes, bar fixed points


@functools.lru_cache(maxsize=_TABLES)
def _gain_table(A: bytes, C: bytes, Q: bytes, R: bytes,
                dtypes: tuple) -> tuple:
    """``(A, C, steps)``, shared by models with these matrices: ``steps``
    maps ``P.tobytes()`` to the read-only ``(P_next, K)`` of a full step
    from ``P``.  Matrices come as bytes, so ``-0.0`` cannot stand in for
    ``0.0``; ``dtypes`` are those of ``A`` and ``C``.  The byte lengths of
    the float ``Q`` and ``R`` fix the shapes.
    """
    return A, C, {}


@dataclass
class EstimatorState:
    """State estimate and its covariance."""

    x_hat: np.ndarray
    P: np.ndarray

    @classmethod
    def initial(cls, model: SubsystemModel) -> "EstimatorState":
        return cls(np.asarray(model.mu0, float).copy(),
                   np.asarray(model.Sigma0, float).copy())


def estimator_step(model: SubsystemModel, est: EstimatorState,
                   u_prev, y_now):
    """Predict with the previous input, then update with ``y_now``.

    Returns the posterior :class:`EstimatorState`, the gain ``K`` (kept for
    recovery) and the innovation ``y_now - g(x_pred, u_prev)``.  ``P`` and
    ``K`` come from the model's gain table when this step's ``A`` and ``C``
    are the table's and ``est.P`` is a key; they are then read-only and
    shared.
    """
    u = np.asarray(u_prev, float)
    A = model.jac_A(est.x_hat, u)
    x_pred = model.f(est.x_hat, u)
    C = np.atleast_2d(model.jac_C(x_pred, u))
    innov = np.asarray(y_now, float) - model.g(x_pred, u)
    if model.gain_table is None:           # resolved on the first step
        object.__setattr__(model, "gain_table", _gain_table(
            A.tobytes(), C.tobytes(), model.Q.tobytes(), model.R.tobytes(),
            (A.dtype, C.dtype)))
    A_key, C_key, steps = model.gain_table
    if A.tobytes() == A_key and C.tobytes() == C_key:
        P_key = est.P.tobytes()
        hit = steps.get(P_key)
        if hit is not None:
            P, K = hit
            return EstimatorState(x_pred + K @ innov, P), K, innov
    else:
        steps = None

    P_pred = A @ est.P @ A.T + model.Q
    S = C @ P_pred @ C.T + model.R + _REG * identity(model.n_y)
    try:
        K = np.linalg.solve(S.T, (P_pred @ C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{model.id}: singular innovation covariance") from exc
    P = (identity(model.n_x) - K @ C) @ P_pred
    P = (P + P.T) / 2.0
    # a fixed point is stored past the cap: it serves every later step
    if steps is not None and (len(steps) < _TABLE_STEPS
                              or P.tobytes() == P_key):
        P.flags.writeable = K.flags.writeable = False
        steps[P_key] = P, K
    return EstimatorState(x_pred + K @ innov, P), K, innov
