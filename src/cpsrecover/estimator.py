"""Extended Kalman filter: one step, predict then update.

The innovation covariance is regularized with ``1e-12 * I`` before
inversion so degenerate ``R = 0`` configurations remain usable, and the
posterior covariance is symmetrized.

A linear model's ``P`` and ``K`` depend on its matrices alone, not on
the data.  An estimate steps through a *gain table*: the first step
resolves it, shared by every model with the same ``A``, ``C``, ``Q`` and
``R`` then, and each :class:`EstimatorState` a step returns passes it on,
so the frozen model is never written.  The table maps the bytes of an
incoming ``P`` to the read-only ``(P, K)`` a full step computed from it.
The case study's two motor loops fill one table of 746 entries, the last a
bitwise fixed point that maps ``P`` to itself, and read it for every later
step of every run in the process.  Any other step, as each of a nonlinear
loop's after its first, is a full step, so results are the same bit for
bit.

Every matrix product on the per-tick path, here and in the models, the
controllers and the recovery, is written ``a.dot(b)``, never ``a @ b``.
On operands of a few elements ``@`` costs about a microsecond more per
call than ``dot`` (numpy 2.4), and the two give the same result bit for
bit, except that a zero from a one-term sum may differ in sign, as
``test_dot_is_matmul_bit_for_bit`` states.
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
    """State estimate, its covariance and the gain table of its steps;
    None before the first."""

    x_hat: np.ndarray
    P: np.ndarray
    gain_table: tuple | None = None

    @classmethod
    def initial(cls, model: SubsystemModel) -> "EstimatorState":
        return cls(np.asarray(model.mu0, float).copy(),
                   np.asarray(model.Sigma0, float).copy())


def estimator_step(model: SubsystemModel, est: EstimatorState,
                   u_prev, y_now):
    """Predict with the previous input, then update with ``y_now``.

    Returns the posterior :class:`EstimatorState`, the gain ``K`` (kept for
    recovery), the innovation ``y_now - g(x_pred, u_prev)`` and the prior
    mean ``x_pred = f(x_hat, u_prev)``.  ``P`` and ``K`` come from the
    gain table of ``est`` when this step's ``A`` and ``C`` are the table's
    and ``est.P`` is a key; they are then read-only and shared.
    """
    u = np.asarray(u_prev, float)
    A = model.jac_A(est.x_hat, u)
    x_pred = model.f(est.x_hat, u)
    C = model.jac_C(x_pred, u)
    # numpy converts a list operand as asarray(y_now, float) would
    innov = y_now - model.g(x_pred, u)
    table = est.gain_table or _gain_table(       # resolved on the first step
        A.tobytes(), C.tobytes(), model.Q.tobytes(), model.R.tobytes(),
        (A.dtype, C.dtype))
    A_key, C_key, steps = table
    if A.tobytes() == A_key and C.tobytes() == C_key:
        P_key = est.P.tobytes()
        hit = steps.get(P_key)
        if hit is not None:
            P, K = hit
            # ndarray.dot, not @: see the module docstring
            x_hat = x_pred + K.dot(innov)
            return EstimatorState(x_hat, P, table), K, innov, x_pred
    else:
        steps = None

    P_pred = A.dot(est.P).dot(A.T) + model.Q
    S = C.dot(P_pred).dot(C.T) + model.R + _REG * identity(model.n_y)
    try:
        K = np.linalg.solve(S.T, P_pred.dot(C.T).T).T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{model.id}: singular innovation covariance") from exc
    P = (identity(model.n_x) - K.dot(C)).dot(P_pred)
    P = (P + P.T) / 2.0
    # a fixed point is stored past the cap: it serves every later step
    if steps is not None and (len(steps) < _TABLE_STEPS
                              or P.tobytes() == P_key):
        P.flags.writeable = K.flags.writeable = False
        steps[P_key] = P, K
    return EstimatorState(x_pred + K.dot(innov), P, table), K, innov, x_pred
