"""Sub-system dynamics, measurement models and noise sampling.

A :class:`SubsystemModel` bundles everything one control loop needs to
simulate and estimate its plant: a discrete-time dynamics map ``f``, a
measurement map ``g``, their Jacobian evaluators and the noise covariances.
Dynamics given as continuous-time derivatives are discretized with an
explicit Euler step (``x + deriv(x, u) * dt``).

A model's covariances are constant: it keeps read-only copies of them and
factors each once, when it is built, for :func:`sample_noise`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """A vector or matrix argument does not conform to the model dimensions."""


def _check_psd(name: str, m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    if w.min() < -1e-9:
        raise ValueError(f"{name} must be positive semi-definite")


@functools.lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """Read-only ``n x n`` identity, shared by every caller."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def noise_factor(cov) -> np.ndarray:
    """A factor ``L`` with ``L @ L.T == cov``, for :func:`sample_noise`.

    A Cholesky factor when the covariance is positive definite, an
    eigen-decomposition otherwise (singular covariances, e.g. a zero row,
    are legal).  A zero covariance gets an ``n x 0`` factor, so sampling it
    draws nothing from the generator.  Raises ``ValueError`` if the
    covariance is not positive semi-definite.
    """
    cov = np.asarray(cov, float)
    n = cov.shape[0]
    if not np.any(cov):
        return np.zeros((n, 0))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh((cov + cov.T) / 2.0)
        if w.min() < -1e-9 * max(1.0, abs(w.max())):
            raise ValueError("covariance is not positive semi-definite")
        return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


@dataclass(frozen=True)
class SubsystemModel:
    """One loop's plant, sensor and noise description.

    ``f(x, u)`` returns the next state, ``g(x, u)`` the measurement.
    ``jac_A``/``jac_C`` evaluate the state Jacobians of ``f``/``g``.
    ``Q``, ``R`` and ``Sigma0`` are stored as read-only float copies, each
    with its :func:`noise_factor` in ``Q_factor``, ``R_factor`` and
    ``Sigma0_factor``.  ``gain_table`` is set by the estimator on the first
    step; models with the same Jacobians and noise share it.
    """

    id: str
    n_x: int
    n_y: int
    n_u: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_A: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_C: Callable[[np.ndarray, np.ndarray], np.ndarray]
    Q: np.ndarray
    R: np.ndarray
    dt: float
    mu0: np.ndarray = None
    Sigma0: np.ndarray = None
    Q_factor: np.ndarray = field(init=False, repr=False, compare=False)
    R_factor: np.ndarray = field(init=False, repr=False, compare=False)
    Sigma0_factor: np.ndarray = field(init=False, repr=False, compare=False)
    gain_table: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "gain_table", None)
        if self.mu0 is None:
            object.__setattr__(self, "mu0", np.zeros(self.n_x))
        if self.Sigma0 is None:
            object.__setattr__(self, "Sigma0", np.eye(self.n_x))
        for name in ("Q", "R", "Sigma0"):
            cov = np.array(getattr(self, name), float)
            _check_psd(name, cov)
            cov.flags.writeable = False
            object.__setattr__(self, name, cov)
            object.__setattr__(self, name + "_factor", noise_factor(cov))


def step_dynamics(model: SubsystemModel, x, u, w) -> np.ndarray:
    """One plant step: ``f(x, u) + w``."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    w = np.asarray(w, float)
    if x.shape != (model.n_x,) or u.shape != (model.n_u,) or w.shape != (model.n_x,):
        raise DimensionError(
            f"{model.id}: expected dims x={model.n_x}, u={model.n_u}, w={model.n_x}, "
            f"got {x.shape}, {u.shape}, {w.shape}"
        )
    return model.f(x, u) + w


def measure(model: SubsystemModel, x, u, v) -> np.ndarray:
    """One sensor reading: ``g(x, u) + v``."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    if x.shape != (model.n_x,) or v.shape != (model.n_y,):
        raise DimensionError(
            f"{model.id}: expected dims x={model.n_x}, v={model.n_y}, "
            f"got {x.shape}, {v.shape}"
        )
    return model.g(x, u) + v


def sample_noise(cov: np.ndarray, rng: np.random.Generator,
                 factor: np.ndarray | None = None) -> np.ndarray:
    """Zero-mean Gaussian draw with the given covariance.

    ``factor`` is ``noise_factor(cov)`` when the caller already has it, as
    a model does for its own covariances; otherwise it is computed here.
    Deterministic given the generator state.
    """
    L = noise_factor(cov) if factor is None else factor
    return L @ rng.standard_normal(L.shape[1])


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


def euler_discretize(deriv, jac_deriv, dt: float):
    """Build discrete ``f`` and its Jacobian from a continuous derivative.

    ``f(x, u) = x + deriv(x, u) * dt``; the Jacobian is
    ``I + jac_deriv(x, u) * dt``.
    """

    def f(x, u):
        return x + np.asarray(deriv(x, u), float) * dt

    def jac_A(x, u):
        J = np.asarray(jac_deriv(x, u), float)
        return identity(J.shape[0]) + J * dt

    return f, jac_A
