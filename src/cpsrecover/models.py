"""Sub-system dynamics, measurement models and noise sampling.

A :class:`SubsystemModel` bundles everything one control loop needs to
simulate and estimate its plant: a discrete-time dynamics map ``f``, a
measurement map ``g``, their Jacobian evaluators and the noise covariances.
Dynamics given as continuous-time derivatives are discretized with an
explicit Euler step (``x + deriv(x, u) * dt``).

A model's covariances are constant: it keeps read-only copies of them and
factors each once, when it is built, for :func:`sample_noise`.  That
factorisation is also the check that a covariance is positive
semi-definite, so building a model runs no eigen-decomposition unless a
nonzero covariance fails its Cholesky factorisation.  Noise comes
in blocks of rows, each row one draw: a block draws its rows from the
generator in order, so it equals, bit for bit, as many one-row draws and
leaves the generator in the same state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """A vector or matrix argument does not conform to the model dimensions."""


@functools.lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """Read-only ``n x n`` identity, shared by every caller."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def noise_factor(cov) -> np.ndarray:
    """A factor ``L`` with ``L @ L.T == cov``, for :func:`sample_noise`.

    This is the positive semi-definiteness check: a Cholesky factor that
    succeeds certifies a positive definite covariance, and a zero
    covariance gets an ``n x 0`` factor, so sampling it draws nothing from
    the generator.  Any other covariance (a singular one, e.g. with a zero
    row, is legal) is factored by an eigen-decomposition of its symmetric
    part, and ``ValueError`` is raised if an eigenvalue is below ``-1e-9``,
    or, before any factoring, if an entry is not finite.
    """
    cov = np.asarray(cov, float)
    if not np.isfinite(cov).all():
        raise ValueError("covariance is not finite")
    n = cov.shape[0]
    if not np.any(cov):
        return np.zeros((n, 0))
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # the symmetric part, halved first so that it cannot overflow
        w, V = np.linalg.eigh(cov / 2.0 + cov.T / 2.0)
        if w.min() < -1e-9:
            raise ValueError("covariance is not positive semi-definite")
        return V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


@dataclass(frozen=True)
class SubsystemModel:
    """One loop's plant, sensor and noise description.

    ``f(x, u)`` returns the next state, ``g(x, u)`` the measurement.
    ``jac_A``/``jac_C`` evaluate the state Jacobians of ``f``/``g``.
    ``f`` and ``jac_A`` also take a stack of states ``(T, n_x)`` with its
    inputs ``(T, n_u)`` and return ``(T, n_x)`` and ``(T, n_x, n_x)``,
    each row bit for bit the one-state result on finite input; a
    ``jac_A`` that does not depend on the state may return the one
    ``(n_x, n_x)`` matrix that holds for every row.  A model must meet
    that to be calibrated with ``lti=False``
    (:func:`cpsrecover.analysis.calibrate_bound_params`).
    ``mu0``/``Sigma0`` are the initial state's mean and covariance.
    ``mu0``, ``Q``, ``R`` and ``Sigma0`` are stored as read-only float
    copies, each covariance with its read-only :func:`noise_factor` in
    ``Q_factor``, ``R_factor`` and ``Sigma0_factor``.  A covariance must be
    finite and symmetric, and its factorisation is its positive
    semi-definiteness check.
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
    mu0: np.ndarray
    Sigma0: np.ndarray
    Q_factor: np.ndarray = field(init=False, repr=False, compare=False)
    R_factor: np.ndarray = field(init=False, repr=False, compare=False)
    Sigma0_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        n_x, n_y = self.n_x, self.n_y
        for name, shape in (("mu0", (n_x,)), ("Q", (n_x, n_x)),
                            ("R", (n_y, n_y)), ("Sigma0", (n_x, n_x))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise DimensionError(
                    f"{self.id}: {name} has shape {got}, expected {shape}")
        mu0 = np.array(self.mu0, float)
        mu0.flags.writeable = False
        object.__setattr__(self, "mu0", mu0)
        for name in ("Q", "R", "Sigma0"):
            cov = np.array(getattr(self, name), float)
            if not np.isfinite(cov).all():
                raise ValueError(f"{name} must be finite")
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
            try:
                factor = noise_factor(cov)
            except ValueError:
                raise ValueError(
                    f"{name} must be positive semi-definite") from None
            cov.flags.writeable = factor.flags.writeable = False
            object.__setattr__(self, name, cov)
            object.__setattr__(self, name + "_factor", factor)


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


def sample_noise(factor: np.ndarray, rng: np.random.Generator,
                 rows: int) -> np.ndarray:
    """``rows`` zero-mean Gaussian draws with covariance ``factor @ factor.T``,
    as a ``(rows, n)`` array.

    ``factor`` comes from :func:`noise_factor`, as a model's ``*_factor``
    fields do.  Row ``i`` is bit for bit the ``i``-th of ``rows`` successive
    draws ``factor @ rng.standard_normal(k)``: the stacked product multiplies
    each row on its own, where ``z @ factor.T`` would not round alike.
    Deterministic given the generator state.
    """
    z = rng.standard_normal((rows, factor.shape[1]))
    return np.matmul(factor, z[:, :, None])[:, :, 0]


def euler_discretize(deriv, jac_deriv, dt: float):
    """Build discrete ``f`` and its Jacobian from a continuous derivative.

    ``f(x, u) = x + deriv(x, u) * dt``, in float64; the Jacobian is
    ``I + jac_deriv(x, u) * dt``.  Both broadcast over a stack of states
    when ``deriv`` and ``jac_deriv`` do.
    """
    dt0 = np.array(dt, float)   # multiplies as the float64 dt would

    def f(x, u):
        # x first: where both addends are NaN the sum keeps the first one's
        # sign and payload, so the reversed sum would differ in those bits
        return x + np.multiply(deriv(x, u), dt0)

    def jac_A(x, u):
        J = np.asarray(jac_deriv(x, u), float)
        return identity(J.shape[-1]) + J * dt

    return f, jac_A
