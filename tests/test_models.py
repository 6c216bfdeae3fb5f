import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cpsrecover import robot
from cpsrecover.models import (DimensionError, SubsystemModel,
                               euler_discretize, noise_factor, sample_noise,
                               step_dynamics)
from cpsrecover.timebase import base_resolution_us

from helpers import (cold, finite_difference_jacobian, ieee_floats,
                     ieee_vectors, outcome, prior, reference_motor_f)


def _outer(dt=0.1):
    return robot.bicycle_model(dt, 0.01 * np.eye(3), 0.01 * np.eye(3),
                               **prior(3))


def _motor(dt=0.01):
    p = robot.RobotParams()
    return robot.dc_motor_model(robot.INNER_1, dt, p, np.eye(2), [[1.0]],
                                **prior(2))


def test_bicycle_euler_step():
    m = _outer()
    x = step_dynamics(m, [0, 0, 0], [1.0, 0.0], np.zeros(3))
    np.testing.assert_allclose(x, [0.1, 0, 0], atol=1e-15)


def test_zero_dynamics_identity():
    m = SubsystemModel(
        id="static", n_x=2, n_y=2, n_u=1,
        f=lambda x, u: x, g=lambda x, u: x,
        jac_A=lambda x, u: np.eye(2), jac_C=lambda x, u: np.eye(2),
        Q=np.zeros((2, 2)), R=np.zeros((2, 2)), dt=1.0, **prior(2))
    x0 = np.array([3.0, -1.0])
    np.testing.assert_array_equal(step_dynamics(m, x0, [0.0], np.zeros(2)), x0)


def test_dc_motor_voltage_row():
    # one 0.01 s step from rest with V=1: di = (1/L)*V*dt = 0.02, dw = 0
    m = _motor()
    x = step_dynamics(m, [0, 0], [1.0], np.zeros(2))
    np.testing.assert_allclose(x, [0.02, 0.0], atol=1e-15)


def test_dimension_checks():
    m = _outer()
    with pytest.raises(DimensionError):
        step_dynamics(m, [0, 0], [1.0, 0.0], np.zeros(3))


def test_sample_noise_zero_cov():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(
        sample_noise(noise_factor(np.zeros((3, 3))), rng, 2), np.zeros((2, 3)))


def test_sample_noise_covariance_montecarlo():
    rng = np.random.default_rng(7)
    L = noise_factor(0.01 * np.eye(3))
    draws = sample_noise(L, rng, 100_000)
    emp = draws.T @ draws / len(draws)
    assert np.all(np.abs(np.diag(emp) - 0.01) < 0.0005)  # within 5%


def test_sample_noise_deterministic():
    L = noise_factor(np.eye(2))
    a = sample_noise(L, np.random.default_rng(3), 5)
    b = sample_noise(L, np.random.default_rng(3), 5)
    np.testing.assert_array_equal(a, b)


def test_sample_noise_singular_cov():
    # zero row/column is legal and must not raise
    cov = np.diag([0.01, 0.0])
    rng = np.random.default_rng(1)
    (w,) = sample_noise(noise_factor(cov), rng, 1)
    assert w[1] == 0.0 and w[0] != 0.0


def _reference_draw(cov, rng):
    """The draw as a fresh factorisation per call computes it."""
    if not np.any(cov):
        return np.zeros(cov.shape[0])
    z = rng.standard_normal(cov.shape[0])
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh((cov + cov.T) / 2.0)
        L = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    return L @ z


@pytest.mark.parametrize("cov", [0.01 * np.eye(3), np.diag([0.01, 0.0]),
                                 np.zeros((2, 2)), [[2.0, 0.5], [0.5, 1.0]]])
def test_model_factor_draws_are_bit_identical(cov):
    cov = np.asarray(cov, float)
    n = cov.shape[0]
    m = SubsystemModel(id="m", n_x=n, n_y=n, n_u=1, f=lambda x, u: x,
                       g=lambda x, u: x, jac_A=lambda x, u: np.eye(n),
                       jac_C=lambda x, u: np.eye(n), Q=cov, R=cov, dt=1.0,
                       mu0=np.zeros(n), Sigma0=cov)
    a, b, c = (np.random.default_rng(5) for _ in range(3))
    for _ in range(20):
        want = _reference_draw(cov, a)
        assert sample_noise(m.Q_factor, b, 1)[0].tobytes() == want.tobytes()
        assert (sample_noise(noise_factor(cov), c, 1)[0].tobytes()
                == want.tobytes())
    assert b.bit_generator.state == a.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), rank=st.integers(0, 3),
       rows=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_block_draw_equals_one_draw_per_row(n, rank, rows, seed):
    """A block of ``rows`` draws is, bit for bit, ``rows`` single draws,
    and leaves the generator where they leave it.  The covariance has rank
    ``min(rank, n)``: positive definite, singular or zero."""
    F = np.random.default_rng(seed).standard_normal((n, min(rank, n)))
    cov = F @ F.T
    a, b = (np.random.default_rng(seed) for _ in range(2))
    block = sample_noise(noise_factor(cov), a, rows)
    want = np.array([_reference_draw(cov, b) for _ in range(rows)])
    assert block.shape == (rows, n)
    assert block.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_zero_covariance_draws_nothing():
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    sample_noise(noise_factor(np.zeros((3, 3))), rng, 4)
    assert rng.bit_generator.state == state


def test_non_psd_covariance_raises():
    with pytest.raises(ValueError):
        noise_factor(np.diag([1.0, -1.0]))


def test_model_covariances_are_read_only_copies():
    q = 0.01 * np.eye(3)
    m = robot.bicycle_model(0.1, q, q, **prior(3))
    assert q.flags.writeable
    for cov in (m.Q, m.R, m.Sigma0):
        with pytest.raises(ValueError):
            cov[0, 0] = 1.0


def test_jacobians_match_finite_differences():
    models = [_outer(), _motor()]
    rng = np.random.default_rng(11)
    for m in models:
        for _ in range(100):
            x = rng.uniform(-3, 3, m.n_x)
            u = rng.uniform(-2, 2, m.n_u)
            J = m.jac_A(x, u)
            J_fd = finite_difference_jacobian(m.f, x, u)
            np.testing.assert_allclose(J, J_fd, rtol=1e-4, atol=1e-6)
            C = m.jac_C(x, u)
            C_fd = finite_difference_jacobian(m.g, x, u)
            np.testing.assert_allclose(C, C_fd, rtol=1e-4, atol=1e-6)


def test_motor_jacobian_is_built_once_and_read_only():
    m = _motor()
    A = m.jac_A(np.zeros(2), np.zeros(1))
    assert m.jac_A(np.ones(2), np.ones(1)) is A
    with pytest.raises(ValueError):
        A[0, 0] = 0.0


def test_measurement_jacobians_are_read_only():
    """Each model's ``jac_C`` is shared: a write into it raises, and leaves
    the Jacobian and the measurement map as they were."""
    motor, outer = _motor(), _outer()
    C = motor.jac_C(np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        C[0, 1] = 2.0
    assert C.tolist() == [[0.0, 1.0]]
    assert motor.g(np.array([1.0, 3.0]), np.zeros(1)).tolist() == [3.0]
    eye = outer.jac_C(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        eye[0, 1] = 2.0
    assert eye.tolist() == np.eye(3).tolist()


def test_psd_validation():
    with pytest.raises(ValueError):
        SubsystemModel(id="bad", n_x=1, n_y=1, n_u=1,
                       f=lambda x, u: x, g=lambda x, u: x,
                       jac_A=lambda x, u: np.eye(1),
                       jac_C=lambda x, u: np.eye(1),
                       Q=np.array([[-1.0]]), R=np.zeros((1, 1)), dt=1.0,
                       **prior(1))


@pytest.mark.parametrize("field, value", [
    ("Q", np.eye(3)), ("R", np.eye(2)), ("Sigma0", np.eye(3)),
    ("mu0", np.zeros(3))])
def test_model_rejects_shapes_that_contradict_its_dims(field, value):
    # n_x = 2, n_y = 1: each field is checked against those, up front
    kw = dict(Q=np.eye(2), R=np.eye(1), mu0=np.zeros(2), Sigma0=np.eye(2))
    kw[field] = value
    with pytest.raises(DimensionError, match=f"shaped: {field} has shape"):
        SubsystemModel(id="shaped", n_x=2, n_y=1, n_u=1,
                       f=lambda x, u: x, g=lambda x, u: x[:1],
                       jac_A=lambda x, u: np.eye(2),
                       jac_C=lambda x, u: np.eye(1, 2), dt=1.0, **kw)


# -- time base ----------------------------------------------------------


def test_base_resolution_gcd():
    assert base_resolution_us([0.1, 0.01]) == 10_000
    assert base_resolution_us([0.1, 0.1]) == 100_000


def test_bad_periods():
    with pytest.raises(ValueError):
        base_resolution_us([])
    with pytest.raises(ValueError):
        base_resolution_us([0.0])


_any_floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=200, deadline=None)
@given(x=arrays(np.float64, st.integers(1, 4), elements=_any_floats),
       u=arrays(np.float64, 2, elements=_any_floats),
       held=arrays(np.float64, 4, elements=_any_floats),
       dt=_any_floats,
       returns=st.sampled_from(["fresh", "held", "list", "scalar", "ints",
                                "float32"]))
# two NaNs of opposite sign: the sum keeps the first addend's
@example(x=np.array([-np.nan]), u=np.zeros(2), held=np.full(4, np.nan),
         dt=1.0, returns="held")
def test_euler_step_is_x_plus_deriv_times_dt(x, u, held, dt, returns):
    """``f`` equals ``x + asarray(deriv(x, u), float) * dt`` bit for bit,
    whatever ``deriv`` returns, and writes into none of ``x``, ``u`` or an
    array ``deriv`` holds and returns by reference."""
    n = x.size
    held = held[:n]
    deriv = {"fresh": lambda x, u: x * u[0] - u[1],
             "held": lambda x, u: held,
             "list": lambda x, u: [u[0]] * n,
             "scalar": lambda x, u: u[1],
             "ints": lambda x, u: list(range(-1, n - 1)),
             "float32": lambda x, u: held.astype(np.float32)}[returns]
    before = [a.copy() for a in (x, u, held)]
    f, _ = euler_discretize(deriv, None, dt)
    with np.errstate(all="ignore"):   # inf * 0, inf - inf
        got = f(x, u)
        want = x + np.asarray(deriv(x, u), float) * dt
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for a, b in zip((x, u, held), before):
        assert a.tobytes() == b.tobytes()


# a model's dt and a motor's inductance: any value the models accept
_positive = st.one_of(st.sampled_from([0.01, 0.1]),
                      ieee_floats.filter(lambda v: not v <= 0.0))


@settings(max_examples=200, deadline=None)
@given(x=ieee_vectors(2), u=ieee_vectors(1), dt=_positive,
       inductance=_positive)
# two NaNs meet in the sum x + (A_c x + B_c u) dt
@example(x=np.array([np.nan, 1.0]), u=np.array([-np.nan]), dt=0.01,
         inductance=0.5)
def test_motor_step_is_its_numpy_expression(x, u, dt, inductance):
    """A motor model's ``f``, warm or cold, equals ``x + (A_c x + B_c u0)
    dt`` as numpy evaluates it, bit for bit, and writes into neither
    argument."""
    params = robot.RobotParams(motor_inductance=inductance)
    with np.errstate(all="ignore"):        # A = I + A_c dt is built here
        m = robot.dc_motor_model(robot.INNER_1, dt, params, np.eye(2),
                                 [[1.0]], **prior(2))
    before = x.tobytes(), u.tobytes()
    want = outcome(reference_motor_f, params, dt, x, u)
    assert outcome(m.f, x, u) == outcome(cold(m.f), x, u) == want
    assert (x.tobytes(), u.tobytes()) == before
