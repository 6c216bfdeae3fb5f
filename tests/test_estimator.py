import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cpsrecover import config as cfgmod
from cpsrecover import estimator, robot
from cpsrecover.estimator import EstimatorState, estimator_step
from cpsrecover.models import SubsystemModel
from helpers import (cold, ekf_gain, ekf_predict, ekf_update, ieee_vectors,
                     outcome, prior, scalar_lti_model)


def test_predict_scalar_hand_case():
    # f(x,u)=x+u, A=1, P=1, Q=0.5, x=2, u=1 -> x_pred=3, P_pred=1.5; with
    # C=0 the measurement carries nothing, so K=0 and the step is the
    # prediction
    m = scalar_lti_model(a=1.0, b=1.0, c=0.0, q=0.5, x0=2.0, p0=1.0)
    est, K, _, _ = estimator_step(m, EstimatorState.initial(m), [1.0], [7.0])
    assert K[0, 0] == 0.0
    assert est.x_hat[0] == 3.0
    assert est.P[0, 0] == 1.5


def test_predict_identity_propagation():
    m = scalar_lti_model(a=1.0, b=0.0, c=0.0, q=0.0, x0=4.0, p0=2.0)
    est, _, _, _ = estimator_step(m, EstimatorState.initial(m), [0.0], [7.0])
    assert est.x_hat[0] == 4.0 and est.P[0, 0] == 2.0


def test_bicycle_jacobian_zero_heading_entry():
    m = robot.bicycle_model(0.1, np.eye(3), np.eye(3), **prior(3))
    A = m.jac_A(np.zeros(3), np.array([1.0, 0.0]))
    # d(x-row)/d theta = -v sin(theta) dt = 0 at theta=0
    assert A[0, 2] == 0.0
    assert np.isclose(A[1, 2], 1.0 * 0.1)


def test_gain_scalar():
    # P_pred = 1 from the initial P = 1, A = 1, Q = 0
    m = scalar_lti_model(r=1.0)
    _, K, _, _ = estimator_step(m, EstimatorState.initial(m), [0.0], [0.0])
    assert abs(K[0, 0] - 0.5) < 1e-12


def test_gain_limits():
    m_inf = scalar_lti_model(r=1e12)
    _, K, _, _ = estimator_step(m_inf, EstimatorState.initial(m_inf), [0.0],
                             [0.0])
    assert abs(K[0, 0]) <= 1e-11
    m0 = scalar_lti_model(r=0.0)
    _, K0, _, _ = estimator_step(m0, EstimatorState.initial(m0), [0.0], [0.0])
    assert abs(K0[0, 0] - 1.0) < 1e-6


def test_update_cases():
    # x_pred = 3, P_pred = 2, y = 5; R (or C = 0) sets the gain
    def step(c, r):
        m = scalar_lti_model(a=1.0, b=0.0, c=c, r=r, x0=3.0, p0=2.0)
        return estimator_step(m, EstimatorState.initial(m), [0.0], [5.0])

    # zero gain: posterior is the prior
    est, K, _, _ = step(c=0.0, r=0.0)
    assert K[0, 0] == 0.0
    assert est.x_hat[0] == 3.0 and est.P[0, 0] == 2.0
    # K=0.5, y=5, x_pred=3 -> 4
    est, K, _, _ = step(c=1.0, r=2.0)
    assert abs(K[0, 0] - 0.5) < 1e-12
    assert abs(est.x_hat[0] - 4.0) < 1e-12
    # K=I, g=identity -> x_hat = y
    est, K, _, _ = step(c=1.0, r=0.0)
    assert abs(K[0, 0] - 1.0) < 1e-12
    assert abs(est.x_hat[0] - 5.0) < 1e-11


def test_zero_innovation_keeps_prior():
    m = scalar_lti_model(a=1.0, b=1.0, q=0.1, r=0.5, x0=2.0)
    est = EstimatorState.initial(m)
    x_pred = m.f(est.x_hat, [1.0])
    est, _, innovation, prior = estimator_step(m, est, [1.0],
                                               m.g(x_pred, [1.0]))
    np.testing.assert_array_equal(prior, x_pred)
    np.testing.assert_allclose(est.x_hat, x_pred, atol=1e-12)
    np.testing.assert_array_equal(innovation, [0.0])


def test_lti_reduces_to_standard_kf():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, 1))
        C = rng.uniform(-1, 1, (n, n))
        Qh = rng.uniform(-1, 1, (n, n))
        Q = Qh @ Qh.T + 1e-6 * np.eye(n)
        Rh = rng.uniform(-1, 1, (n, n))
        R = Rh @ Rh.T + 0.1 * np.eye(n)
        from cpsrecover.models import SubsystemModel
        m = SubsystemModel(
            id="lti", n_x=n, n_y=n, n_u=1,
            f=lambda x, u, A=A, B=B: A @ x + B @ u,
            g=lambda x, u, C=C: C @ x,
            jac_A=lambda x, u, A=A: A, jac_C=lambda x, u, C=C: C,
            Q=Q, R=R, dt=1.0, **prior(n))
        x = rng.standard_normal(n)
        P = np.eye(n)
        est = EstimatorState(x.copy(), P.copy())
        for _ in range(10):
            u = rng.standard_normal(1)
            y = rng.standard_normal(n)
            res, _, _, _ = estimator_step(m, est, u, y)
            # hand-rolled KF (with matching regularization)
            x_p = A @ est.x_hat + B @ u
            P_p = A @ est.P @ A.T + Q
            S = C @ P_p @ C.T + R + 1e-12 * np.eye(n)
            K = P_p @ C.T @ np.linalg.inv(S)
            x_n = x_p + K @ (y - C @ x_p)
            P_n = (np.eye(n) - K @ C) @ P_p
            P_n = (P_n + P_n.T) / 2
            np.testing.assert_allclose(res.x_hat, x_n, atol=1e-10)
            np.testing.assert_allclose(res.P, P_n, atol=1e-10)
            est = EstimatorState(res.x_hat, res.P)


def test_covariance_stays_psd_long_run(case_models):
    _, models = case_models
    rng = np.random.default_rng(9)
    for m in models.values():
        est = EstimatorState.initial(m)
        est = EstimatorState(est.x_hat, np.eye(m.n_x))
        for _ in range(1000):
            u = rng.standard_normal(m.n_u)
            y = rng.standard_normal(m.n_y)
            res, _, _, _ = estimator_step(m, est, u, y)
            w = np.linalg.eigvalsh(res.P)
            assert w.min() >= -1e-9
            np.testing.assert_allclose(res.P, res.P.T, atol=1e-12)
            est = EstimatorState(res.x_hat, res.P)


def test_zero_gain_is_dead_reckoning():
    m = scalar_lti_model(a=0.9, b=1.0, q=0.0, r=1e12, x0=1.0)
    est = EstimatorState.initial(m)
    x_dr = np.array([1.0])
    rng = np.random.default_rng(2)
    for _ in range(30):
        u = rng.standard_normal(1)
        res, _, _, _ = estimator_step(m, est, u, rng.standard_normal(1))
        x_dr = m.f(x_dr, u)
        est = EstimatorState(res.x_hat, res.P)
    np.testing.assert_allclose(est.x_hat, x_dr, atol=1e-9)


def test_error_nonincreasing_noise_free_scalar():
    m = scalar_lti_model(a=0.95, b=0.0, q=0.0, r=0.0, x0=0.0, p0=1.0)
    x_true = np.array([5.0])
    est = EstimatorState.initial(m)
    prev = abs(est.x_hat[0] - x_true[0])
    for _ in range(50):
        x_true = m.f(x_true, [0.0])
        res, _, _, _ = estimator_step(m, est, [0.0], m.g(x_true, [0.0]))
        err = abs(res.x_hat[0] - x_true[0])
        assert err <= prev + 1e-12
        prev = err
        est = EstimatorState(res.x_hat, res.P)


def test_case_study_healthy_tracking(case_result):
    # anomaly-free interval of the default run: estimate within 3 sigma of
    # the measurement noise on every outer element
    tr = case_result.traces["outer"]
    healthy = (tr["t"] < 3.25)
    err = np.abs(tr["x_rf"][healthy] - tr["x_true"][healthy])
    assert err.max() < 3 * 0.1 * 3  # 3 sigma with slack for feedback coupling


# -- gain tables --------------------------------------------------------------


def _bitwise(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _steps(est) -> dict:
    """The entries of ``est``'s gain table; empty before its first step."""
    return est.gain_table[2] if est.gain_table else {}


@pytest.fixture
def cold_models():
    """The case-study models built anew, with no gain table filled yet."""
    estimator._gain_table.cache_clear()
    return cfgmod.build_models(cfgmod.default_config())[1]


_solves = [0]


@pytest.fixture(autouse=True)
def _count_solves(monkeypatch):
    """Count ``np.linalg.solve`` calls into ``_solves``."""
    solve = np.linalg.solve

    def counting(*args):
        _solves[0] += 1
        return solve(*args)
    monkeypatch.setattr(np.linalg, "solve", counting)


def _counted_step(model, est, u, y):
    """``estimator_step``'s result and whether it was a full step: a step
    that missed the gain table, or has none, and so solved for ``K``."""
    before = _solves[0]
    out = estimator_step(model, est, u, y)
    return out, _solves[0] == before + 1


class _Twin:
    """``estimator_step`` beside the three-stage reference chain."""

    def __init__(self, model):
        self.model = model
        self.est = self.ref = EstimatorState.initial(model)
        self.full_steps = 0

    def step(self, u, y):
        """One step of each; asserts they agree bit for bit and returns
        whether the step left ``P`` as it found it, the very object."""
        m = self.model
        P_in = self.est.P
        (est, K_step, innov_step, prior), full = _counted_step(
            m, self.est, u, y)
        self.full_steps += full
        x_pred, P_pred = ekf_predict(m, self.ref, u)
        K = ekf_gain(m, P_pred, x_pred, u)
        self.ref, innov = ekf_update(m, x_pred, P_pred, K, y, u)
        for got, want in ((est.x_hat, self.ref.x_hat), (est.P, self.ref.P),
                          (K_step, K), (innov_step, innov), (prior, x_pred)):
            assert _bitwise(got, want)
        self.est = est
        return est.P is P_in


def test_step_equals_three_stage_chain_past_the_fixed_point(cold_models):
    """The linear motor loop reaches a bitwise covariance fixed point, the
    table entry that maps ``P`` to itself, and from then on every step is a
    table hit; the nonlinear outer loop's Jacobian leaves its table after
    the first step, so every step is a full one.  Every estimate,
    covariance, gain and innovation equals the reference."""
    rng = np.random.default_rng(11)
    motor = _Twin(cold_models[robot.INNER_1])
    fixed = [motor.step(rng.normal(0, 5, 1), rng.normal(0, 5, 1))
             for _ in range(1200)]
    first = fixed.index(True)
    assert first < 1000 and all(fixed[first:])
    assert motor.full_steps == first == len(_steps(motor.est))

    outer = _Twin(cold_models[robot.OUTER])
    for k in range(1200):
        u = np.array([1.0 + 0.5 * np.sin(0.01 * k), rng.normal(0, 0.3)])
        assert not outer.step(u, rng.normal(0, 1, 3))
    assert outer.full_steps == 1200 and len(_steps(outer.est)) == 1


def test_motor_loops_share_one_table(cold_models):
    """``inner-1`` and ``inner-2``, built apart and fed different data, step
    through one table: the loop that steps first fills it, the other only
    reads it, and both equal the reference bit for bit."""
    first, second = (_Twin(cold_models[sid])
                     for sid in (robot.INNER_1, robot.INNER_2))
    assert first.model is not second.model
    rng = np.random.default_rng(4)
    for _ in range(1200):
        first.step(rng.normal(0, 5, 1), rng.normal(0, 5, 1))
        second.step(rng.normal(0, 50, 1), rng.normal(0, 50, 1))
    assert first.est.gain_table is second.est.gain_table
    assert 0 < first.full_steps == len(_steps(first.est)) < 1200
    assert second.full_steps == 0


def _counted(model):
    """``model`` with ``f``, ``g``, ``jac_A`` and ``jac_C`` counting their
    calls into the returned dict."""
    calls = dict.fromkeys(("f", "g", "jac_A", "jac_C"), 0)

    def counting(name):
        fn = getattr(model, name)

        def wrapped(x, u):
            calls[name] += 1
            return fn(x, u)
        return wrapped
    return dataclasses.replace(
        model, **{name: counting(name) for name in calls}), calls


@pytest.mark.parametrize("loop", [robot.OUTER, robot.INNER_1])
def test_each_model_function_runs_once_per_step(cold_models, loop):
    """Full steps, the step that resolves the gain table, the steps that
    fill it and the steps that read it each evaluate every model function
    once."""
    model, calls = _counted(cold_models[loop])
    rng = np.random.default_rng(3)
    est = EstimatorState.initial(model)
    reused = 0
    for _ in range(1000):
        (est, _, _, _), full = _counted_step(model, est,
                                          rng.normal(0, 1, model.n_u),
                                          rng.normal(0, 1, model.n_y))
        reused += not full
    assert calls == dict.fromkeys(calls, 1000)
    if loop == robot.OUTER:
        assert reused == 0
    else:
        assert 0 < reused < 999


def _switchable_model():
    """A linear 2-state model whose Jacobians the test can swap."""
    jac = {"A": np.array([[0.9, 0.0], [0.1, 0.8]]),
           "C": np.array([[1.0, 0.0]])}
    model = SubsystemModel(
        id="switch", n_x=2, n_y=1, n_u=1,
        f=lambda x, u: jac["A"] @ x + u[0], g=lambda x, u: jac["C"] @ x,
        jac_A=lambda x, u: jac["A"], jac_C=lambda x, u: jac["C"],
        Q=0.01 * np.eye(2), R=np.array([[0.04]]), dt=1.0, **prior(2))
    return model, jac


@pytest.mark.parametrize("name, value", [
    ("A", [[0.9, 0.0], [0.1, 0.7]]),
    ("A", [[0.9, -0.0], [0.1, 0.8]]),
    ("C", [[1.0, -0.0]]),
    ("C", [[0.5, 0.0]]),
])
def test_reuse_stops_when_a_jacobian_changes(name, value):
    """Once a Jacobian differs from the table's, bitwise (a signed zero
    included), the next step is a full one; every step still equals the
    reference."""
    estimator._gain_table.cache_clear()
    model, jac = _switchable_model()
    twin = _Twin(model)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        if twin.step(rng.normal(size=1), rng.normal(size=1)):
            break
    assert len(_steps(twin.est)) < 2000
    before = twin.full_steps
    for _ in range(20):
        twin.step(rng.normal(size=1), rng.normal(size=1))
    assert twin.full_steps == before          # the table was read

    original, jac[name] = jac[name], np.array(value)
    twin.step(rng.normal(size=1), rng.normal(size=1))
    assert twin.full_steps == before + 1
    for _ in range(20):
        twin.step(rng.normal(size=1), rng.normal(size=1))

    # under the table's own Jacobians, a P the table lacks is a full step
    jac[name] = original
    twin.est = EstimatorState(twin.est.x_hat, 2 * twin.est.P)
    twin.ref = EstimatorState(twin.ref.x_hat, 2 * twin.ref.P)
    before = twin.full_steps
    twin.step([0.0], [0.0])
    assert twin.full_steps == before + 1


def test_a_varying_jacobian_model_stays_exact():
    """A model whose Jacobian changes on every step from step 100 on never
    reads its table again, and equals the reference."""
    estimator._gain_table.cache_clear()
    model, jac = _switchable_model()
    twin = _Twin(model)
    rng = np.random.default_rng(8)
    for k in range(300):
        if k >= 100:
            jac["A"] = np.array([[0.9, 0.001 * k], [0.1, 0.8]])
        twin.step(rng.normal(size=1), rng.normal(size=1))
    assert twin.full_steps > 200
    assert len(_steps(twin.est)) <= 100


def test_a_table_stops_at_its_cap_except_for_a_fixed_point():
    """``a = 1, c = 0, q > 0`` grows ``P`` on every step, so no entry is
    read again: the table fills to its cap and later steps are full steps
    that add nothing.  ``a = c = 1`` with ``q`` small against ``r``
    converges slowly: its bitwise fixed point comes after the cap and is
    stored all the same, so every later step reads it.  Every step equals
    the reference."""
    estimator._gain_table.cache_clear()
    model = scalar_lti_model(a=1.0, c=0.0, q=1.0)
    twin = _Twin(model)
    n = estimator._TABLE_STEPS + 50
    for _ in range(n):
        twin.step([0.0], [0.0])
    assert len(_steps(twin.est)) == estimator._TABLE_STEPS
    assert twin.full_steps == n

    model = scalar_lti_model(a=1.0, c=1.0, q=1e-5, r=1.0)
    twin = _Twin(model)
    fixed = [twin.step([0.0], [0.0]) for _ in range(6000)]
    first = fixed.index(True)
    assert first > estimator._TABLE_STEPS and all(fixed[first:])
    assert len(_steps(twin.est)) == estimator._TABLE_STEPS + 1
    assert twin.full_steps == first


# wide enough to exercise rounding, small enough that no sum overflows
_elements = st.floats(-1e100, 1e100, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), data=st.data())
def test_dot_is_matmul_bit_for_bit(n, m, data):
    """``a.dot(b)`` equals ``a @ b`` bit for bit on the operand shapes and
    layouts the per-tick path multiplies with ``dot``: a square or wide
    matrix by a vector, a row by a vector, a square matrix by a transposed
    one, a column by a row, and the estimator's ``C P C^T`` chain.

    Over an inner dimension of 1, each element is one product, and the two
    may differ in the sign of a zero.  A negative product that underflows
    is +0.0 from ``@`` and -0.0 from ``dot``.  An exact -0.0 product, from
    a zero operand, is +0.0 from both once the left operand has more than
    one row (``np.array([[-0.0], [0.0]]).dot(np.array([0.0]))`` is
    ``[0., 0.]``); a 1 x 1 ``dot`` keeps it.  Every other bit is the
    same.  The case study meets such products only in a motor loop's
    ``K.dot(C)``, whose zeros ``I - K C`` makes +0.0 either way, and its
    ``K.dot(innov)``, which a prior adds to: the sum differs only where
    that prior element is itself -0.0."""
    def draw(*shape):
        return data.draw(arrays(float, shape, elements=_elements))

    a, b, c = draw(n, n), draw(n, m), draw(m, n)
    products = [(a, draw(n)), (draw(1, n), draw(n)), (b, draw(m)),
                (a, draw(n, n).T), (a, b), (b, c), (c.dot(a), c.T)]
    for left, right in products:
        want = left @ right
        got = left.dot(right)
        assert got.shape == want.shape
        if left.shape[-1] > 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.array_equal(got, want)
            differ = np.signbit(got) != np.signbit(want)
            assert not got[differ].any()


_A2, _C2 = np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[1.0, 0.0]])
# f and g pass the drawn prior and measurement through as they are
_PASS_THROUGH = SubsystemModel(
    id="pass-through", n_x=2, n_y=1, n_u=1,
    f=lambda x, u: x, g=lambda x, u: np.zeros(1),
    jac_A=lambda x, u: _A2, jac_C=lambda x, u: _C2,
    Q=np.eye(2), R=np.eye(1), dt=1.0, **prior(2))


@settings(max_examples=200, deadline=None)
@given(x=ieee_vectors(2), y=ieee_vectors(1), k=ieee_vectors(2))
@example(x=np.array([0.25, -3.0]), y=np.array([1.5]),
         k=np.array([0.5, -0.125]))
# dot adds a -0.0 product to +0.0, so the sum x + product is +0.0
@example(x=np.array([-0.0, 0.0]), y=np.array([0.0]), k=np.array([-0.0, 0.0]))
# a product that underflows keeps its sign through dot
@example(x=np.array([-0.0, 1.0]), y=np.array([1e-200]),
         k=np.array([-1e-200, 3e-200]))
# a NaN prior meets a finite product
@example(x=np.array([-np.nan, np.inf]), y=np.array([2.0]),
         k=np.array([1.0, -1.0]))
def test_one_sensor_table_hit_is_its_numpy_expression(x, y, k):
    """A table hit of a two-state one-sensor loop, warm or cold, updates
    its prior to ``x_pred + K.dot(innov)`` as numpy evaluates it, bit for
    bit, whatever the prior, innovation and gain hold."""
    P = np.eye(2)
    K = k.reshape(2, 1)
    table = (_A2.tobytes(), _C2.tobytes(), {P.tobytes(): (P, K)})
    est = EstimatorState(x, P, table)
    for step in (estimator_step, cold(estimator_step)):
        with np.errstate(all="ignore"):      # y - 0.0 on a signalling NaN
            got, K_got, innov, x_pred = step(_PASS_THROUGH, est,
                                             np.zeros(1), y)
        assert K_got is K and x_pred is x and got.gain_table is table
        assert (outcome(lambda: got.x_hat)
                == outcome(lambda: x_pred + K.dot(innov)))
