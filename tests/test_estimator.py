import dataclasses

import numpy as np
import pytest

from cpsrecover import robot
from cpsrecover.estimator import EstimatorState, estimator_step
from cpsrecover.models import SubsystemModel
from helpers import ekf_gain, ekf_predict, ekf_update, scalar_lti_model


def test_predict_scalar_hand_case():
    # f(x,u)=x+u, A=1, P=1, Q=0.5, x=2, u=1 -> x_pred=3, P_pred=1.5; with
    # C=0 the measurement carries nothing, so K=0 and the step is the
    # prediction
    m = scalar_lti_model(a=1.0, b=1.0, c=0.0, q=0.5, x0=2.0, p0=1.0)
    est, K, _ = estimator_step(m, EstimatorState.initial(m), [1.0], [7.0])
    assert K[0, 0] == 0.0
    assert est.x_hat[0] == 3.0
    assert est.P[0, 0] == 1.5


def test_predict_identity_propagation():
    m = scalar_lti_model(a=1.0, b=0.0, c=0.0, q=0.0, x0=4.0, p0=2.0)
    est, _, _ = estimator_step(m, EstimatorState.initial(m), [0.0], [7.0])
    assert est.x_hat[0] == 4.0 and est.P[0, 0] == 2.0


def test_bicycle_jacobian_zero_heading_entry():
    m = robot.bicycle_model(0.1, np.eye(3), np.eye(3))
    A = m.jac_A(np.zeros(3), np.array([1.0, 0.0]))
    # d(x-row)/d theta = -v sin(theta) dt = 0 at theta=0
    assert A[0, 2] == 0.0
    assert np.isclose(A[1, 2], 1.0 * 0.1)


def test_gain_scalar():
    # P_pred = 1 from the initial P = 1, A = 1, Q = 0
    m = scalar_lti_model(r=1.0)
    _, K, _ = estimator_step(m, EstimatorState.initial(m), [0.0], [0.0])
    assert abs(K[0, 0] - 0.5) < 1e-12


def test_gain_limits():
    m_inf = scalar_lti_model(r=1e12)
    _, K, _ = estimator_step(m_inf, EstimatorState.initial(m_inf), [0.0],
                             [0.0])
    assert abs(K[0, 0]) <= 1e-11
    m0 = scalar_lti_model(r=0.0)
    _, K0, _ = estimator_step(m0, EstimatorState.initial(m0), [0.0], [0.0])
    assert abs(K0[0, 0] - 1.0) < 1e-6


def test_update_cases():
    # x_pred = 3, P_pred = 2, y = 5; R (or C = 0) sets the gain
    def step(c, r):
        m = scalar_lti_model(a=1.0, b=0.0, c=c, r=r, x0=3.0, p0=2.0)
        return estimator_step(m, EstimatorState.initial(m), [0.0], [5.0])

    # zero gain: posterior is the prior
    est, K, _ = step(c=0.0, r=0.0)
    assert K[0, 0] == 0.0
    assert est.x_hat[0] == 3.0 and est.P[0, 0] == 2.0
    # K=0.5, y=5, x_pred=3 -> 4
    est, K, _ = step(c=1.0, r=2.0)
    assert abs(K[0, 0] - 0.5) < 1e-12
    assert abs(est.x_hat[0] - 4.0) < 1e-12
    # K=I, g=identity -> x_hat = y
    est, K, _ = step(c=1.0, r=0.0)
    assert abs(K[0, 0] - 1.0) < 1e-12
    assert abs(est.x_hat[0] - 5.0) < 1e-11


def test_zero_innovation_keeps_prior():
    m = scalar_lti_model(a=1.0, b=1.0, q=0.1, r=0.5, x0=2.0)
    est = EstimatorState.initial(m)
    x_pred = m.f(est.x_hat, [1.0])
    est, _, innovation = estimator_step(m, est, [1.0], m.g(x_pred, [1.0]))
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
            Q=Q, R=R, dt=1.0)
        x = rng.standard_normal(n)
        P = np.eye(n)
        est = EstimatorState(x.copy(), P.copy())
        for _ in range(10):
            u = rng.standard_normal(1)
            y = rng.standard_normal(n)
            res, _, _ = estimator_step(m, est, u, y)
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
            res, _, _ = estimator_step(m, est, u, y)
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
        res, _, _ = estimator_step(m, est, u, rng.standard_normal(1))
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
        res, _, _ = estimator_step(m, est, [0.0], m.g(x_true, [0.0]))
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


# -- fixed-point gain reuse -------------------------------------------------


def _bitwise(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _Twin:
    """``estimator_step`` beside the three-stage reference chain."""

    def __init__(self, model):
        self.model = model
        self.est = self.ref = EstimatorState.initial(model)
        self.full_steps = 0

    def step(self, u, y):
        """One step of each; asserts they agree bit for bit and returns the
        step's fixed point.  A step that does not return the incoming fixed
        point's gain object counts as a full step."""
        m = self.model
        fp = self.est.fixed_point
        est, K_step, innov_step = estimator_step(m, self.est, u, y)
        self.full_steps += fp is None or K_step is not fp.K
        x_pred, P_pred = ekf_predict(m, self.ref, u)
        K = ekf_gain(m, P_pred, x_pred, u)
        self.ref, innov = ekf_update(m, x_pred, P_pred, K, y, u)
        for got, want in ((est.x_hat, self.ref.x_hat), (est.P, self.ref.P),
                          (K_step, K), (innov_step, innov)):
            assert _bitwise(got, want)
        self.est = est
        return est.fixed_point


def test_step_equals_three_stage_chain_past_the_fixed_point(case_models):
    """The linear motor loop reaches a bitwise covariance fixed point and
    then reuses its gain; the nonlinear outer loop never does.  Every
    estimate, covariance, gain and innovation equals the reference."""
    _, models = case_models
    rng = np.random.default_rng(11)
    motor = _Twin(models[robot.INNER_1])
    fps = [motor.step(rng.normal(0, 5, 1), rng.normal(0, 5, 1))
           for _ in range(1200)]
    first = next(i for i, fp in enumerate(fps) if fp is not None)
    assert first < 1000
    assert all(fp is fps[first] for fp in fps[first:])

    outer = _Twin(models[robot.OUTER])
    for k in range(1200):
        u = np.array([1.0 + 0.5 * np.sin(0.01 * k), rng.normal(0, 0.3)])
        assert outer.step(u, rng.normal(0, 1, 3)) is None


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
def test_each_model_function_runs_once_per_step(case_models, loop):
    """Full steps, the step that finds the fixed point and reusing steps
    each evaluate every model function once."""
    _, models = case_models
    model, calls = _counted(models[loop])
    rng = np.random.default_rng(3)
    est = EstimatorState.initial(model)
    reused = 0
    for _ in range(1000):
        fp = est.fixed_point
        est, K, _ = estimator_step(model, est, rng.normal(0, 1, model.n_u),
                                   rng.normal(0, 1, model.n_y))
        reused += fp is not None and K is fp.K
    assert calls == dict.fromkeys(calls, 1000)
    if loop == robot.OUTER:
        assert est.fixed_point is None
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
        Q=0.01 * np.eye(2), R=np.array([[0.04]]), dt=1.0)
    return model, jac


@pytest.mark.parametrize("name, value", [
    ("A", [[0.9, 0.0], [0.1, 0.7]]),
    ("A", [[0.9, -0.0], [0.1, 0.8]]),
    ("C", [[1.0, -0.0]]),
    ("C", [[0.5, 0.0]]),
])
def test_reuse_stops_when_a_jacobian_changes(name, value):
    """Once a Jacobian differs from the fixed point's, bitwise (a signed
    zero included), the next step is a full one; every step still equals
    the reference."""
    model, jac = _switchable_model()
    twin = _Twin(model)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        if twin.step(rng.normal(size=1), rng.normal(size=1)) is not None:
            break
    assert twin.est.fixed_point is not None
    before = twin.full_steps
    for _ in range(20):
        twin.step(rng.normal(size=1), rng.normal(size=1))
    assert twin.full_steps == before          # the gain was reused

    jac[name] = np.array(value)
    twin.step(rng.normal(size=1), rng.normal(size=1))
    assert twin.full_steps == before + 1
    for _ in range(20):
        twin.step(rng.normal(size=1), rng.normal(size=1))

    # a state whose P is not the fixed point's takes the full step
    est, fp = twin.est, twin.est.fixed_point
    _, K, _ = estimator_step(model, EstimatorState(est.x_hat, 2 * est.P, fp),
                             [0.0], [0.0])
    assert fp is None or K is not fp.K
