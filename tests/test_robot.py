import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cpsrecover import config as cfgmod
from cpsrecover import robot, sim
from helpers import (cold, ieee_floats, ieee_vectors, outcome,
                     reference_wheel_transform)


def test_reference_trajectory_substitutions():
    np.testing.assert_allclose(robot.reference_trajectory(0.0, [0.0, 0.0]),
                               [2.0, 0.0, 0.0])
    ref = robot.reference_trajectory(math.pi / 2, [0.0, 0.0])
    np.testing.assert_allclose(ref[:2], [0.0, 2.0], atol=1e-12)


def test_reference_stays_on_circle():
    for t in np.linspace(0, 20, 400):
        ref = robot.reference_trajectory(float(t), [0.5, -0.3])
        assert np.hypot(ref[0], ref[1]) == pytest.approx(2.0)


def test_reference_coincident_holds_previous_heading():
    ref = robot.reference_trajectory(0.0, [2.0, 0.0], prev_heading=0.7)
    assert ref[2] == 0.7
    assert np.all(np.isfinite(ref))


def test_dynamic_inversion_theta_zero():
    p = robot.RobotParams(inversion_offset=0.1, k1_gain=1.0, k2_gain=1.0)
    out = robot.dynamic_inversion_control(
        np.zeros(3), np.array([3.0, 4.0, 0.0]), np.zeros(2), p)
    np.testing.assert_allclose(out, [3.0, 4.0 / 0.1])


def test_dynamic_inversion_theta_quarter_turn():
    p = robot.RobotParams(inversion_offset=0.1)
    a, b = 3.0, 4.0
    out = robot.dynamic_inversion_control(
        np.array([0.0, 0.0, math.pi / 2]), np.array([a, b, 0.0]),
        np.zeros(2), p)
    np.testing.assert_allclose(out, [b, -a / 0.1], atol=1e-12)


def test_dynamic_inversion_zero_command():
    p = robot.RobotParams()
    out = robot.dynamic_inversion_control(
        np.array([1.0, 2.0, 0.4]), np.array([1.0, 2.0, 0.0]),
        np.zeros(2), p)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_wheel_transform_values():
    p = robot.RobotParams()
    np.testing.assert_allclose(robot.wheel_transform([1.0, 0.0], p), [20, 20])
    np.testing.assert_allclose(robot.wheel_transform([0.0, 1.0], p), [-5, 5])
    np.testing.assert_allclose(robot.wheel_transform([0.0, 0.0], p), [0, 0])


@settings(max_examples=200, deadline=None)
@given(u=ieee_vectors(2), as_list=st.booleans())
# two NaNs meet in the sum 2 v + w s
@example(u=np.array([np.nan, -np.nan]), as_list=False)
def test_wheel_transform_is_its_numpy_expression(u, as_list):
    """``wheel_transform``, warm or cold, equals its numpy expression bit
    for bit, on an array and on a list of floats.  On a list the
    expression is Python arithmetic, which keeps one NaN of two warm and
    the other cold, so a list holds no NaN."""
    assume(not (as_list and np.isnan(u).any()))
    p = robot.RobotParams()
    command = u.tolist() if as_list else u
    want = outcome(reference_wheel_transform, command, p)
    assert (outcome(robot.wheel_transform, command, p)
            == outcome(cold(robot.wheel_transform), command, p) == want)


@settings(max_examples=200, deadline=None)
@given(t=ieee_floats, x_hat=ieee_vectors(3), heading=ieee_floats)
@example(t=np.nan, x_hat=np.array([-np.nan, np.nan, 0.0]), heading=0.0)
def test_reference_trajectory_of_floats_is_that_of_numpy_scalars(
        t, x_hat, heading):
    """The outer controller passes its estimate as Python floats; the
    reference, warm or cold, is the one numpy scalars from ``x_hat[:2]``
    give, bit for bit, or both raise alike."""
    want = outcome(robot.reference_trajectory, t, x_hat[:2], heading)
    for ref in (robot.reference_trajectory, cold(robot.reference_trajectory)):
        assert outcome(ref, t, x_hat.tolist(), heading) == want


def test_wheel_transform_inverse_composition():
    p = robot.RobotParams()
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = rng.uniform(-5, 5, 2)
        back = robot.wheel_transform_inverse(robot.wheel_transform(u, p), p)
        np.testing.assert_allclose(back, u, atol=1e-12)


def test_pid_first_tick_hand_value():
    p = robot.RobotParams()
    pid = robot.PidState()
    out = robot.pid_control(pid, 1.0, 0.01, p)
    assert out == pytest.approx(13.2 + 1.525 * 0.01 + 0.275 * 100)


def test_pid_zero_error_zero_output():
    p = robot.RobotParams()
    pid = robot.PidState()
    for _ in range(10):
        assert robot.pid_control(pid, 0.0, 0.01, p) == 0.0


def test_pid_integral_accumulation():
    p = robot.RobotParams()
    pid = robot.PidState()
    for _ in range(20):
        robot.pid_control(pid, 1.0, 0.01, p)
    assert pid.integral == pytest.approx(20 * 0.01)


def test_pid_output_clamped_with_anti_windup():
    p = robot.RobotParams(voltage_limit=10.0)
    pid = robot.PidState()
    out = robot.pid_control(pid, 100.0, 0.01, p)
    assert out == 10.0
    assert pid.integral == 0.0  # not advanced while saturated


def test_inner_controllers_track_the_outer_command():
    """A motor controller's PID tracks its wheel of ``wheel_transform`` of
    the latest outer command, zero before the first; in coupled mode the
    outer plant takes the body velocity of the motors' plant states."""
    p = robot.RobotParams()
    plants = {robot.INNER_1: np.array([0.5, 30.0]),
              robot.INNER_2: np.array([0.5, 34.0])}
    controllers, coupled = robot.make_controllers(p, plants.__getitem__)
    dt = 1.0 / p.inner_rate
    pids = [robot.PidState(), robot.PidState()]
    motors = (robot.INNER_1, robot.INNER_2)
    refs = np.zeros(2)
    for t, x_outer in ((0.0, [2.0, 0.0, 1.5]), (0.1, [1.9, 0.2, 1.6])):
        for i, sid in enumerate(motors):
            x_hat = np.array([0.1, 12.0 + i])
            want = robot.pid_control(pids[i], refs[i] - x_hat[1], dt, p)
            u = controllers[sid](x_hat, t)
            assert u.dtype == float and u.shape == (1,) and u[0] == want
        u = controllers[robot.OUTER](np.array(x_outer), t)
        assert u.dtype == float and u.shape == (2,)
        refs = robot.wheel_transform(u, p)
        assert refs.tobytes() != np.zeros(2).tobytes()
    assert list(coupled) == [robot.OUTER]
    assert coupled[robot.OUTER](u).tobytes() == robot.wheel_transform_inverse(
        [30.0, 34.0], p).tobytes()


def test_case_study_rates():
    cfg = cfgmod.default_config()
    params, models = cfgmod.build_models(cfg)
    assert models[robot.OUTER].dt == 0.1
    assert models[robot.INNER_1].dt == 0.01
    assert models[robot.INNER_2].dt == 0.01
    assert cfg["checkpoint_freq_hz"] == 1.0


def test_case_study_detection_windows():
    cfg = cfgmod.default_config()
    for sid in cfgmod.SUBSYSTEMS:
        windows = cfg["anomalies"][sid]
        assert [(w["t_start"], w["t_end"]) for w in windows] == \
            [(3.25, 5.0), (8.25, 10.0)]
        assert cfg["ads"][sid]["detection_time"] == 0.25


def test_anomaly_free_tracking_regression():
    # closed-loop regression: noise-free robot stays within 0.3 m of the
    # circular reference once the transient has settled
    cfg = cfgmod.build_case_study(
        seed=0,
        anomalies={"outer": [], "inner-1": [], "inner-2": []},
        noise={"outer_q_std": 0.0, "outer_r_std": 0.0,
               "inner_q_std": 0.0, "inner_r_std": 0.0})
    res = sim.run_scenario(cfg)
    tr = res.traces["outer"]
    ref = np.stack([2 * np.cos(tr["t"]), 2 * np.sin(tr["t"])], axis=1)
    err = np.linalg.norm(tr["x_true"][:, :2] - ref, axis=1)
    assert err[tr["t"] > 2.0].max() < 0.3


def test_params_validation():
    with pytest.raises(ValueError):
        robot.RobotParams(wheel_radius=0.0)
    with pytest.raises(ValueError):
        robot.RobotParams(inversion_offset=-0.1)


def test_dims_match_models(case_models):
    _, models = case_models
    assert tuple(models) == tuple(robot.LOOPS)
    for sid, model in models.items():
        cols = robot.LOOPS[sid]
        assert (len(cols.state), len(cols.meas), len(cols.input)) == (
            model.n_x, model.n_y, model.n_u)
