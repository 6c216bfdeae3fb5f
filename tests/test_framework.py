import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsrecover.anomaly import (AdsConfig, AdsOutput, AnomalySchedule,
                                AnomalyWindow)
from cpsrecover.estimator import EstimatorState
from cpsrecover.framework import (CONSISTENT, FULLY_INCONSISTENT,
                                  PARTLY_INCONSISTENT, CoordinatorState,
                                  SafeStop, SubsystemRuntime,
                                  UnrecoverableError, classify_checkpoint_set,
                                  coordinator_tick, element_mask,
                                  most_recent_consistent_checkpoint,
                                  roll_forward_recover, safe_stop_check,
                                  subsystem_tick)
from cpsrecover.store import Checkpoint, ControlRecord, SecureStore
from helpers import scalar_lti_model
from cpsrecover.timebase import to_us


# -- coordinator --------------------------------------------------------


def test_coordinator_fires_on_grid():
    coord = CoordinatorState(1.0, ("outer", "inner-1", "inner-2"), 10_000)
    assert coordinator_tick(coord, 3.0) == {
        "outer": True, "inner-1": True, "inner-2": True}
    assert coordinator_tick(coord, 3.1) == {
        "outer": False, "inner-1": False, "inner-2": False}


def test_coordinator_every_tick_regime():
    coord = CoordinatorState(0.01, ("a",), 10_000)
    for k in range(100):
        assert coordinator_tick(coord, k * 0.01)["a"]


def test_coordinator_interval_validation():
    with pytest.raises(ValueError):
        CoordinatorState(0.015, ("a",), 10_000)
    coord = CoordinatorState(1.0, ("a",), 10_000)
    with pytest.raises(ValueError):
        coordinator_tick(coord, 0.005)


# -- consistent checkpoint selection ------------------------------------


def test_most_recent_consistent_case_study_instant():
    out = most_recent_consistent_checkpoint(
        {"o": [0, 1, 2, 3], "i": [0, 1, 2, 3]},
        {"o": 0.25, "i": 0.25}, 3.5)
    assert out == 3.0


def test_most_recent_consistent_intersection():
    out = most_recent_consistent_checkpoint(
        {"in": [0, 10, 20, 30], "o": [0, 20]}, {"in": 5, "o": 5}, 35)
    assert out == 20.0


def test_most_recent_consistent_no_candidate():
    with pytest.raises(UnrecoverableError):
        most_recent_consistent_checkpoint(
            {"a": [3.4], "b": [3.4]}, {"a": 0.25, "b": 0.25}, 3.5)
    with pytest.raises(UnrecoverableError):
        most_recent_consistent_checkpoint(
            {"a": [1.0], "b": [2.0]}, {"a": 0.0, "b": 0.0}, 3.0)


def brute_force_k1(save_times, detection_times, k):
    # exact-grid arithmetic: 16.1 - 11.1 must equal a 5.0 margin, not beat
    # it by float rounding noise
    common = set(save_times[next(iter(save_times))])
    for ts in save_times.values():
        common &= set(ts)
    margin = to_us(max(detection_times.values()))
    cands = [t for t in common if to_us(k) - to_us(t) > margin]
    return max(cands) if cands else None


def test_selection_matches_brute_force_randomized():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n_sub = int(rng.integers(1, 4))
        base = sorted(set(np.round(rng.uniform(0, 30, 12), 1)))
        save_times = {}
        for j in range(n_sub):
            drop = rng.random(len(base)) < 0.3
            save_times[f"s{j}"] = [t for t, d in zip(base, drop) if not d]
        if any(not v for v in save_times.values()):
            continue
        det = {f"s{j}": float(rng.choice([0.0, 0.25, 1.0, 5.0]))
               for j in range(n_sub)}
        k = float(np.round(rng.uniform(0, 35), 1))
        expect = brute_force_k1(save_times, det, k)
        if expect is None:
            with pytest.raises(UnrecoverableError):
                most_recent_consistent_checkpoint(save_times, det, k)
        else:
            got = most_recent_consistent_checkpoint(save_times, det, k)
            assert got == pytest.approx(expect)
            assert k - got > max(det.values())
            assert all(any(abs(got - t) < 1e-9 for t in ts)
                       for ts in save_times.values())


@settings(max_examples=200, deadline=None)
@given(ns=st.lists(st.integers(0, 3_000_000), min_size=1, max_size=40),
       n_sub=st.integers(1, 3), keep=st.randoms(use_true_random=False),
       k_ns=st.integers(0, 3_500_000), margin_us=st.integers(0, 500_000))
def test_selection_matches_brute_force_on_microseconds(ns, n_sub, keep, k_ns,
                                                       margin_us):
    """Save times in nanoseconds, so distinct times can share a microsecond:
    the bisecting search equals a scan of the common microseconds."""
    times = sorted(set(n / 1e9 for n in ns))
    save_times = {f"s{j}": [t for t in times if keep.random() < 0.7]
                  for j in range(n_sub)}
    det = {"s0": margin_us / 1e6}
    k = k_ns / 1e9
    common = set.intersection(*({to_us(t) for t in ts}
                                for ts in save_times.values()))
    cands = [t for t in common if to_us(k) - t > to_us(det["s0"])]
    if not cands:
        with pytest.raises(UnrecoverableError):
            most_recent_consistent_checkpoint(save_times, det, k)
    else:
        assert most_recent_consistent_checkpoint(save_times, det, k) == \
            max(cands) / 1e6


# -- classification -----------------------------------------------------


def test_classify_consistent():
    assert classify_checkpoint_set(
        {"a": [3.0, 3.0], "b": [3.0]}) == CONSISTENT


def test_classify_partly_inconsistent():
    assert classify_checkpoint_set(
        {"a": [3.0, 3.0], "b": [2.9]}) == PARTLY_INCONSISTENT


def test_classify_fully_inconsistent():
    assert classify_checkpoint_set({"a": [3.0, 2.9]}) == FULLY_INCONSISTENT


def test_classify_empty_raises():
    with pytest.raises(ValueError):
        classify_checkpoint_set({})


# -- safe stop ----------------------------------------------------------


def test_safe_stop_strict_inequality():
    assert not safe_stop_check(3.25, 3.5, 5.0)
    assert not safe_stop_check(0.0, 5.0, 5.0)
    assert safe_stop_check(0.0, 5.1, 5.0)


# -- element mask -------------------------------------------------------


def test_element_mask_specific_gain_pattern():
    K = np.array([[0.5, 0.0, 0.0],
                  [0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.5]])
    out = AdsOutput("specific", np.array([1, 1, 0]), 0.25)
    np.testing.assert_array_equal(element_mask(K, out, 3),
                                  [True, True, False])


def test_element_mask_generic_all():
    out = AdsOutput("generic", True, 0.25)
    np.testing.assert_array_equal(element_mask(np.zeros((3, 3)), out, 3),
                                  [True, True, True])


# -- roll-forward recovery ----------------------------------------------


def lti_runtime(model, t_max=100.0, detection_time=1.0, schedule=None):
    if schedule is None:
        schedule = AnomalySchedule(())
    ads = AdsConfig(kind="specific", mode="oracle",
                    detection_time=detection_time)
    return SubsystemRuntime(model=model, est=EstimatorState.initial(model),
                            controller=lambda x, t: np.zeros(model.n_u),
                            ads=ads, schedule=schedule, t_max=t_max)


def test_roll_forward_equals_lti_closed_form():
    # checkpoint x=1 at t=0, controls u=[0.5, 0.5] -> A^2 x + sum A^{i-1} B u
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0, x0=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, ControlRecord(0.0, [0.5]))
    store.append_control(m.id, ControlRecord(1.0, [0.5]))
    rt = lti_runtime(m, detection_time=1.0)
    out = AdsOutput("specific", np.array([1]), 1.0)
    x_new, x_rec, mask, k1 = roll_forward_recover(
        rt, store, np.array([99.0]), np.array([[1.0]]), out,
        {m.id: 1.0}, 2.0)
    assert x_rec[0] == 2.0
    assert k1 == 0.0
    assert x_new[0] == 2.0 and mask[0]


def test_roll_forward_generic_replaces_everything():
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, ControlRecord(0.0, [0.0]))
    store.append_control(m.id, ControlRecord(1.0, [0.0]))
    rt = lti_runtime(m)
    out = AdsOutput("generic", True, 1.0)
    x_new, x_rec, mask, _ = roll_forward_recover(
        rt, store, np.array([42.0]), np.zeros((1, 1)), out, {m.id: 1.0}, 2.0)
    assert x_new[0] == x_rec[0] == 1.0


def test_roll_forward_missing_controls_unrecoverable():
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, ControlRecord(0.0, [0.5]))  # gap at t=1
    rt = lti_runtime(m)
    out = AdsOutput("specific", np.array([1]), 1.0)
    with pytest.raises(UnrecoverableError):
        roll_forward_recover(rt, store, np.array([0.0]), np.eye(1), out,
                             {m.id: 1.0}, 2.0)


# -- the full tick ------------------------------------------------------


def tick_scenario(schedule, t_max=100.0, q=0.0, r=0.1):
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0, q=q, r=r, x0=0.0, p0=1.0)
    rt = lti_runtime(m, t_max=t_max, detection_time=1.0, schedule=schedule)
    rt.controller = lambda x, t: np.array([0.1])
    return m, rt, SecureStore()


def test_healthy_tick_checkpoints_and_logs():
    m, rt, store = tick_scenario(AnomalySchedule(()))
    res = subsystem_tick(rt, store, True, np.array([0.0]), 0.0)
    assert res.ckpt_event and not res.detected and res.x_rec is None
    assert store.save_times(m.id) == [0.0]
    assert len(store.controls(m.id)) == 1


def test_detected_tick_recovers_and_skips_checkpoint():
    sched = AnomalySchedule((AnomalyWindow(4.0, 8.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched)
    for k in range(5):
        subsystem_tick(rt, store, True, np.array([0.0]), float(k))
    res = subsystem_tick(rt, store, True, np.array([50.0]), 5.0)
    assert res.detected and res.x_rec is not None
    assert not res.ckpt_event
    assert 5.0 not in store.save_times(m.id)
    assert res.k1 == 3.0  # newest save with 5 - k1 > detection_time 1.0
    # later ticks of the episode extend it and report its checkpoint
    res = subsystem_tick(rt, store, True, np.array([50.0]), 6.0)
    assert res.k1 == 3.0 and rt.episode.start == 5.0
    np.testing.assert_array_equal(rt.episode.x_rec, res.x_rec)


def test_episode_exceeding_t_max_raises_safe_stop():
    sched = AnomalySchedule((AnomalyWindow(4.0, 30.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched, t_max=2.0)
    t = 0.0
    with pytest.raises(SafeStop) as exc_info:
        for k in range(30):
            t = float(k)
            subsystem_tick(rt, store, True, np.array([0.0]), t)
    stop = exc_info.value
    # detection at 5.0, strict exceedance of 2.0 at t=7.0... +1 tick
    assert stop.episode_start == 5.0
    assert stop.t - stop.episode_start > 2.0
    assert stop.result.detected


def test_zero_noise_recovery_matches_truth():
    # with exact model and no noise the roll-forward replays the plant
    sched = AnomalySchedule((AnomalyWindow(4.0, 9.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched, q=0.0, r=0.0)
    x_true = np.array([0.0])
    for k in range(12):
        t = float(k)
        y = m.g(x_true, None) + (50.0 if 4.0 <= t < 9.0 else 0.0)
        res = subsystem_tick(rt, store, True, np.atleast_1d(y), t)
        if res.detected:
            np.testing.assert_allclose(res.x_rec, x_true, atol=1e-9)
        x_true = m.f(x_true, rt.last_u)


def test_healthy_elements_untouched_by_recovery():
    # 2-state model, sensor flags touch only element 0 through a diagonal gain
    from cpsrecover.models import SubsystemModel
    A = np.eye(2)
    m = SubsystemModel(
        id="diag", n_x=2, n_y=2, n_u=1,
        f=lambda x, u: A @ x, g=lambda x, u: x.copy(),
        jac_A=lambda x, u: A, jac_C=lambda x, u: np.eye(2),
        Q=np.diag([0.1, 0.1]), R=np.diag([0.1, 0.1]), dt=1.0,
        mu0=np.zeros(2), Sigma0=np.diag([1.0, 1.0]))
    sched = AnomalySchedule((AnomalyWindow(4.0, 9.0, [50.0, 0.0], [1, 0]),))
    ads = AdsConfig(kind="specific", mode="oracle", detection_time=1.0)
    rt = SubsystemRuntime(model=m, est=EstimatorState.initial(m),
                          controller=lambda x, t: np.zeros(1), ads=ads,
                          schedule=sched, t_max=100.0)
    store = SecureStore()
    for k in range(8):
        t = float(k)
        y = np.array([50.0, 0.0]) if 4.0 <= t < 9.0 else np.zeros(2)
        res = subsystem_tick(rt, store, True, y, t)
        if res.detected:
            np.testing.assert_array_equal(res.mask, [True, False])
            assert res.x_hat[1] == res.x_hat_est[1]
