import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cpsrecover import config as cfgmod, framework, robot, sim
from cpsrecover.anomaly import (DETECTOR_KINDS, AdsConfig, AnomalySchedule,
                                AnomalyWindow, oracle_flags)
from cpsrecover.estimator import estimator_step
from cpsrecover.framework import (CONSISTENT, FULLY_INCONSISTENT,
                                  PARTLY_INCONSISTENT, UnrecoverableError,
                                  classify_checkpoint_set,
                                  element_mask,
                                  most_recent_consistent_checkpoint,
                                  roll_forward_recover, subsystem_tick)
from cpsrecover.store import Checkpoint, SecureStore
from cpsrecover.models import SubsystemModel
from cpsrecover.timebase import to_s, to_us
from helpers import (controls_of, prior, random_lti_model,
                     reference_active_window, reference_inject_anomaly,
                     reference_oracle_flags, reference_roll_forward,
                     scalar_lti_model, ticking_runtime)


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


# the stop reason of a tick past its episode's tolerable duration
OVERRUN = "anomaly duration exceeded maximum tolerable duration"


def test_safe_stop_strict_inequality():
    """An episode safe-stops on its first tick past start + ``t_max``, in
    integer µs: one lasting exactly ``t_max`` does not, though in floats
    ``0.4 - 0.1 > 0.3``.  A tick that goes on returns None."""
    sched = AnomalySchedule((AnomalyWindow(0.1, 5.0, [50.0], [1]),))
    m = scalar_lti_model(dt=0.1)
    rt = lti_runtime(m, t_max=0.3, detection_time=0.0, schedule=sched)
    store = SecureStore()
    stops = [subsystem_tick(rt, store, True, np.array([0.0]),
                            to_s(k * 100_000), {m.id: 0.0}) for k in range(8)]
    assert rt.episode.start == 0.1 and 0.4 - 0.1 > 0.3
    assert stops == [None] * 5 + [OVERRUN] * 3


# -- element mask -------------------------------------------------------


def test_element_mask_specific_gain_pattern():
    K = np.array([[0.5, 0.0, 0.0],
                  [0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.5]])
    np.testing.assert_array_equal(
        element_mask(K, np.array([1, 1, 0]), "specific"), [True, True, False])


def test_element_mask_generic_all():
    np.testing.assert_array_equal(
        element_mask(np.zeros((3, 3)), np.array([1]), "generic"),
        [True, True, True])


# -- roll-forward recovery ----------------------------------------------


def lti_runtime(model, t_max=100.0, detection_time=1.0, schedule=None,
                kind="specific", mode="oracle", ticks=20):
    if schedule is None:
        schedule = AnomalySchedule(())
    ads = AdsConfig(kind=kind, mode=mode, detection_time=detection_time)
    return ticking_runtime(model, ads, schedule, ticks, t_max)


# window edges in µs: consecutive pairs of sorted distinct points, so the
# windows never overlap and may touch; most edges are off the tick grid
_edges_us = st.lists(st.integers(-300_000, 2_000_000), unique=True,
                     max_size=10)


@settings(max_examples=100, deadline=None)
@given(edges=_edges_us, n_y=st.integers(1, 3),
       dt_us=st.sampled_from([10_000, 30_000, 100_000]),
       detection_us=st.integers(0, 400_000),
       kind=st.sampled_from(DETECTOR_KINDS), data=st.data())
@example(edges=[], n_y=2, dt_us=10_000, detection_us=0, kind="generic",
         data=None)
# a window that ends before its detection completes is never flagged
@example(edges=[250_000, 400_000, 1_000_000, 1_500_000], n_y=1,
         dt_us=10_000, detection_us=250_000, kind="specific", data=None)
# a window that starts before the first tick
@example(edges=[-250_000, 150_000], n_y=1, dt_us=30_000, detection_us=0,
         kind="specific", data=None)
def test_resolved_schedule_equals_the_per_tick_reference(
        edges, n_y, dt_us, detection_us, kind, data):
    """On every tick the window the scheduler resolves, the measurement
    it offsets, the window delayed by the detection time, a runtime's
    Boolean flag row and ``detected`` equal the per-tick reference window,
    injection and oracle, and so do ``oracle_flags`` of the tick alone, as
    integers; a residual-threshold runtime starts with every row clear."""
    draw = data.draw if data else (lambda s: [1] * n_y)
    points = sorted(edges)
    windows = [AnomalyWindow(to_s(a), to_s(b), draw(st.lists(
        st.floats(-1e3, 1e3), min_size=n_y, max_size=n_y)), draw(st.lists(
        st.integers(0, 1), min_size=n_y, max_size=n_y)))
        for a, b in zip(points[::2], points[1::2])]
    sched = AnomalySchedule(tuple(windows))
    model = SubsystemModel(
        id="m", n_x=n_y, n_y=n_y, n_u=1, f=lambda x, u: x,
        g=lambda x, u: x, jac_A=lambda x, u: np.eye(n_y),
        jac_C=lambda x, u: np.eye(n_y), Q=np.zeros((n_y, n_y)),
        R=np.zeros((n_y, n_y)), dt=to_s(dt_us), **prior(n_y))
    ticks = 2_100_000 // dt_us
    ads = AdsConfig(kind=kind, detection_time=to_s(detection_us))
    rt = lti_runtime(model, detection_time=ads.detection_time,
                     schedule=sched, kind=kind, ticks=ticks)
    y = np.array([-0.0, 1.5, -2.25][:n_y])
    window = sched.window_index(np.arange(ticks) * dt_us, 0)
    delayed = sched.window_index(np.arange(ticks) * dt_us, detection_us)
    assert window.shape == (ticks,) and window.dtype.kind == "i"
    assert rt.flags.dtype == bool
    for n in range(ticks):
        t = to_s(n * dt_us)
        j = window[n]
        w = sched.windows[j] if j >= 0 else None
        assert w is reference_active_window(sched, t)
        # the offset a run adds: the schedule's, of the tick's window
        got_y = y if w is None else y + sched.offsets[j]
        want_y = reference_inject_anomaly(y, sched, t)
        assert (got_y is y) == (want_y is y)
        assert got_y.tobytes() == want_y.tobytes()
        assert delayed[n] == next(
            (j for j, w in enumerate(sched.windows)
             if to_us(w.t_start) + detection_us <= n * dt_us
             < to_us(w.t_end)), -1)
        want = reference_oracle_flags(n_y, sched, t, ads.detection_time)
        if kind == "generic":
            want = np.array([int(want.any())])
        got = oracle_flags(ads, sched, to_us(t), n_y)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rt.flags[n], want)
        assert rt.detected[n] == int(want.any())
    residual = lti_runtime(model, detection_time=ads.detection_time,
                           schedule=sched, kind=kind,
                           mode="residual-threshold", ticks=ticks)
    assert residual.flags.shape == rt.flags.shape
    assert not residual.flags.any() and not any(residual.detected)


def test_roll_forward_equals_lti_closed_form():
    # checkpoint x=1 at t=0, controls u=[0.5, 0.5] -> A^2 x + sum A^{i-1} B u
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0, x0=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, 0.0, [0.5])
    store.append_control(m.id, 1.0, [0.5])
    rt = lti_runtime(m, detection_time=1.0)
    x_new, x_rec, mask, k1 = roll_forward_recover(
        rt, store, np.array([99.0]), np.array([[1.0]]), np.array([1]),
        {m.id: 1.0}, 2.0, None)
    assert x_rec[0] == 2.0
    assert k1 == 0.0
    assert x_new[0] == 2.0 and mask[0]


def test_roll_forward_generic_replaces_everything():
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, 0.0, [0.0])
    store.append_control(m.id, 1.0, [0.0])
    rt = lti_runtime(m, kind="generic")
    x_new, x_rec, mask, _ = roll_forward_recover(
        rt, store, np.array([42.0]), np.zeros((1, 1)), np.array([1]),
        {m.id: 1.0}, 2.0, None)
    assert x_new[0] == x_rec[0] == 1.0


def test_roll_forward_missing_controls_unrecoverable():
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0)
    store = SecureStore()
    store.append_checkpoint(m.id, Checkpoint(0.0, [1.0], [0]))
    store.append_control(m.id, 0.0, [0.5])  # gap at t=1
    rt = lti_runtime(m)
    with pytest.raises(UnrecoverableError):
        roll_forward_recover(rt, store, np.array([0.0]), np.eye(1),
                             np.array([1]), {m.id: 1.0}, 2.0, None)


# -- the full tick ------------------------------------------------------


def tick_scenario(schedule, t_max=100.0, q=0.0, r=0.1):
    m = scalar_lti_model(a=1.0, b=1.0, dt=1.0, q=q, r=r, x0=0.0, p0=1.0)
    rt = lti_runtime(m, t_max=t_max, detection_time=1.0, schedule=schedule)
    rt.controller = lambda x, t: np.array([0.1])
    return m, rt, SecureStore()


def test_healthy_tick_checkpoints_and_logs():
    m, rt, store = tick_scenario(AnomalySchedule(()))
    stop = subsystem_tick(rt, store, True, np.array([0.0]), 0.0,
                          {m.id: rt.ads.detection_time})
    tr = rt.trace
    assert stop is None and rt.rows == 1
    assert tr["ckpt_event"][0] and not tr["ads_flags"][0].any()
    assert np.isnan(tr["x_rec"][0]).all() and not tr["recovered"][0].any()
    assert store.save_times(m.id) == [0.0]
    assert len(controls_of(store, m.id)) == 1


def test_detected_tick_recovers_and_skips_checkpoint():
    sched = AnomalySchedule((AnomalyWindow(4.0, 8.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched)
    detection_times = {m.id: rt.ads.detection_time}
    for k in range(5):
        subsystem_tick(rt, store, True, np.array([0.0]), float(k),
                       detection_times)
    subsystem_tick(rt, store, True, np.array([50.0]), 5.0, detection_times)
    tr = rt.trace
    assert tr["ads_flags"][5].any() and not np.isnan(tr["x_rec"][5]).any()
    assert not tr["ckpt_event"][5]
    assert 5.0 not in store.save_times(m.id)
    assert tr["k1"][5] == 3.0  # newest save with 5 - k1 > detection_time 1.0
    # later ticks of the episode extend it and report its checkpoint
    subsystem_tick(rt, store, True, np.array([50.0]), 6.0, detection_times)
    assert tr["k1"][6] == 3.0 and rt.episode.start == 5.0
    np.testing.assert_array_equal(rt.episode.x_rec, tr["x_rec"][6])


def test_episode_exceeding_t_max_flags_safe_stop():
    sched = AnomalySchedule((AnomalyWindow(4.0, 30.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched, t_max=2.0)
    stops = []
    for k in range(10):
        stops.append(subsystem_tick(rt, store, True, np.array([0.0]),
                                    float(k), {m.id: rt.ads.detection_time}))
    # detection at 5.0; the episode strictly exceeds 2.0 s from t=8.0
    assert rt.episode.start == 5.0
    assert stops == [None] * 8 + [OVERRUN] * 2
    assert rt.trace["safe_stop"][:10].tolist() == [False] * 8 + [True] * 2
    assert rt.trace["ads_flags"][9].any()


def test_an_unrecoverable_tick_writes_its_row_and_returns_its_reason():
    """Flagged at t = 1 with detection time 1, the tick finds no checkpoint
    older than t = 0: it writes and counts its row, then returns the
    reason recovery gave, with no control logged and no episode opened."""
    sched = AnomalySchedule((AnomalyWindow(0.0, 30.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched)
    detection_times = {m.id: rt.ads.detection_time}
    subsystem_tick(rt, store, True, np.array([0.0]), 0.0, detection_times)
    last_u = rt.last_u
    stop = subsystem_tick(rt, store, True, np.array([50.0]), 1.0,
                          detection_times)
    assert stop == ("unrecoverable: no consistent checkpoint older than "
                    "detection window before k=1.0")
    tr = rt.trace
    assert rt.rows == 2 and rt.episode is None and rt.last_u is last_u
    assert tr["t"][1] == 1.0 and tr["y_meas"][1, 0] == 50.0
    assert tr["ads_flags"][1].all() and tr["safe_stop"][1]
    np.testing.assert_array_equal(tr["x_rf"][1], tr["x_hat"][1])
    assert np.isnan(tr["u"][1]).all() and np.isnan(tr["k1"][1])
    assert not tr["recovered"][1].any() and not tr["ckpt_event"][1]
    assert len(controls_of(store, m.id)) == 1


def test_only_residual_threshold_keeps_an_innovation_window():
    m = scalar_lti_model(dt=0.1)
    assert lti_runtime(m, detection_time=0.25).innovations is None
    rt = lti_runtime(m, detection_time=0.25, mode="residual-threshold")
    assert rt.innovations.maxlen == 2          # round(0.25 / 0.1)
    rt = lti_runtime(m, detection_time=0.0, mode="residual-threshold")
    assert rt.innovations.maxlen == 1
    # a residual-threshold tick appends its innovation to the window
    for k in range(3):
        subsystem_tick(rt, SecureStore(), False, np.array([0.0]), k * 0.1,
                       {m.id: rt.ads.detection_time})
    assert len(rt.innovations) == 1


def test_zero_noise_recovery_matches_truth():
    # with exact model and no noise the roll-forward replays the plant
    sched = AnomalySchedule((AnomalyWindow(4.0, 9.0, [50.0], [1]),))
    m, rt, store = tick_scenario(sched, q=0.0, r=0.0)
    x_true = np.array([0.0])
    for k in range(12):
        t = float(k)
        y = m.g(x_true, None) + (50.0 if 4.0 <= t < 9.0 else 0.0)
        subsystem_tick(rt, store, True, np.atleast_1d(y), t,
                       {m.id: rt.ads.detection_time})
        if rt.trace["ads_flags"][k].any():
            np.testing.assert_allclose(rt.trace["x_rec"][k], x_true,
                                       atol=1e-9)
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
    rt = ticking_runtime(m, ads, sched, ticks=8)
    store = SecureStore()
    for k in range(8):
        t = float(k)
        y = np.array([50.0, 0.0]) if 4.0 <= t < 9.0 else np.zeros(2)
        subsystem_tick(rt, store, True, y, t, {m.id: rt.ads.detection_time})
        tr = rt.trace
        if tr["ads_flags"][k].any():
            np.testing.assert_array_equal(tr["recovered"][k], [True, False])
            assert tr["x_rf"][k, 1] == tr["x_hat"][k, 1]


def test_a_tick_reads_the_row_of_its_count_not_of_t_over_dt():
    """A model whose period is not a whole number of microseconds (2.5 µs
    here) ticks every ``to_us(dt)`` = 2 µs, and its flags are resolved on
    that grid: the n-th tick reads and writes row n, where ``round(t / dt)``
    would fall behind."""
    m = scalar_lti_model(dt=2.5e-6)
    dt_us = to_us(m.dt)
    window = AnomalyWindow(to_s(10 * dt_us), to_s(15 * dt_us), [50.0], [1])
    rt = lti_runtime(m, detection_time=0.0,
                     schedule=AnomalySchedule((window,)), ticks=20)
    store = SecureStore()
    t = [to_s(n * dt_us) for n in range(20)]
    for n in range(20):
        subsystem_tick(rt, store, True, np.array([0.0]), t[n], {m.id: 0.0})
    assert any(round(t[n] / m.dt) != n for n in range(10, 15))
    inside = [10 <= n < 15 for n in range(20)]
    assert rt.rows == 20 and rt.trace["t"].tolist() == t
    assert rt.trace["ads_flags"][:, 0].astype(bool).tolist() == inside
    assert rt.trace["recovered"][:, 0].tolist() == inside
    assert store.save_times(m.id) == t[:10] + t[15:]


# -- predicting each state once ------------------------------------------


def _drive(model, kind, gamma, edges, controller, rng):
    """Tick ``model``'s runtime on random measurements with a checkpoint on
    every healthy tick, through anomaly windows over the rows between
    consecutive ``edges`` and three ticks past the last; returns its trace
    and store."""
    dt_us, ticks = to_us(model.dt), edges[-1] + 3
    windows = tuple(
        AnomalyWindow(to_s(a * dt_us), to_s(b * dt_us),
                      np.zeros(model.n_y), gamma)
        for a, b in zip(edges[::2], edges[1::2]))
    rt = lti_runtime(model, detection_time=0.0,
                     schedule=AnomalySchedule(windows), kind=kind,
                     ticks=ticks)
    rt.controller = controller
    store = SecureStore()
    for n in range(ticks):
        subsystem_tick(rt, store, True, rng.normal(0.0, 1.0, model.n_y),
                       to_s(n * dt_us), {model.id: 0.0})
    return rt.trace, store


def _assert_equals_reference_roll_forward(model, trace, store):
    want = reference_roll_forward(model, store, trace)
    assert (~np.isnan(want)).any()
    assert want.tobytes() == trace["x_rec"].tobytes()
    recovering = ~np.isnan(trace["k1"])
    x_rf = np.where(trace["recovered"], want, trace["x_hat"])
    assert x_rf[recovering].tobytes() == trace["x_rf"][recovering].tobytes()


# edges of the anomaly windows, in rows: after the first tick, so that a
# checkpoint precedes every window
_rows = st.lists(st.integers(1, 40), min_size=2, max_size=6,
                 unique=True).map(sorted)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edges=_rows)
def test_reusing_the_prior_is_exact_on_full_masks(seed, edges):
    """Random LTI models under a generic detector take every element from
    the roll-forward, so each episode tick after the first reuses the
    estimator's prior; the trace equals, bit for bit, a roll-forward that
    calls ``f`` for every step."""
    rng = np.random.default_rng(seed)
    model, _, _ = random_lti_model(rng)
    trace, store = _drive(model, "generic", np.ones(model.n_y), edges,
                          lambda x, t: -0.5 * x[:model.n_u], rng)
    assert trace["recovered"][~np.isnan(trace["k1"])].all()
    _assert_equals_reference_roll_forward(model, trace, store)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edges=_rows,
       gamma=st.lists(st.integers(0, 1), min_size=3, max_size=3),
       speed=st.sampled_from([0.0, 0.5]))
@example(seed=0, edges=[3, 9], gamma=[1, 1, 0], speed=0.0)
def test_partial_masks_keep_their_own_predict(seed, edges, gamma, speed):
    """The bicycle model under a specific detector equals the same
    reference.  At rest its covariance and gains stay diagonal, so a mask
    holds the flagged elements alone and the others keep the estimator's
    value; moving, the gains couple every element."""
    model = robot.bicycle_model(0.1, 0.01 * np.eye(3), 0.01 * np.eye(3),
                                mu0=np.array([2.0, 0.0, 1.5]),
                                Sigma0=np.eye(3))
    rng = np.random.default_rng(seed)
    trace, store = _drive(model, "specific", np.array(gamma, float), edges,
                          lambda x, t: np.array([speed, -0.5 * x[2]]), rng)
    recovering = ~np.isnan(trace["k1"])
    if not any(gamma):
        assert not recovering.any()
        return
    if speed == 0.0:
        assert (trace["recovered"][recovering] == np.array(gamma, bool)).all()
    _assert_equals_reference_roll_forward(model, trace, store)


def test_the_cached_mask_follows_the_flags_and_the_gain(monkeypatch):
    """In one outer-loop episode the flag row changes from [1, 1, 0] to
    [1, 0, 0] while the gain object stays, and the gain object changes
    while the flags stay; each recovering row's mask is ``element_mask`` of
    that tick's gain and flags, and each mask ``roll_forward_recover``
    returns is read-only."""
    model = robot.bicycle_model(0.1, 0.01 * np.eye(3), 0.01 * np.eye(3),
                                mu0=np.array([2.0, 0.0, 1.5]),
                                Sigma0=np.eye(3))
    gains = [np.eye(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                  [0.0, 1.0, 1.0]])]
    for K in gains:
        K.flags.writeable = False
    used = []                          # each tick's gain, by row

    def step(*args):
        est, _, innovation, prior = estimator_step(*args)
        used.append(gains[len(used) // 4 % 2])
        return est, used[-1], innovation, prior

    monkeypatch.setattr(framework, "estimator_step", step)
    masks = []                         # each recovering tick's mask
    recover = framework.roll_forward_recover

    def spy(*args):
        out = recover(*args)
        masks.append(out[2])
        return out

    monkeypatch.setattr(framework, "roll_forward_recover", spy)
    dt_us = to_us(model.dt)
    windows = tuple(AnomalyWindow(to_s(a * dt_us), to_s(b * dt_us),
                                  np.zeros(3), gamma)
                    for a, b, gamma in ((3, 9, [1, 1, 0]), (9, 15, [1, 0, 0])))
    rt = lti_runtime(model, detection_time=0.0,
                     schedule=AnomalySchedule(windows), ticks=15)
    rt.controller = lambda x, t: np.array([0.0, -0.5 * x[2]])
    store = SecureStore()
    rng = np.random.default_rng(5)
    for n in range(15):
        subsystem_tick(rt, store, True, rng.normal(0.0, 1.0, 3),
                       to_s(n * dt_us), {model.id: 0.0})
    tr = rt.trace
    recovering = np.flatnonzero(~np.isnan(tr["k1"]))
    assert recovering.tolist() == list(range(3, 15))
    for n in recovering:
        np.testing.assert_array_equal(
            tr["recovered"][n],
            element_mask(used[n], tr["ads_flags"][n], "specific"))
    # [1, 1, 0] under each gain and [1, 0, 0]: three distinct masks
    assert len({tr["recovered"][n].tobytes() for n in recovering}) == 3
    assert rt.episode.start == to_s(3 * dt_us)
    assert len(masks) == len(recovering)
    assert not any(mask.flags.writeable for mask in masks)


def test_the_mask_memo_serves_the_motor_loops(monkeypatch):
    """Two seed-42 default runs in one process, from an empty memo: every
    gain that enters the memo is read-only, and each memo entry is one
    ``element_mask`` call of the first run's motor loops.  The second run
    calls ``element_mask`` once per recovering outer tick, whose gain is
    new on each tick, and never on a motor tick."""
    monkeypatch.setattr(framework, "_MASKS", {})
    loop, calls, memo_calls = [None], [], []
    recover = framework.roll_forward_recover
    mask_of, memo = framework.element_mask, framework._memo_mask

    def spy_recover(rt, *args):
        loop[0] = rt.model.id
        return recover(rt, *args)

    def spy_mask(*args):
        calls.append(loop[0])
        return mask_of(*args)

    def spy_memo(K, *args):
        memo_calls.append((loop[0], K.flags.writeable))
        return memo(K, *args)

    monkeypatch.setattr(framework, "roll_forward_recover", spy_recover)
    monkeypatch.setattr(framework, "element_mask", spy_mask)
    monkeypatch.setattr(framework, "_memo_mask", spy_memo)
    cfg = cfgmod.build_case_study(seed=42)
    sim.run_scenario(cfg)
    assert len(framework._MASKS) == sum(c != "outer" for c in calls) > 0
    calls.clear()
    res = sim.run_scenario(cfg)
    outer = np.count_nonzero(~np.isnan(res.traces["outer"]["k1"]))
    assert calls == ["outer"] * outer and outer > 0
    assert memo_calls and all(sid != "outer" and not writeable
                              for sid, writeable in memo_calls)
