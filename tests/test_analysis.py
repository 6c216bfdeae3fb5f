import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsrecover.analysis import (BoundParams, _episode_remainders,
                                 accuracy_resource_gap_bound,
                                 calibrate_bound_params,
                                 checkpoint_time_before_anomaly,
                                 max_duration_certificate,
                                 recovery_error_bound_at)
from cpsrecover.timebase import US_PER_S, to_s, to_us
from helpers import (ReferenceBounds, outcome, prior,
                     reference_episode_remainders)


def scalar_params(**kw):
    defaults = dict(A_bar=np.array([[1.0]]), eps_delta=np.array([0.1]),
                    eps_omega=np.array([0.05]), phi_bar=np.array([0.0]),
                    E_max=np.array([0.5]), delta_s=0.0, mu=1.0, tick=1.0)
    defaults.update(kw)
    return BoundParams(**defaults)


# -- recovered error bound ----------------------------------------------


def test_rsee_scalar_hand_case():
    # A=1, k=3, k1=0: delta term + 3 omega terms = 0.1 + 3*0.05
    assert recovery_error_bound_at(scalar_params(), 3, 0)[0] == \
        pytest.approx(0.25)


def test_rsee_single_step():
    # k = k1 + 1: |A| eps_delta + |A| eps_omega + phi
    p = scalar_params(phi_bar=np.array([0.02]))
    assert recovery_error_bound_at(p, 6, 5)[0] == \
        pytest.approx(0.1 + 0.05 + 0.02)


def test_rsee_monotone_for_expansive_A():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        A = np.eye(n) + rng.uniform(0, 1, (n, n))
        p = BoundParams(A_bar=A, eps_delta=rng.uniform(0, 1, n),
                        eps_omega=rng.uniform(0, 1, n),
                        phi_bar=rng.uniform(0, 1, n))
        prev = recovery_error_bound_at(p, 1, 0)
        for k in range(1, 10):
            cur = recovery_error_bound_at(p, k + 1, 0)
            assert np.all(cur >= prev - 1e-12)
            prev = cur


def test_rsee_lti_drops_remainder():
    p = scalar_params(phi_bar=np.array([0.3]))
    assert recovery_error_bound_at(replace(p, phi_bar=None), 3, 0)[0] == \
        pytest.approx(0.25)
    # original params untouched
    assert p.phi_bar[0] == 0.3
    assert recovery_error_bound_at(p, 3, 0)[0] == pytest.approx(0.55)
    rng = np.random.default_rng(1)
    q = BoundParams(A_bar=rng.uniform(0, 1, (2, 2)),
                    eps_delta=rng.uniform(0, 1, 2),
                    eps_omega=rng.uniform(0, 1, 2))
    np.testing.assert_array_equal(
        recovery_error_bound_at(replace(q, phi_bar=None), 5, 1),
        recovery_error_bound_at(q, 5, 1))


def test_rsee_zero_dynamics_degenerate():
    p = scalar_params(A_bar=np.array([[0.0]]))
    np.testing.assert_array_equal(recovery_error_bound_at(p, 4, 0), [0.0])


def test_rsee_validation():
    with pytest.raises(ValueError):
        recovery_error_bound_at(scalar_params(), 1, 1)
    with pytest.raises(ValueError):
        BoundParams(A_bar=np.eye(1), eps_delta=[-0.1], eps_omega=[0.0])


# -- checkpoint grid mapping --------------------------------------------


def test_checkpoint_before_anomaly_case_study():
    assert checkpoint_time_before_anomaly(3.25, 0.0, 1.0, 0.1) == 3.0


def test_checkpoint_before_anomaly_every_tick():
    assert checkpoint_time_before_anomaly(3.25, 0.0, 100.0, 0.01) == \
        pytest.approx(3.24)


def test_checkpoint_before_anomaly_fallback_to_origin():
    assert checkpoint_time_before_anomaly(0.5, 0.0, 1.0, 0.1) == 0.0


# -- max tolerable duration ---------------------------------------------


def test_max_duration_scalar_hand_case():
    # 0.1 + 8*0.05 = 0.5 at T=7 ticks; exceeds E at T=8
    p = scalar_params(mu=1.0, tick=1.0)
    T, lo, _ = max_duration_certificate(p, 8.0)
    assert T == 7.0 and not np.any(lo > p.E_max)


def test_max_duration_bracketing_certificate():
    T, lo, hi = max_duration_certificate(scalar_params(), 8.0)
    E = np.array([0.5])
    assert np.all(lo <= E) and np.any(hi > E)


def test_max_duration_zero_at_boundary():
    # E equals the bound at the smallest duration: degenerate warning case
    p = scalar_params(E_max=np.array([0.14]))
    T, lo, _ = max_duration_certificate(p, 8.0)
    assert T == 0.0 and np.any(lo > p.E_max)


def test_max_duration_decreases_with_noise():
    T1, _, _ = max_duration_certificate(scalar_params(), 8.0)
    T2, _, _ = max_duration_certificate(
        scalar_params(eps_omega=np.array([0.1])), 8.0)
    assert T2 < T1


def test_max_duration_random_bracketing():
    rng = np.random.default_rng(23)
    count = 0
    while count < 100:
        n = int(rng.integers(1, 4))
        A = np.eye(n) + rng.uniform(0, 0.5, (n, n))
        p = BoundParams(A_bar=A,
                        eps_delta=rng.uniform(0.01, 0.2, n),
                        eps_omega=rng.uniform(0.01, 0.2, n),
                        E_max=rng.uniform(2.0, 50.0, n),
                        mu=1.0, tick=1.0, t_search_max=500.0)
        s = float(rng.integers(2, 10))
        T, lo, hi = max_duration_certificate(p, s)
        if T == 0.0:
            continue
        assert np.all(lo <= p.E_max + 1e-12)
        assert np.any(hi > p.E_max)
        count += 1


# -- accuracy/resource gap ----------------------------------------------


def test_gap_bound_scalar_hand_case():
    # checkpoint grid 5 s apart: k1 = s-5 ticks vs optimal s-1; the delta
    # terms cancel (A=1, eps_delta const) leaving 4 extra omega terms
    p = scalar_params(mu=0.2, E_max=None)
    np.testing.assert_allclose(accuracy_resource_gap_bound(p, 12, 10.0),
                               [0.2])


def test_gap_bound_zero_at_optimal_frequency():
    p = scalar_params(mu=1.0, tick=1.0, E_max=None)
    np.testing.assert_array_equal(accuracy_resource_gap_bound(p, 12, 10.0),
                                  [0.0])


def test_gap_bound_nonnegative_random():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = BoundParams(A_bar=rng.uniform(-1.5, 1.5, (n, n)),
                        eps_delta=rng.uniform(0, 1, n),
                        eps_omega=rng.uniform(0, 1, n),
                        mu=float(rng.choice([0.1, 0.2, 0.5, 1.0])),
                        tick=1.0)
        s = float(rng.integers(5, 20))
        k = s + float(rng.integers(1, 10))
        gap = accuracy_resource_gap_bound(p, k, s)
        assert np.all(gap >= 0.0)


# -- cached sums, closed forms and calibration against the loop versions --
#
# The oracles below are the straightforward per-step implementations the
# module used before it cached running sums; the cached versions must agree
# with them (to rounding where the summation order changed, exactly where it
# did not).


def _rsee_loop(params, k, k1):
    """``|A|^n eps_delta + sum_{p=1..n} |A|^p eps_omega + phi_bar`` with
    every power rebuilt, ``n = k - k1 + 1``."""
    A_abs = np.abs(params.A_bar)
    n = k - k1 + 1
    powers = [np.eye(A_abs.shape[0])]
    for _ in range(n):
        powers.append(powers[-1] @ A_abs)
    total = powers[n] @ params.eps_delta
    for p in range(1, n + 1):
        total = total + powers[p] @ params.eps_omega
    return total + params.phi_bar


def _checkpoint_loop_us(s_us, grid_us, detection_us):
    """The search loop of ``checkpoint_time_before_anomaly``, on integers."""
    n = -(-s_us // grid_us) - 1
    detect_at = s_us + detection_us
    while n > 0:
        k1 = n * grid_us
        if k1 < s_us and detect_at - k1 > detection_us:
            return k1
        n -= 1
    return 0


def _duration_scan(params, s):
    """Brute force: every bound up to the search cap, first exceedance."""
    tick = params.tick
    k1_t = round(checkpoint_time_before_anomaly(s, 0.0, params.mu, tick)
                 / tick)
    s_t = round(s / tick)
    max_ticks = int(params.t_search_max / tick)
    bounds = [_rsee_loop(params, s_t + T - 1, k1_t)
              for T in range(1, max(max_ticks, 1) + 2)]
    over = [bool(np.any(b > params.E_max)) for b in bounds]
    if over[0]:
        return 0.0, bounds[0], bounds[0]
    T = next((T for T in range(2, max_ticks + 1) if over[T - 1]), None)
    if T is None:
        lo = max(max_ticks, 1)
        return lo * tick, bounds[lo - 1], bounds[lo]
    return (T - 1) * tick, bounds[T - 2], bounds[T - 1]


def _calibrate_per_tick(model, records, tick, mu, sigma_factor=6.0,
                        lti=False):
    n = model.n_x
    A_bar = np.zeros((n, n))
    err_samples = []
    phi_bar = np.zeros(n)
    for rec in records:
        for k in range(len(rec["x_true"])):
            A_bar = np.maximum(
                A_bar, np.abs(model.jac_A(rec["x_hat"][k], rec["u"][k])))
            healthy = ~rec["recovered"][k]
            if np.any(healthy):
                err_samples.append(np.where(
                    healthy, rec["x_true"][k] - rec["x_hat"][k], np.nan))
        if not lti:
            phi_bar = np.maximum(phi_bar, reference_episode_remainders(
                model, rec["x_true"], rec["x_rec"], rec["u"],
                rec["recovered"]))
    sigma = np.sqrt(np.nanmean(np.asarray(err_samples) ** 2, axis=0))
    return BoundParams(A_bar=A_bar, eps_delta=sigma_factor * sigma,
                       eps_omega=sigma_factor * np.sqrt(np.diag(model.Q)),
                       phi_bar=phi_bar, tick=tick, mu=mu)


def _random_params(rng, kind, n, **kw):
    if kind == "zero":
        A = np.zeros((n, n))
    else:
        A = rng.uniform(-1.0, 1.0, (n, n))
        radius = np.max(np.abs(np.linalg.eigvals(np.abs(A)))) or 1.0
        # spectral radius of |A|: 0.5 (contractive) or 1.02 (expansive)
        A *= (0.5 if kind == "contractive" else 1.02) / radius
    return BoundParams(A_bar=A, eps_delta=rng.uniform(0, 1, n),
                       eps_omega=rng.uniform(0, 1, n),
                       phi_bar=rng.uniform(0, 1, n), **kw)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["contractive", "expansive", "zero"]),
       n=st.integers(1, 4))
def test_cached_rsee_matches_loop_in_any_order(seed, kind, n):
    rng = np.random.default_rng(seed)
    p = _random_params(rng, kind, n)
    k1 = int(rng.integers(0, 50))
    for k in k1 + rng.permutation(300)[:40]:
        got = recovery_error_bound_at(p, int(k) + 1, k1)
        np.testing.assert_allclose(got, _rsee_loop(p, int(k), k1),
                                   rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        recovery_error_bound_at(p, k1 + 300, k1),
        _rsee_loop(p, k1 + 299, k1), rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["contractive", "expansive", "zero"]),
       n=st.integers(1, 3), max_ticks=st.integers(0, 30),
       s_ticks=st.integers(1, 12), mu=st.sampled_from([1.0, 0.5, 0.25]))
def test_max_duration_matches_brute_force_scan(seed, kind, n, max_ticks,
                                               s_ticks, mu):
    rng = np.random.default_rng(seed)
    p = _random_params(rng, kind, n, mu=mu, tick=1.0,
                       t_search_max=float(max_ticks))
    # E_max around the bounds the scan visits, so every branch occurs
    probe = _rsee_loop(p, s_ticks + max_ticks // 2, 0)
    p = replace(p, E_max=probe * rng.uniform(0.8, 1.3, n))
    T, lo, hi = max_duration_certificate(p, float(s_ticks))
    T_ref, lo_ref, hi_ref = _duration_scan(p, float(s_ticks))
    assert T == T_ref
    np.testing.assert_allclose(lo, lo_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(hi, hi_ref, rtol=1e-12, atol=0)
    # the degenerate warning: E_max exceeded at the smallest duration
    assert (T == 0.0) == bool(np.any(lo_ref > p.E_max))


def test_max_duration_search_memory_is_linear():
    # a list of small arrays per tick costs ~300 B/tick; the cache stores
    # one float row per tick in a doubling array
    p = BoundParams(A_bar=[[0.99, 0.01, 0.0], [0.0, 0.98, 0.0],
                           [0.0, 0.0, 0.5]],
                    eps_delta=[0.1] * 3, eps_omega=[0.01] * 3,
                    E_max=[1e9] * 3, tick=0.01, t_search_max=200.0)
    tracemalloc.start()
    try:
        T, _, _ = max_duration_certificate(p, 3.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T == 200.0
    assert peak < 20_000 * 100


@settings(max_examples=300, deadline=None)
@given(s_us=st.integers(1, 10**7), grid_us=st.integers(1, 2 * 10**6),
       tick_us=st.integers(1, 10**6), detection_us=st.integers(0, 10**6))
def test_checkpoint_closed_form_matches_loop(s_us, grid_us, tick_us,
                                             detection_us):
    mu = US_PER_S / grid_us
    got = checkpoint_time_before_anomaly(s_us / US_PER_S, 0.0, mu,
                                         tick_us / US_PER_S)
    effective = max(to_us(1.0 / mu), tick_us)
    assert to_us(got) == _checkpoint_loop_us(s_us, effective, detection_us)
    assert got == to_s(to_us(got))     # exactly on the microsecond grid


def test_checkpoint_before_anomaly_strictly_before_on_float_grid():
    # 3 * 0.7 rounds below 2.1 in floats; the grid point is the start
    # itself, so the checkpoint is the one before it
    assert checkpoint_time_before_anomaly(2.1, 0.0, 10.0, 0.7) == 1.4


def test_checkpoint_before_anomaly_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        checkpoint_time_before_anomaly(0.0, 0.0, 1.0, 0.1)


def _random_records(rng, n_x, n_u, n_records):
    records = []
    for _ in range(n_records):
        T = int(rng.integers(0, 25))
        mask = rng.random((T, n_x)) < 0.4
        x_rec = np.where(mask.any(axis=1, keepdims=True),
                         rng.normal(size=(T, n_x)), np.nan)
        records.append({"x_true": rng.normal(size=(T, n_x)),
                        "x_hat": rng.normal(size=(T, n_x)),
                        "x_rec": x_rec, "u": rng.normal(size=(T, n_u)),
                        "recovered": mask})
    return records


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_records=st.integers(1, 4),
       case=st.sampled_from([(True, "motor"), (False, "motor"),
                             (False, "pose")]))
def test_calibration_bit_identical_to_per_tick(seed, n_records, case):
    """One model evaluation per record equals one per tick, bit for bit;
    lti=True declares a constant Jacobian, so only the motor takes it, and
    with lti=False the motor sums its rounding remainders."""
    from cpsrecover import robot
    lti, kind = case
    rng = np.random.default_rng(seed)
    if kind == "motor":
        model = robot.dc_motor_model("inner-1", 0.1, robot.RobotParams(),
                                     0.01 * np.eye(2), [[0.01]], **prior(2))
    else:
        model = robot.bicycle_model(0.1, 0.01 * np.eye(3), 0.01 * np.eye(3),
                                    **prior(3))
    n_x, n_u = model.n_x, model.n_u
    records = _random_records(rng, n_x, n_u, n_records)
    records.append({"x_true": np.ones((1, n_x)), "x_hat": np.zeros((1, n_x)),
                    "x_rec": np.full((1, n_x), np.nan),
                    "u": np.ones((1, n_u)),
                    "recovered": np.zeros((1, n_x), bool)})
    got = calibrate_bound_params(model, records, tick=0.1, mu=1.0, lti=lti)
    want = _calibrate_per_tick(model, records, tick=0.1, mu=1.0, lti=lti)
    for name in ("A_bar", "eps_delta", "eps_omega", "phi_bar"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name), err_msg=name)


def test_calibration_reads_integer_masks_as_booleans(case_models):
    _, models = case_models
    rec = {"x_true": np.array([[9.0, 9.0], [1.0, 1.0]]),
           "x_hat": np.zeros((2, 2)), "x_rec": np.zeros((2, 2)),
           "u": np.zeros((2, 1)), "recovered": np.array([[1, 1], [0, 0]])}
    as_int = calibrate_bound_params(models["inner-1"], [rec], tick=0.01,
                                    mu=1.0, lti=True)
    np.testing.assert_array_equal(as_int.eps_delta, [6.0, 6.0])


def _pose_records():
    """Two records of four rows of the pose loop's widths, each healthy on
    every row."""
    return [{"x_true": np.ones((4, 3)), "x_hat": np.zeros((4, 3)),
             "x_rec": np.full((4, 3), np.nan), "u": np.ones((4, 2)),
             "recovered": np.zeros((4, 3), bool)} for _ in range(2)]


@pytest.mark.parametrize("lti", [True, False])
@pytest.mark.parametrize("name, change", [
    *((name, "rows") for name in ("x_hat", "x_rec", "u", "recovered")),
    *((name, "width") for name in ("x_true", "x_hat", "x_rec", "u",
                                   "recovered"))])
def test_calibration_rejects_a_record_of_the_wrong_shape(case_models, name,
                                                         change, lti):
    """Before any model evaluation: a one-row array would broadcast over a
    stack of four rows, and one row short would be an IndexError."""
    _, models = case_models
    records = _pose_records()
    a = records[1][name]
    records[1][name] = (a[:1] if change == "rows"
                        else np.concatenate([a, a[:, :1]], axis=1))
    with pytest.raises(ValueError, match=f"record 1: {name} has shape"):
        calibrate_bound_params(models["outer"], records, tick=0.1, mu=1.0,
                               lti=lti)


@pytest.mark.parametrize("name, col, value", [
    ("x_hat", 2, np.inf), ("x_hat", 0, np.nan), ("u", 0, np.nan),
    ("u", 1, -np.inf), ("x_true", 2, np.inf), ("x_rec", 2, -np.inf)])
def test_calibration_without_lti_rejects_a_non_finite_record(
        case_models, name, col, value):
    """An infinite heading would be a domain error of ``math.cos`` and a
    numpy warning of ``np.cos``; x_rec's NaN marks a row without a
    roll-forward value, so only its infinities are rejected."""
    _, models = case_models
    records = _pose_records()
    records[1]["recovered"][2] = True
    records[1]["x_rec"][2] = 0.0
    records[1][name][2, col] = value
    with pytest.raises(ValueError, match=f"record 1: {name} is not finite"):
        calibrate_bound_params(models["outer"], records, tick=0.1, mu=1.0,
                               lti=False)


def test_calibration_with_lti_accepts_a_stopped_runs_last_input(
        case_models):
    """An unrecoverable stop's row logs no input, so its ``u`` is NaN; a
    constant Jacobian is evaluated at the first row alone."""
    _, models = case_models
    model = models["inner-1"]
    rec = {"x_true": np.ones((3, 2)), "x_hat": np.zeros((3, 2)),
           "x_rec": np.full((3, 2), np.nan), "u": np.zeros((3, 1)),
           "recovered": np.zeros((3, 2), bool)}
    rec["u"][-1] = np.nan
    got = calibrate_bound_params(model, [rec], tick=0.01, mu=1.0, lti=True)
    assert got.A_bar.tobytes() == np.abs(model.jac_A(None, None)).tobytes()


def test_calibration_needs_a_healthy_sample(case_models):
    _, models = case_models
    rec = {"x_true": np.zeros((3, 2)), "x_hat": np.zeros((3, 2)),
           "x_rec": np.zeros((3, 2)), "u": np.zeros((3, 1)),
           "recovered": np.ones((3, 2), bool)}
    with pytest.raises(ValueError, match="healthy"):
        calibrate_bound_params(models["inner-1"], [rec], tick=0.01, mu=1.0,
                               lti=False)


# -- immutability -------------------------------------------------------


def test_bound_params_frozen_and_read_only():
    src = np.array([[0.5]])
    p = scalar_params(A_bar=src)
    with pytest.raises(FrozenInstanceError):
        p.mu = 2.0
    with pytest.raises(FrozenInstanceError):
        p.phi_bar = np.array([0.3])
    for name in ("A_bar", "eps_delta", "eps_omega", "phi_bar", "E_max"):
        with pytest.raises(ValueError):
            getattr(p, name)[0] = 1.0
    # the caller's array stays writable and is not shared
    src[0, 0] = 0.9
    assert p.A_bar[0, 0] == 0.5


def test_returned_bounds_are_fresh_arrays():
    p = scalar_params(A_bar=np.array([[0.5]]))
    first = recovery_error_bound_at(p, 5, 0)
    want = first.copy()
    first += 100.0
    np.testing.assert_array_equal(recovery_error_bound_at(p, 5, 0), want)
    T, lo, hi = max_duration_certificate(scalar_params(E_max=[0.01]), 8.0)
    lo += 1.0
    assert hi[0] < lo[0]


def test_replace_starts_a_fresh_cache():
    p = scalar_params(A_bar=np.array([[0.5]]))
    recovery_error_bound_at(p, 51, 0)          # warm the cache
    q = replace(p, A_bar=np.array([[2.0]]), eps_omega=[0.0])
    assert recovery_error_bound_at(q, 3, 0)[0] == \
        pytest.approx(0.1 * 2.0 ** 3)
    assert recovery_error_bound_at(p, 3, 0)[0] == pytest.approx(
        0.1 * 0.5 ** 3 + 0.05 * (0.5 + 0.25 + 0.125))


def test_an_overflowing_bound_is_inf_never_nan():
    """Once ``|A|^n`` overflows a float, the bound is +inf on the element
    that overflows in every longer chain, and a gap between two such
    bounds is +inf; an element ``|A|`` never couples to it keeps its exact
    value, and no warning is raised (warnings fail a test)."""
    p = BoundParams(A_bar=np.diag([1e200, 1.0]), eps_delta=[1.0, 1.0],
                    eps_omega=[1.0, 1.0], mu=0.2, tick=1.0, E_max=[1e300, 5])
    for n in (2, 3, 4, 40, 5000):
        np.testing.assert_array_equal(recovery_error_bound_at(p, n, 0),
                                      [np.inf, n + 1.0])
    np.testing.assert_array_equal(accuracy_resource_gap_bound(p, 12, 10.0),
                                  [np.inf, 4.0])
    T, lo, hi = max_duration_certificate(p, 10.0)
    assert T == 0.0
    for b in (lo, hi):
        np.testing.assert_array_equal(b, [np.inf, 7.0])
    # coupled to the first element, the second overflows a step later
    q = replace(p, A_bar=[[1e200, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(recovery_error_bound_at(q, 2, 0),
                                  [np.inf, 2e200 + 5.0])
    for n in (3, 4, 40):
        np.testing.assert_array_equal(recovery_error_bound_at(q, n, 0),
                                      [np.inf, np.inf])


# -- cached rows against the per-call references -------------------------


def _bounds_of_kind(rng, kind, n, **kw):
    """Bound parameters whose ``|A_bar|`` contracts, expands, is zero, or
    overflows a float within a few steps on its first element."""
    if kind == "overflowing":
        A = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        A[0, 0] = 1e200
        return BoundParams(A_bar=A, eps_delta=rng.uniform(0, 1, n),
                           eps_omega=rng.uniform(0, 1, n),
                           phi_bar=rng.uniform(0, 1, n), **kw)
    return _random_params(rng, kind, n, **kw)


_KINDS = ["contractive", "expansive", "zero", "overflowing"]
# (which, k offset in ticks, k's fractional part, k1 or the start in ticks)
_QUERIES = st.lists(st.tuples(st.sampled_from(["bound", "gap", "certificate"]),
                              st.integers(-3, 120),
                              st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                              st.integers(0, 30)),
                    min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(_KINDS),
       n=st.integers(1, 3), tick=st.sampled_from([1.0, 0.1, 0.01]),
       mu=st.sampled_from([1.0, 0.5, 0.2, 0.1]),
       max_ticks=st.integers(0, 60), cap=st.integers(2, 60),
       queries=_QUERIES)
def test_cached_bounds_equal_the_per_call_references(seed, kind, n, tick, mu,
                                                     max_ticks, cap, queries):
    rng = np.random.default_rng(seed)
    p = _bounds_of_kind(rng, kind, n, mu=mu, tick=tick,
                        t_search_max=max_ticks * tick)
    # E_max near the bound after `cap` steps, so that a duration search
    # often ends inside its scan
    probe = ReferenceBounds(p).bound(cap, 0)
    p = replace(p, E_max=probe * rng.uniform(0.9, 1.1, n))
    ref = ReferenceBounds(p)
    def certificate(fn):
        return lambda *args: np.hstack(fn(*args))

    for which, offset, frac, anchor in queries:
        if which == "bound":
            k = anchor + offset + frac
            got = outcome(recovery_error_bound_at, p, k, anchor)
            want = outcome(ref.bound, k, anchor)
        else:
            s = (anchor + frac) * tick
            if which == "gap":
                k = round(s / tick) + offset + frac
                got = outcome(accuracy_resource_gap_bound, p, k, s)
                want = outcome(ref.gap, k, s)
            else:
                got = outcome(certificate(max_duration_certificate), p, s)
                want = outcome(certificate(ref.certificate), s)
        assert got == want, (which, offset, frac, anchor)


def test_bound_and_gap_calls_grow_the_cache_logarithmically():
    # 2,000 calls in the order a scan makes them, deeper by one tick each,
    # with a different anomaly start for every gap
    p = scalar_params(A_bar=np.array([[0.999]]), mu=0.2, E_max=None)
    sums = p._sums
    grown = []
    def counting(n, _grow=sums._grow):
        grown.append(n)
        return _grow(n)
    sums._grow = counting
    for k in range(12, 1012):
        recovery_error_bound_at(p, k, 0)
        accuracy_resource_gap_bound(p, k, 1.0 + k / 1013)
    # it grew once per doubling of its capacity, not once per call, and
    # holds one row per chain length
    assert 1 <= len(grown) <= math.log2(1012)
    assert len(sums.rows) < 2 * 1012


def test_episode_remainders_equal_the_per_tick_reference():
    from cpsrecover import robot
    model = robot.bicycle_model(0.1, 0.01 * np.eye(3), 0.01 * np.eye(3),
                                **prior(3))
    rng = np.random.default_rng(8)
    for rec in _random_records(rng, model.n_x, model.n_u, 40):
        args = (model, rec["x_true"], rec["x_rec"], rec["u"],
                rec["recovered"])
        got = _episode_remainders(*args)
        assert got.tobytes() == reference_episode_remainders(*args).tobytes()


# -- rejected inputs ------------------------------------------------------


@pytest.mark.parametrize("name, value", [
    ("A_bar", [[np.nan]]), ("A_bar", [[np.inf]]),
    ("eps_delta", [np.nan]), ("eps_delta", [np.inf]),
    ("eps_omega", [np.inf]), ("phi_bar", [np.nan]),
    ("E_max", [np.nan]),
    ("tick", 0.0), ("tick", np.inf), ("mu", 0.0), ("mu", -1.0),
    ("mu", np.nan), ("t_search_max", np.inf), ("t_search_max", -1.0),
    ("t_search_max", np.nan)])
def test_bound_params_reject_inputs_that_bound_nothing(name, value):
    with pytest.raises(ValueError, match=name):
        scalar_params(**{name: value})


def test_bound_params_accept_an_infinite_error_cap():
    p = scalar_params(E_max=[np.inf], t_search_max=0.0)
    assert max_duration_certificate(p, 8.0)[0] == 1.0


def test_calibration_names_an_element_never_healthy(case_models):
    _, models = case_models
    rec = {"x_true": np.ones((3, 2)), "x_hat": np.zeros((3, 2)),
           "x_rec": np.zeros((3, 2)), "u": np.zeros((3, 1)),
           "recovered": np.tile([True, False], (3, 1))}
    with pytest.raises(ValueError, match=r"healthy.*\[0\]"):
        calibrate_bound_params(models["inner-1"], [rec], tick=0.01, mu=1.0,
                               lti=True)
