"""Acceptance gate: one test per criterion, tolerances pinned.

Criteria (summarized; numbers match the test names):

 1. roll-forward recovery beats the uncorrected estimator >= 5x on every
    recovered element, pooled over 20 seeds, in < 30 s
 2. calibrated error bounds contain the measured errors across 100 seeds
    with zero violations
 3. the iterative predict chain equals the LTI closed form to 1e-9
 4. incremental roll-forward equals the full re-roll to 1e-9
 5. consistent-checkpoint selection matches a brute-force oracle on 1000
    randomized instances
 6. maximum tolerable duration is bracketed by the bound, scalar hand case
    returns exactly 7 ticks
 7. empirical every-tick-checkpoint gap is within its bound; the bound is
    zero at the every-tick frequency
 8. checkpoint-set consistency classification
 9. the 8-row anomaly scenario matrix runs with the documented action per row
10. byte-identical reruns and a sub-second full run
"""

import dataclasses
import time

import numpy as np
import pytest

from cpsrecover import config as cfgmod
from cpsrecover import robot, sim
from cpsrecover.analysis import (accuracy_resource_gap_bound, BoundParams,
                                 calibrate_bound_params,
                                 max_duration_certificate,
                                 recovery_error_bound_at)
from cpsrecover.anomaly import AdsConfig, AnomalySchedule
from cpsrecover.estimator import EstimatorState
from cpsrecover.framework import (CONSISTENT, FULLY_INCONSISTENT,
                                  PARTLY_INCONSISTENT, SubsystemRuntime,
                                  UnrecoverableError, classify_checkpoint_set,
                                  most_recent_consistent_checkpoint,
                                  roll_forward_recover)
from cpsrecover.store import Checkpoint, SecureStore
from cpsrecover.timebase import to_us
from helpers import full_store, random_lti_model

RECOVERED_ELEMENTS = {"outer": [0, 1], "inner-1": [1], "inner-2": [1]}
SETTLE = 0.25   # post-anomaly settle margin for the healthy-error check, s


def _windows(cfg, sid):
    return [(w["t_start"], w["t_end"]) for w in cfg["anomalies"][sid]]


def _calibration_records(res, sid, windows):
    """Trace arrays in the calibration layout; anomaly-window ticks are
    masked out of the healthy-error statistics."""
    tr = res.traces[sid]
    mask = tr["recovered"].copy()
    for a, b in windows:
        mask[(tr["t"] >= a) & (tr["t"] < b)] = True
    return {"x_true": tr["x_true"], "x_hat": tr["x_rf"],
            "x_rec": tr["x_rec"], "u": tr["u"], "recovered": mask}


@pytest.fixture(scope="module")
def calibrated_bounds():
    """Bound parameters calibrated on seeds disjoint from every test seed."""
    cfg0 = cfgmod.default_config()
    _, models = cfgmod.build_models(cfg0)
    recs = {sid: [] for sid in cfgmod.SUBSYSTEMS}
    for seed in range(1000, 1010):
        res = sim.run_scenario(cfgmod.build_case_study(seed=seed))
        for sid in cfgmod.SUBSYSTEMS:
            recs[sid].append(_calibration_records(res, sid, _windows(cfg0, sid)))
    return {
        sid: calibrate_bound_params(models[sid], recs[sid],
                                    tick=models[sid].dt, mu=1.0,
                                    lti=sid in robot.LINEAR)
        for sid in cfgmod.SUBSYSTEMS}


def test_criterion_01_recovery_beats_uncorrected_estimator():
    t0 = time.perf_counter()
    sums = {}
    for seed in range(20):
        res = sim.run_scenario(cfgmod.build_case_study(seed=seed))
        for sid, elems in RECOVERED_ELEMENTS.items():
            tr = res.traces[sid]
            det = tr["recovered"].any(axis=1)
            assert det.any()
            for j in elems:
                acc = sums.setdefault((sid, j), [0.0, 0.0])
                acc[0] += np.abs(tr["x_hat"][det, j] - tr["x_true"][det, j]).sum()
                acc[1] += np.abs(tr["x_rf"][det, j] - tr["x_true"][det, j]).sum()
    for (sid, j), (raw, rec) in sums.items():
        assert raw / rec >= 5.0, f"{sid} element {j}: ratio {raw / rec:.2f}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_02_bound_containment(calibrated_bounds):
    cfg0 = cfgmod.default_config()
    _, models = cfgmod.build_models(cfg0)
    rsee_checked = ee_checked = 0
    for seed in range(100):
        res = sim.run_scenario(cfgmod.build_case_study(seed=seed))
        for sid in cfgmod.SUBSYSTEMS:
            bp = calibrated_bounds[sid]
            dt = models[sid].dt
            tr = res.traces[sid]
            windows = _windows(cfg0, sid)
            for k in range(len(tr["t"])):
                t = tr["t"][k]
                m = tr["recovered"][k]
                if m.any():
                    if np.isnan(tr["k1"][k]):
                        continue
                    bound = recovery_error_bound_at(
                        bp, round(t / dt), round(tr["k1"][k] / dt))
                    err = np.abs(tr["x_rec"][k] - tr["x_true"][k])
                    assert np.all(err[m] <= bound[m]), \
                        f"seed {seed} {sid} t={t}: RSEE {err[m]} > {bound[m]}"
                    rsee_checked += 1
                else:
                    if any(a <= t < b + SETTLE for a, b in windows):
                        continue
                    err = np.abs(tr["x_rf"][k] - tr["x_true"][k])
                    assert np.all(err <= bp.eps_delta), \
                        f"seed {seed} {sid} t={t}: EE {err} > {bp.eps_delta}"
                    ee_checked += 1
    assert rsee_checked > 1000 and ee_checked > 10000


def test_criterion_03_lti_closed_form_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(50):
        model, A, B = random_lti_model(rng)
        N = int(rng.integers(1, 101))
        x_bar = rng.standard_normal(model.n_x)
        us = rng.standard_normal((N, model.n_u))
        store = SecureStore()
        store.append_checkpoint(model.id, Checkpoint(0.0, x_bar, [0]))
        for k in range(N):
            store.append_control(model.id, float(k), us[k])
        ads = AdsConfig(kind="generic", mode="oracle", detection_time=1.0)
        rt = SubsystemRuntime(model=model, est=EstimatorState.initial(model),
                              controller=lambda x, t: np.zeros(model.n_u),
                              ads=ads, schedule=AnomalySchedule(()),
                              t_max=1e9, ticks=0)     # it never ticks
        out = np.array([1])
        _, x_iter, _, _ = roll_forward_recover(
            rt, store, np.zeros(model.n_x), np.zeros((model.n_x, model.n_y)),
            out, {model.id: 0.5}, float(N), None)
        # closed form: A^N x_bar + sum_{i=1..N} A^{i-1} B u_{N-i}
        x_closed = np.linalg.matrix_power(A, N) @ x_bar
        for i in range(1, N + 1):
            x_closed = x_closed + (np.linalg.matrix_power(A, i - 1)
                                   @ B @ us[N - i])
        # unstable draws reach |x| ~ 1e7, so the 1e-9 pin is relative there
        np.testing.assert_allclose(x_iter, x_closed, rtol=1e-9, atol=1e-9)


def test_criterion_04_incremental_equals_full_reroll():
    cfg = cfgmod.build_case_study(seed=5)
    res = sim.run_scenario(cfg)
    store = full_store(res)
    _, models = cfgmod.build_models(cfg)
    checked = 0
    for sid in cfgmod.SUBSYSTEMS:
        model = models[sid]
        tr = res.traces[sid]
        for k in range(len(tr["t"])):
            if not tr["recovered"][k].any() or np.isnan(tr["k1"][k]):
                continue
            k1 = tr["k1"][k]
            t = tr["t"][k]
            cps, _, controls = store.retrieve(sid, k1, t)
            base = next(c for c in cps if to_us(c.t) == to_us(k1))
            x = base.x_hat.copy()
            for c in controls:
                x = model.f(x, c.u)
            np.testing.assert_allclose(tr["x_rec"][k], x, atol=1e-9)
            checked += 1
    assert checked > 500  # every episode tick of every loop


def test_criterion_05_checkpoint_selection_oracle():
    rng = np.random.default_rng(202)
    tested = 0
    while tested < 1000:
        n_sub = int(rng.integers(1, 5))
        grid = sorted(set(np.round(rng.uniform(0, 50, 15), 2)))
        save_times = {f"s{j}": [t for t in grid if rng.random() > 0.3]
                      for j in range(n_sub)}
        if any(not v for v in save_times.values()):
            continue
        det = {f"s{j}": float(rng.choice([0.0, 0.1, 0.25, 1.0, 5.0]))
               for j in range(n_sub)}
        k = float(np.round(rng.uniform(0, 55), 2))
        # brute-force scan on the exact microsecond grid
        common = set.intersection(*(set(v) for v in save_times.values()))
        margin = to_us(max(det.values()))
        cands = [t for t in common if to_us(k) - to_us(t) > margin]
        expect = max(cands) if cands else None
        if expect is None:
            with pytest.raises(UnrecoverableError):
                most_recent_consistent_checkpoint(save_times, det, k)
        else:
            got = most_recent_consistent_checkpoint(save_times, det, k)
            assert abs(got - expect) < 1e-12
            assert to_us(k) - to_us(got) > margin
        tested += 1


def test_criterion_06_max_duration_bracketing():
    # scalar hand case: 0.1 + 8 * 0.05 = 0.5 at T = 7 ticks
    scalar = BoundParams(A_bar=np.array([[1.0]]), eps_delta=[0.1],
                         eps_omega=[0.05], E_max=[0.5], mu=1.0, tick=1.0)
    T, lo, hi = max_duration_certificate(scalar, 8.0)
    assert T == 7.0
    assert lo[0] == pytest.approx(0.5) and hi[0] > 0.5

    rng = np.random.default_rng(303)
    tested = attempts = 0
    while tested < 100:
        attempts += 1
        assert attempts < 1000
        n = int(rng.integers(1, 5))
        p = BoundParams(A_bar=np.eye(n) + rng.uniform(0, 0.5, (n, n)),
                        eps_delta=rng.uniform(0.01, 0.3, n),
                        eps_omega=rng.uniform(0.05, 0.3, n),
                        E_max=rng.uniform(1.0, 10.0, n),
                        mu=1.0, tick=1.0, t_search_max=500.0)
        s = float(rng.integers(2, 12))
        T, lo, hi = max_duration_certificate(p, s)
        if T == 0.0:
            continue
        assert np.all(lo <= p.E_max + 1e-12)
        assert np.any(hi > p.E_max)
        tested += 1


def test_criterion_07_accuracy_resource_gap(calibrated_bounds):
    cfg = cfgmod.build_case_study(seed=11)
    _, models = cfgmod.build_models(cfg)
    res = sim.run_scenario(cfg)
    shadows = sim.every_tick_shadow(res)
    compared = 0
    for sid in cfgmod.SUBSYSTEMS:
        bp = calibrated_bounds[sid]
        dt = models[sid].dt
        tr = res.traces[sid]
        starts = [a for a, _ in _windows(cfg, sid)]
        for k in range(len(tr["t"])):
            if not tr["recovered"][k].any():
                continue
            t = tr["t"][k]
            s = max(a for a in starts if a <= t)
            gap = np.abs(shadows[sid][k] - tr["x_rec"][k])
            bound = accuracy_resource_gap_bound(bp, round(t / dt), s)
            assert np.all(gap <= bound + 1e-9), \
                f"{sid} t={t}: gap {gap} > bound {bound}"
            compared += 1
    assert compared > 100
    # at the every-tick checkpoint frequency the bound collapses to zero
    for sid in cfgmod.SUBSYSTEMS:
        bp = dataclasses.replace(calibrated_bounds[sid],
                                 mu=1.0 / calibrated_bounds[sid].tick)
        s = 3.25
        k = round(s / bp.tick) + 10
        np.testing.assert_array_equal(
            accuracy_resource_gap_bound(bp, k, s), np.zeros(len(bp.eps_delta)))


def test_criterion_08_consistency_classification(case_result):
    store = case_result.store
    models = {rt.model.id: rt.model for rt in case_result.loops}
    common = set.intersection(
        *(set(store.save_times(sid)) for sid in cfgmod.SUBSYSTEMS))
    assert common  # the coordinator produced shared save instants
    for t in common:
        snapshot = {sid: [t] * models[sid].n_x for sid in cfgmod.SUBSYSTEMS}
        assert classify_checkpoint_set(snapshot) == CONSISTENT
    assert classify_checkpoint_set(
        {"outer": [3.0, 3.0, 3.0], "inner-1": [2.9, 2.9]}) == \
        PARTLY_INCONSISTENT
    assert classify_checkpoint_set(
        {"outer": [3.0, 2.9, 3.0], "inner-1": [3.0, 3.0]}) == \
        FULLY_INCONSISTENT


def _scenario_windows(status, outer):
    """Anomaly windows for one Table-row status of one loop."""
    if status == "dne":
        return []
    t_end = 5.0 if status == "detected" else 3.45  # 0.2 s < detection time
    if outer:
        return [{"t_start": 3.25, "t_end": t_end, "y_a": [5.0, 5.0, 0.0],
                 "gamma": [1, 1, 0]}]
    return [{"t_start": 3.25, "t_end": t_end, "y_a": [20000.0], "gamma": [1]}]


def test_criterion_09_scenario_matrix():
    rows = [("detected", "detected"), ("detected", "dne"),
            ("dne", "detected"), ("not-yet", "dne"), ("dne", "not-yet"),
            ("detected", "not-yet"), ("not-yet", "detected"),
            ("not-yet", "not-yet")]
    for outer_status, inner_status in rows:
        cfg = cfgmod.build_case_study(
            seed=2, horizon=6.0,
            anomalies={"outer": _scenario_windows(outer_status, True),
                       "inner-1": _scenario_windows(inner_status, False),
                       "inner-2": _scenario_windows(inner_status, False)})
        res = sim.run_scenario(cfg)
        row = f"outer={outer_status}, inner={inner_status}"
        assert not res.safe_stop, row
        assert len(res.traces["outer"]["t"]) == 60, row
        for sid, status in (("outer", outer_status),
                            ("inner-1", inner_status),
                            ("inner-2", inner_status)):
            tr = res.traces[sid]
            recovered = tr["recovered"].any()
            if status == "detected":
                assert recovered, row
                ts = tr["t"][tr["recovered"].any(axis=1)]
                assert ts.min() >= 3.5 and ts.max() < 5.0, row
            else:
                assert not recovered, row
            if status == "not-yet":
                # undetected burst: error bounded by the anomaly magnitude
                in_w = (tr["t"] >= 3.25) & (tr["t"] < 3.45)
                err = np.abs(tr["x_rf"][in_w] - tr["x_true"][in_w])
                cap = 6.0 if sid == "outer" else 21000.0
                assert np.isfinite(err).all() and err.max() < cap, row


def test_criterion_10_determinism_and_performance(tmp_path):
    cfg = cfgmod.build_case_study(seed=42)
    t0 = time.perf_counter()
    res_a = sim.run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"full case-study run took {elapsed:.2f}s"
    res_b = sim.run_scenario(cfg)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    sim.emit_csv(res_a, a_dir)
    sim.emit_csv(res_b, b_dir)
    for sid in cfgmod.SUBSYSTEMS:
        assert (a_dir / f"{sid}.csv").read_bytes() == \
            (b_dir / f"{sid}.csv").read_bytes(), sid
