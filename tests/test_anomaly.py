import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpsrecover.anomaly import (AdsConfig, AnomalySchedule, AnomalyWindow,
                                ads_evaluate, inject_anomaly, oracle_flags)
from cpsrecover.timebase import to_us


def outer_schedule():
    return AnomalySchedule((
        AnomalyWindow(3.25, 5.0, [5.0, 5.0, 0.0], [1, 1, 0]),
        AnomalyWindow(8.25, 10.0, [-5.0, -5.0, 0.0], [1, 1, 0]),
    ))


def inner_schedule():
    return AnomalySchedule((
        AnomalyWindow(3.25, 5.0, [20000.0], [1]),
        AnomalyWindow(8.25, 10.0, [-20000.0], [1]),
    ))


def test_injection_inside_window():
    y = np.array([1.0, 2.0, 3.0])
    out = inject_anomaly(y, outer_schedule(), 4.0)
    np.testing.assert_array_equal(out, [6.0, 7.0, 3.0])


def test_injection_boundaries_half_open():
    y = np.array([1.0, 2.0, 3.0])
    assert inject_anomaly(y, outer_schedule(), 5.0) is y  # end excluded
    np.testing.assert_array_equal(inject_anomaly(y, outer_schedule(), 3.25),
                                  [6.0, 7.0, 3.0])       # start included


def test_injection_inner_negative_burst():
    out = inject_anomaly(np.array([40.0]), inner_schedule(), 9.0)
    np.testing.assert_array_equal(out, [-19960.0])


def test_identity_outside_windows_bit_exact():
    y = np.array([0.1, -0.2, 0.3])
    for t in (0.0, 3.24, 5.0, 8.24, 10.0):
        assert inject_anomaly(y, outer_schedule(), t) is y


def test_oracle_flags_delay():
    cfg = AdsConfig(kind="specific", mode="oracle", detection_time=0.25)
    out = oracle_flags(cfg, outer_schedule(), to_us(3.6), n_y=3)
    np.testing.assert_array_equal(out, [1, 1, 0])
    out = oracle_flags(cfg, outer_schedule(), to_us(3.3), n_y=3)
    np.testing.assert_array_equal(out, [0, 0, 0])


def test_oracle_flag_latch_interval():
    cfg = AdsConfig(kind="specific", mode="oracle", detection_time=0.25)
    sched = outer_schedule()
    grid = np.round(np.arange(0, 10, 0.1), 10)
    for t in grid:
        flags = oracle_flags(cfg, sched, to_us(float(t)), n_y=3)
        expect = 1 if (3.5 <= t < 5.0 or 8.5 <= t < 10.0) else 0
        assert flags[0] == expect and flags[1] == expect and flags[2] == 0


def test_oracle_no_false_positives_and_gamma_subset():
    cfg = AdsConfig(kind="specific", mode="oracle", detection_time=0.25)
    sched = outer_schedule()
    windows = sched.windows
    for t in np.round(np.arange(0, 10, 0.05), 10):
        flags = oracle_flags(cfg, sched, to_us(float(t)), n_y=3)
        inside = any(w.t_start + 0.25 <= t < w.t_end for w in windows)
        if not inside:
            assert not flags.any()
        if flags.any():
            w = next(w for w in windows
                     if w.t_start + 0.25 <= t < w.t_end)
            assert np.all(flags <= w.gamma)


def test_short_window_never_flags():
    # a window shorter than the detection time ends before detection fires
    sched = AnomalySchedule((AnomalyWindow(3.25, 3.45, [5.0], [1]),))
    cfg = AdsConfig(kind="specific", mode="oracle", detection_time=0.25)
    for t in np.round(np.arange(0, 5, 0.01), 10):
        assert not oracle_flags(cfg, sched, to_us(float(t)), n_y=1).any()


def test_generic_collapses_to_boolean():
    # one 0/1 flag for the whole loop, whichever sensors are flagged
    cfg = AdsConfig(kind="generic", mode="oracle", detection_time=0.25)
    for t, want in ((4.0, 1), (3.3, 0), (6.0, 0)):
        out = oracle_flags(cfg, outer_schedule(), to_us(t), n_y=3)
        assert out.shape == (1,) and out.dtype.kind == "i"
        assert out[0] == want
    res = AdsConfig(kind="generic", mode="residual-threshold", threshold=1.0)
    loud = [np.array([0.1, 5.0])] * 2
    np.testing.assert_array_equal(
        ads_evaluate(res, loud, n_y=2), [1])
    np.testing.assert_array_equal(ads_evaluate(res, [], n_y=2), [0])


def test_residual_threshold_mode():
    cfg = AdsConfig(kind="specific", mode="residual-threshold",
                    detection_time=0.0, threshold=1.0)
    quiet = [np.array([0.1, 0.2])] * 3
    loud = [np.array([5.0, 0.2])] * 3
    np.testing.assert_array_equal(ads_evaluate(cfg, quiet, n_y=2), [0, 0])
    np.testing.assert_array_equal(ads_evaluate(cfg, loud, n_y=2), [1, 0])


def test_window_validation():
    with pytest.raises(ValueError):
        AnomalyWindow(2.0, 1.0, [1.0], [1])
    with pytest.raises(ValueError):
        AnomalyWindow(1.0, 2.0, [1.0], [2])  # gamma must be 0/1
    with pytest.raises(ValueError):
        AnomalySchedule((AnomalyWindow(0.0, 2.0, [1.0], [1]),
                         AnomalyWindow(1.0, 3.0, [1.0], [1])))


# windows as (gap before, length) in 10 ms ticks; a zero gap makes the
# window touch the previous one
_windows = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 30),
              st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(spec=_windows, detection_ticks=st.integers(0, 12),
       probe_ticks=st.lists(st.integers(-2, 500), min_size=1, max_size=40))
def test_bisect_lookup_matches_linear_scan(spec, detection_ticks, probe_ticks):
    windows, end = [], 0
    for gap, length, gamma in spec:
        start = end + gap
        end = start + length
        windows.append(AnomalyWindow(start / 100, end / 100,
                                     [1.0, 2.0, 3.0], gamma))
    sched = AnomalySchedule(tuple(reversed(windows)))
    detection_time = detection_ticks / 100
    for tick in probe_ticks:
        t = tick / 100
        t_us = to_us(t)
        want = next((w for w in windows if w.start_us <= t_us < w.end_us),
                    None)
        assert sched.active_window(t) is want
        flags = np.zeros(3, dtype=int)
        for w in windows:
            if w.start_us + to_us(detection_time) <= t_us < w.end_us:
                flags |= w.gamma.astype(int)
        out = oracle_flags(AdsConfig(detection_time=detection_time), sched,
                           t_us, n_y=3)
        np.testing.assert_array_equal(out, flags)
