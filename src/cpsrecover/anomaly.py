"""Sensor anomaly injection and the anomaly-detection abstraction.

Anomalies are additive: inside a scheduled window the measurement becomes
``y + Gamma @ y_a`` where ``Gamma`` is a diagonal 0/1 sensor-selection
matrix.  An :class:`AnomalySchedule` computes each window's offset
``Gamma @ y_a`` once, in ``offsets``, which :func:`inject_anomaly` and the
scheduler (:func:`cpsrecover.sim.run_loops`) add.  A detector returns an
integer flag array.  It comes in two kinds ("specific" flags each sensor,
"generic" gives one flag for the loop) and two modes:

* ``oracle`` - flags follow the ground-truth schedule delayed by the
  configured detection time; a window's flag latches from
  ``t_start + detection_time`` until ``t_end``.  A window that ends before
  its detection completes is never flagged.  :func:`oracle_flags` gives
  them for an array of tick times at once, so a run resolves them once.
* ``residual-threshold`` - :func:`ads_evaluate` flags sensors whose
  windowed mean absolute innovation exceeds a threshold, one tick at a
  time.  This detector can miss anomalies and is excluded from the
  bound-related guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timebase import to_us


@dataclass(frozen=True)
class AnomalyWindow:
    """One additive anomaly burst: ``[t_start, t_end)`` in seconds."""

    t_start: float
    t_end: float
    y_a: np.ndarray
    gamma: np.ndarray  # diagonal of the sensor-selection matrix, 0/1

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise ValueError("anomaly window must satisfy t_start < t_end")
        g = np.asarray(self.gamma, float)
        if not np.all((g == 0) | (g == 1)):
            raise ValueError("gamma diagonal entries must be 0 or 1")
        object.__setattr__(self, "y_a", np.asarray(self.y_a, float))
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class AnomalySchedule:
    """Non-overlapping anomaly windows for one sub-system.

    Windows are kept sorted with their start and end times in integer
    microseconds, so :meth:`window_index` is a bisection.  ``offsets``
    holds each sorted window's measurement offset ``gamma * y_a``, the
    one a measurement inside it gets.
    """

    windows: tuple = ()

    def __post_init__(self):
        ws = tuple(sorted(self.windows, key=lambda w: w.t_start))
        for a, b in zip(ws, ws[1:]):
            if a.t_end > b.t_start:
                raise ValueError("anomaly windows must not overlap")
        object.__setattr__(self, "windows", ws)
        object.__setattr__(self, "offsets",
                           tuple(w.gamma * w.y_a for w in ws))
        object.__setattr__(self, "_starts_us",
                           np.array([to_us(w.t_start) for w in ws], np.int64))
        # one end more, below every time, and a gamma row of zeros: the ones
        # index -1 reads; no gamma table without windows, which flag nothing
        object.__setattr__(self, "_ends_us", np.array(
            [*(to_us(w.t_end) for w in ws), np.iinfo(np.int64).min], np.int64))
        object.__setattr__(self, "_gammas", np.array(
            [*(w.gamma for w in ws), np.zeros_like(ws[0].gamma)], int)
            if ws else None)

    def window_index(self, t_us, delay_us: int):
        """Index of the window with ``t_start + delay_us <= t < t_end``, in
        integer µs, for each (integer µs) time of ``t_us``, or -1: windows
        never overlap."""
        i = np.searchsorted(self._starts_us, t_us - delay_us, side="right") - 1
        return np.where(t_us < self._ends_us[i], i, -1)


DETECTOR_KINDS = ("specific", "generic")
DETECTOR_MODES = ("oracle", "residual-threshold")


@dataclass
class AdsConfig:
    kind: str = "specific"           # "specific" | "generic"
    mode: str = "oracle"             # "oracle" | "residual-threshold"
    detection_time: float = 0.0      # seconds, multiple of the loop period
    threshold: float = 0.0           # residual-threshold mode only

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if self.mode not in DETECTOR_MODES:
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.detection_time < 0:
            raise ValueError("detection_time must be >= 0")


def inject_anomaly(y_healthy, schedule: AnomalySchedule, t: float) -> np.ndarray:
    """Corrupt a measurement if ``t`` falls inside an anomaly window.

    Inside one it gets the window's ``schedule.offsets`` entry; outside
    every window the input array is returned unchanged (bit-exact).
    """
    i = schedule.window_index(to_us(t), 0)
    if i < 0:
        return y_healthy
    return np.asarray(y_healthy, float) + schedule.offsets[i]


def _by_kind(kind: str, flags: np.ndarray) -> np.ndarray:
    """Per-sensor flags (last axis) as a ``kind`` detector gives them."""
    return (flags.any(axis=-1, keepdims=True).astype(int)
            if kind == "generic" else flags)


def oracle_flags(config: AdsConfig, schedule: AnomalySchedule, t_us,
                 n_y: int) -> np.ndarray:
    """The oracle's 0/1 integer flags, a row per (integer µs) time of
    ``t_us``: the active window's ``gamma`` from its start + detection
    time."""
    i = schedule.window_index(t_us, to_us(config.detection_time))
    return _by_kind(config.kind, np.zeros((*np.shape(i), n_y), int)
                    if schedule._gammas is None else schedule._gammas[i])


def ads_evaluate(config: AdsConfig,
                 window: Sequence[np.ndarray]) -> np.ndarray:
    """Run the residual-threshold detector; returns its 0/1 integer flags.

    A specific detector returns one flag per sensor, a generic one a single
    flag for the whole loop.  ``window`` holds the most recent innovation
    vectors, at least one and at most ``max(1, round(detection_time /
    dt))`` of them: a tick appends its innovation before it evaluates.
    """
    mean_abs = np.mean(np.abs(np.asarray(window, float)), axis=0)
    return _by_kind(config.kind, (mean_abs > config.threshold).astype(int))
