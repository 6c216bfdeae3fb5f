"""Integer-microsecond time base shared by the multi-rate simulation.

All scheduling arithmetic is done on an integer tick grid so that times
compare exactly across loops running at different rates.  Seconds are only
a presentation format: every float second value in the package is derived
as ``microseconds / 1e6`` so equal instants are bit-identical floats.
"""

from __future__ import annotations

import math

US_PER_S = 1_000_000


def to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds (nearest)."""
    return round(seconds * US_PER_S)


def to_s(us: int) -> float:
    """Convert integer microseconds to float seconds."""
    return us / US_PER_S


def base_resolution_us(periods_s) -> int:
    """Greatest common divisor of the loop periods, in microseconds.

    Using the gcd keeps every loop's ticks on one integer grid and avoids
    accumulated float drift between loops of different rates.
    """
    periods = [to_us(p) for p in periods_s]
    if not periods or any(p <= 0 for p in periods):
        raise ValueError("loop periods must be positive")
    return math.gcd(*periods)

