"""Host-speed sampling, so that times from a shared host compare.

On a machine shared with other tenants the same work can take twice as
long from one minute to the next; the slowdown is host-wide and lasts
seconds.  A :class:`Pace` runs a fixed reference kernel, which does not
use ``cpsrecover``, from a ``SIGALRM`` handler every ``PERIOD_S`` seconds
of real time, on the main thread (no extra threads).  The kernel's
duration gives the host's speed at that moment, ``REF_S / duration``.

``Pace.span(t0, t1)`` turns a measured interval into *reference seconds*,
about the time it would have taken at speed 1.0: each stretch between two
samples, minus the sampler's own time in it, weighted by the local speed.
"""

from __future__ import annotations

import bisect
import resource
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
SMOOTH = 2   # local speed: median of the 2 * SMOOTH + 1 nearest samples
HEAP_OBJECTS = 40_000   # about 20 MB
# at speed 1.0 the kernel takes REF_S.  Run from the handler, between
# slices of the simulator, it took about 2 ms on the 2-core Xeon host this
# was written on, so reference seconds read close to that host's seconds.
REF_S = 2e-3


def _rss_mb() -> float:
    """Resident set size now, in MB (``ru_maxrss``'s unit, KiB / 1024)."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 1024 ** 2


def _heap() -> list:
    return [{"a": float(i), "b": np.array([i, i + 1.0]), "c": [i] * 8}
            for i in range(HEAP_OBJECTS)]


def kernel(heap: list, call: int) -> float:
    """Interpreter and small-array work over a heap far larger than the
    caches, as the simulator's object traffic is.  Of the kernels tried,
    this one slowed down most nearly in step with the simulator.  Each
    call visits other objects, so back-to-back calls find them as cold as
    calls between slices of the simulator do."""
    acc = 0.0
    for j in range(0, 3000, 7):
        o = heap[(j * 7919 + call * 104729) % HEAP_OBJECTS]
        v = o["b"] * 0.5 + 1.0
        acc += float(v[0]) + o["a"] * 1e-3 + o["c"][3]
    return acc


class Pace:
    def __init__(self):
        t0 = time.perf_counter()
        rss = _rss_mb()
        self._heap = _heap()
        self.heap_mb = _rss_mb() - rss   # subtracted from peak RSS
        kernel(self._heap, -1)   # the first call pays one-off costs
        self.at: list[float] = []     # sample end times (perf_counter)
        self.speed: list[float] = []
        self.spent: list[float] = []  # cumulative own time at each sample
        self._spent = time.perf_counter() - t0   # the heap and first call
        self._old = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel(self._heap, len(self.at))
        t1 = time.perf_counter()
        self._spent += time.perf_counter() - t0
        self.at.append(t1)
        self.speed.append(REF_S / (t1 - t0))
        self.spent.append(self._spent)

    def sample(self, n: int = 1) -> None:
        """Take ``n`` samples now, outside the timer."""
        for _ in range(n):
            self._sample(None, None)

    def start(self) -> "Pace":
        self.sample(5)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def _speed_near(self, i: int) -> float:
        """Median of the samples around sample ``i``; one sample alone is
        noisy (an interrupt can land inside it)."""
        i = min(i, len(self.speed) - 1)
        return statistics.median(self.speed[max(i - SMOOTH, 0):i + SMOOTH + 1])

    def span(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval ``[t0, t1]`` (perf_counter)."""
        at, spent = self.at, self.spent
        i = bisect.bisect_right(at, t0)
        total, a = 0.0, t0
        while a < t1:   # piece i ends at sample i, whose handler ran in it
            b = min(at[i], t1) if i < len(at) else t1
            own = 0.0
            if i < len(at) and at[i] <= t1:
                own = spent[i] - (spent[i - 1] if i else 0.0)
            total += (b - a - own) * self._speed_near(i)
            a, i = b, i + 1
        return total
