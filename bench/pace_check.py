"""Checks that reference seconds follow a change to the program.

    python3 bench/pace_check.py [--seconds 24] [--seed 7]

Reference seconds (``pace.py``) weight host time by the speed of a kernel
that runs in the measured process.  If a change to the program also slowed
the kernel -- by its memory footprint, say -- reference seconds would hide
part of that change.  This script injects a known cost into one layer and
compares how far it moves host seconds and reference seconds.

Each variant runs in a fresh child process, like a benchmark run.  The
child runs ``sweep`` units of 2 seeds and turns the injected cost on in
every other unit, in the order off-on, on-off, off-on, ... so that a slow
spell of the host falls on both sides alike.  Adjacent units form a pair.
The variants are:

* ``cpu`` -- fixed interpreter work in every ``models.sample_noise`` call;
* ``memory`` -- every ``models.sample_noise`` call also reads 16 objects
  at random from a 64 MB ballast of small objects, so the program's
  working set grows far past the caches.

For each variant the script prints the median over pairs of the on/off
time ratio in host and in reference seconds, and ``tracked``, the ratio of
the two increases: 1.0 means reference seconds show all of the injected
cost.  It also prints the kernel's median speed in on units over off
units; below 1.0 the injected cost slowed the kernel too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
VARIANTS = ("cpu", "memory")
BALLAST_OBJECTS = 200_000   # about 64 MB
TOUCHES = 16                # ballast objects read per injected call
BUSY = 400                  # loop turns of the cpu variant per call


def injected(i: int) -> bool:
    """Whether unit ``i`` runs with the cost on: off-on, on-off, ..."""
    return bool(i % 2) != bool((i // 2) % 2)


def child(variant: str, seconds: float, seed: int) -> dict:
    import pace
    import workload
    from cpsrecover import models
    from tracing import holders

    on = [False]
    ballast = ([{"a": float(i), "c": [i] * 8} for i in range(BALLAST_OBJECTS)]
               if variant == "memory" else [])
    pick = random.Random(seed).randrange
    orig = models.sample_noise

    def sample_noise(*args, **kwargs):
        if on[0]:
            if ballast:
                for _ in range(TOUCHES):
                    o = ballast[pick(BALLAST_OBJECTS)]
                    o["a"] += o["c"][3]
            else:
                acc = 0
                for j in range(BUSY):
                    acc += j
        return orig(*args, **kwargs)

    for holder in holders(models, "sample_noise"):
        setattr(holder, "sample_noise", sample_noise)
    clock = pace.Pace().start()
    units = []
    try:
        wl = workload.Sweep(os.devnull, seed, block=2)
        t_end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < t_end or i % 2:
            on[0] = injected(i)
            t0 = time.perf_counter()
            unit, out = wl.unit(i)
            t1 = time.perf_counter()
            wl.check(unit, out)
            units.append((on[0], t0, t1))
            i += 1
    finally:
        clock.stop()
    if wl.failed:
        raise SystemExit(f"sweep failed: {wl.failures}")
    host, ref, speed = [], [], {True: [], False: []}
    for (a_on, a0, a1), (b_on, b0, b1) in zip(units[::2], units[1::2]):
        (on0, on1), (off0, off1) = ((a0, a1), (b0, b1)) if a_on else \
            ((b0, b1), (a0, a1))
        host.append((on1 - on0) / (off1 - off0))
        ref.append(clock.span(on0, on1) / clock.span(off0, off1))
    for is_on, t0, t1 in units:
        speed[is_on] += [s for t, s in zip(clock.at, clock.speed)
                         if t0 < t <= t1]
    host_ratio, ref_ratio = statistics.median(host), statistics.median(ref)
    return {"variant": variant, "pairs": len(host),
            "host_ratio": host_ratio, "ref_ratio": ref_ratio,
            "tracked": (ref_ratio - 1) / (host_ratio - 1),
            "kernel_speed_on_over_off": (statistics.median(speed[True])
                                         / statistics.median(speed[False]))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="reference-seconds check")
    p.add_argument("--seconds", type=float, default=24.0,
                   help="time each child measures")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--child", choices=VARIANTS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.seconds, args.seed)))
        return 0
    import run
    for variant in VARIANTS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", variant,
             "--seconds", str(args.seconds), "--seed", str(args.seed)],
            cwd=run.ROOT_DIR, env=run.child_env(), capture_output=True,
            text=True, timeout=args.seconds + 120)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        print(proc.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
