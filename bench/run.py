"""cpsrecover benchmark entry point.

    python3 bench/run.py --workload {sweep,long-periodic,bounds} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each set-up sample and the measured run
happen in fresh child processes (``workload.py``), one after another, with
BLAS and OpenMP pools pinned to one thread.  The second-to-last line of
standard output is the full record (machine, digests, samples, failures);
the last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep", "long-periodic", "bounds")
# set-up samples per run, median reported, half of the rest taken before
# the measured run and half after it, so that one slow spell of the host
# does not cover them all; bounds' set-up simulates traces
SETUP_SAMPLES = {"sweep": 9, "long-periodic": 9, "bounds": 3}
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10   # the tail percentile keeps at least this many runs above it


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT_DIR, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run ``workload.py`` with ``args``; returns its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"), *args,
           "--t-spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT_DIR, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise ChildError(f"{' '.join(args)}: exit {proc.returncode}\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """``(value, percentile)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples above it, or ``(None, None)`` if too few."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(child: dict, setups: list) -> dict:
    plain = child["plain"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(plain["unit_s"]), "s"),
        "sim_ticks_per_s": (statistics.median(plain["ticks_per_s"]), "1/s"),
        "run_p50_s": (statistics.median(plain["op_s"]), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def summarize(args: dict, child: dict, setups: list,
              pinned: dict) -> tuple[dict, dict]:
    """The full record and the result line for one run of the command line
    ``args``; ``setups`` holds the set-up samples in the order taken."""
    plain = child["plain"]
    run_tail, pct = tail(plain["op_s"])
    record = {
        **args,
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_host_s_samples": [s["setup_host_s"] for s in setups],
        "host_speed": child.get("host_speed"),
        "units": len(plain["unit_s"]), "unit_s": plain["unit_s"],
        "unit_host_s": plain["unit_host_s"],
        "runs": len(plain["op_s"]),
        "run_tail_s": run_tail, "run_tail_percentile": pct,
        "failed_frac": child["failed"] / max(child["attempted"], 1),
        "failures": child["failures"],
        "digests": child["digests"],
        "digests_match": {k: v == pinned.get(k)
                          for k, v in child["digests"].items()},
        "machine": child["machine"],
    }
    for key in ("ratios", "spans_file", "sampler_heap_mb"):
        if key in child:
            record[key] = child[key]
    if args["workload"] == "bounds":   # every bounds operation is one check
        record["bound_checks_per_s"] = plain["attempted"] / sum(plain["unit_s"])
    if "layers" in child:
        metrics = child["layers"]
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(child, setups).items()}
    result = {"correct": child["correct"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record["metrics"] = metrics
    return record, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cpsrecover benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT_DIR, "src", "cpsrecover",
                                       "__init__.py")):
        print("bench: src/cpsrecover not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    extra = SETUP_SAMPLES[args.workload] - 1

    def setup_samples(n: int) -> list:
        return [spawn(common + ["--setup-only"], deadline) for _ in range(n)]

    try:
        setups = setup_samples(extra // 2)
        child = spawn(common + ["--trace", str(args.trace)], deadline)
        if not args.trace:   # a traced child's set-up runs traced
            setups.append(child)
        setups += setup_samples(extra - extra // 2)
    except ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(BENCH_DIR, "pinned_digests.json")) as fh:
        pinned = json.load(fh)
    record, result = summarize(vars(args), child, setups, pinned)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
