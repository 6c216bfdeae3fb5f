"""One benchmark workload in a fresh process: set up, time, check.

``run.py`` starts this file as a child process once per set-up sample and
once for the measured run, so that imports, set-up time and peak memory
belong to one workload.  The child prints one JSON object as its last line.

Workloads (see README.md for why each exists):

* ``sweep``         -- Monte Carlo sweep of the default 10 s case study over
                       consecutive seeds, in memory, no CSVs, no bounds.
* ``long-periodic`` -- the fixed 160 s case with a 1.75 s burst every 5 s on
                       every loop, through ``cli.main(["run", ...])``.
* ``bounds``        -- calibration, containment checks, gap bounds and
                       duration certificates over pre-simulated traces.

Only calls into ``cpsrecover`` are timed; each unit's outputs are checked
after its clock stops.  Times are converted to reference seconds by a
``pace.Pace`` sampler, which cancels the host-wide slowdowns of a shared
machine; host times are kept beside them in the record.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from cpsrecover import analysis, cli, config, sim
from cpsrecover.timebase import to_us

import layers
import pace
from run import ROOT_DIR, THREAD_VARS
from tracing import ROOT, SETUP_RUN, Tracer

SWEEP_BLOCK = 5               # seeds per sweep unit
SWEEP_SEED_STRIDE = 1000      # sweep seeds: seed * stride + i
RECOVERED_ELEMENTS = {"outer": [0, 1], "inner-1": [1], "inner-2": [1]}
MIN_RATIO = 5.0               # criterion 01: recovered error 5x smaller
LONG_HORIZON = 160.0
LONG_SEED = 1                 # the fixed long case; its digests are pinned
BURST_PERIOD, BURST_LEN, BURST_FIRST = 5.0, 1.75, 3.25
CAL_SEEDS = 10                # as criterion 02 calibrates
HELD_OUT_SEEDS = 3
BOUNDS_SEED_BASE = 10_000     # calibration and held-out seeds never overlap
TARGET_T = 2.0                # duration-certificate target, seconds
SETTLE = 0.25                 # post-window margin skipped by the EE check
MAX_FAILURES_KEPT = 5
MIN_UNITS = 2                 # a median of one unit is too noisy
SETUP_SAMPLES_AT_END = 5      # host-speed samples closing the set-up span


class Unit:
    """One timed unit: its operations' ``(start, end)`` perf_counter stamps
    and the loop ticks its checked outputs hold."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self.ticks = 0


class Workload:
    """Common bookkeeping; subclasses implement ``unit`` and ``check``."""

    name = ""

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(what)

    def timed(self, unit: Unit, fn, *args):
        """``attempt(fn, *args)``, recorded as one operation of ``unit``."""
        t = time.perf_counter()
        out = attempt(fn, *args)
        unit.ops.append((t, time.perf_counter()))
        return out

    def verdict(self) -> bool:
        """Checks over the whole run, beyond the per-operation ones."""
        return True

    def extra(self) -> dict:
        """Workload-specific entries for the full record."""
        return {}


def attempt(fn, *args):
    """``fn(*args)``; an exception is returned, not raised, so that the
    caller counts it as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed operation
        return exc


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- sweep -----------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"

    def __init__(self, work_dir: str, seed: int, block: int = SWEEP_BLOCK):
        super().__init__(work_dir, seed)
        self.base_seed = seed * SWEEP_SEED_STRIDE
        self.block = block
        self.cfg = config.default_config()
        config.validate_config(self.cfg)
        config.build_models(self.cfg)
        self.windows = {sid: [(w["t_start"], w["t_end"]) for w in ws]
                        for sid, ws in self.cfg["anomalies"].items()}
        self.sums = {(sid, j): [0.0, 0.0]
                     for sid, js in RECOVERED_ELEMENTS.items() for j in js}

    def unit(self, i: int):
        unit, results = Unit(), []
        for s in range(self.base_seed + i * self.block,
                       self.base_seed + (i + 1) * self.block):
            results.append(
                (s, self.timed(unit, sim.run_scenario, dict(self.cfg, seed=s))))
        return unit, results

    def check(self, unit: Unit, results) -> None:
        for s, res in results:
            self.attempted += 1
            if isinstance(res, Exception):
                self.fail(f"seed {s}: {_failure(res)}")
                continue
            unit.ticks += sum(len(tr["t"]) for tr in res.traces.values())
            problem = None
            if res.safe_stop or res.events:
                problem = f"events {res.events}"
            for sid, tr in res.traces.items():
                rec = tr["recovered"].any(axis=1)
                for a, b in self.windows[sid]:
                    if not rec[(tr["t"] >= a) & (tr["t"] < b)].any():
                        problem = problem or f"{sid} no recovery in [{a}, {b})"
            if problem:
                self.fail(f"seed {s}: {problem}")
                continue
            for (sid, j), acc in self.sums.items():
                tr = res.traces[sid]
                det = tr["recovered"].any(axis=1)
                acc[0] += np.abs(tr["x_hat"][det, j] - tr["x_true"][det, j]).sum()
                acc[1] += np.abs(tr["x_rf"][det, j] - tr["x_true"][det, j]).sum()

    def ratios(self) -> dict:
        """Pooled uncorrected / recovered absolute error per element."""
        return {f"{sid}[{j}]": (raw / rec if rec > 0 else 0.0)
                for (sid, j), (raw, rec) in self.sums.items()}

    def verdict(self) -> bool:
        return all(r >= MIN_RATIO for r in self.ratios().values())

    def extra(self) -> dict:
        return {"ratios": self.ratios()}


# -- long-periodic ----------------------------------------------------------

def long_periodic_config(horizon: float = LONG_HORIZON) -> dict:
    """The default case study stretched to ``horizon`` with a burst every
    ``BURST_PERIOD`` seconds on all three loops; bursts alternate between
    the default's first and second window magnitudes."""
    cfg = config.default_config()
    cfg["seed"] = LONG_SEED
    cfg["horizon"] = horizon
    n = int((horizon - BURST_FIRST - BURST_LEN) // BURST_PERIOD) + 1
    for sid, (first, second) in cfg["anomalies"].items():
        cfg["anomalies"][sid] = [
            dict(first if i % 2 == 0 else second,
                 t_start=BURST_FIRST + BURST_PERIOD * i,
                 t_end=BURST_FIRST + BURST_PERIOD * i + BURST_LEN)
            for i in range(n)]
    return cfg


class LongPeriodic(Workload):
    name = "long-periodic"

    def __init__(self, work_dir: str, seed: int, horizon: float = LONG_HORIZON):
        super().__init__(work_dir, seed)   # the case is fixed: LONG_SEED
        self.cfg = long_periodic_config(horizon)
        config.validate_config(self.cfg)
        _, self.models = config.build_models(self.cfg)
        self.cfg_path = os.path.join(work_dir, "long-periodic.json")
        config.save_config(self.cfg, self.cfg_path)
        self.out_dir = os.path.join(work_dir, "long-periodic")

    def _run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", self.cfg_path, "--out-dir", self.out_dir])

    def unit(self, i: int):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        unit = Unit()
        return unit, self.timed(unit, self._run)

    def check(self, unit: Unit, rc) -> None:
        self.attempted += 1
        if isinstance(rc, Exception) or rc != 0:
            self.fail(f"cli.main returned {rc!r}")
            return
        horizon_us = to_us(self.cfg["horizon"])
        for sid, model in self.models.items():
            path = os.path.join(self.out_dir, f"{sid}.csv")
            self.digests[f"{sid}.csv"] = _sha256(path)
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            dt_us = to_us(model.dt)
            if len(rows) != horizon_us // dt_us:
                self.fail(f"{sid}: {len(rows)} rows, want {horizon_us // dt_us}")
                return
            mask_cols = [c for c in rows[0] if c.startswith("recovered_mask_")]
            got = [any(r[c] == "1" for c in mask_cols) for r in rows]
            want = [False] * len(rows)
            delay_us = to_us(self.cfg["ads"][sid]["detection_time"])
            for w in self.cfg["anomalies"][sid]:
                lo = -(-(to_us(w["t_start"]) + delay_us) // dt_us)
                hi = -(-to_us(w["t_end"]) // dt_us)
                want[lo:hi] = [True] * (hi - lo)
            if got != want:
                k = next(k for k in range(len(got)) if got[k] != want[k])
                self.fail(f"{sid}: recovered={got[k]} at t={rows[k]['t']}")
                return
            unit.ticks += len(rows)


# -- bounds -----------------------------------------------------------------

def _calibration_record(res, sid: str, windows) -> dict:
    """Trace arrays in the calibration layout, anomaly windows masked out
    of the healthy-error statistics (as criterion 02 does)."""
    tr = res.traces[sid]
    mask = tr["recovered"].copy()
    for a, b in windows:
        mask[(tr["t"] >= a) & (tr["t"] < b)] = True
    return {"x_true": tr["x_true"], "x_hat": tr["x_rf"], "x_rec": tr["x_rec"],
            "u": tr["u"], "recovered": mask}


class Bounds(Workload):
    name = "bounds"

    def __init__(self, work_dir: str, seed: int, cal_seeds: int = CAL_SEEDS,
                 held_out_seeds: int = HELD_OUT_SEEDS):
        super().__init__(work_dir, seed)
        base = BOUNDS_SEED_BASE + 100 * seed
        self.cfg = config.default_config()
        config.validate_config(self.cfg)
        _, self.models = config.build_models(self.cfg)
        self.windows = {sid: [(w["t_start"], w["t_end"]) for w in ws]
                        for sid, ws in self.cfg["anomalies"].items()}
        self.cal = {sid: [] for sid in self.models}
        for s in range(base, base + cal_seeds):
            res = sim.run_scenario(dict(self.cfg, seed=s))
            for sid in self.models:
                self.cal[sid].append(
                    _calibration_record(res, sid, self.windows[sid]))
        self.held_out = [sim.run_scenario(dict(self.cfg, seed=s)).traces
                         for s in range(base + 50, base + 50 + held_out_seeds)]
        self.checks = 0

    def _calibrate(self) -> dict:
        return {sid: analysis.calibrate_bound_params(
                    m, self.cal[sid], tick=m.dt, mu=1.0, lti=(sid != "outer"))
                for sid, m in self.models.items()}

    def _contain(self, bps: dict, traces: dict) -> list:
        """Criterion 02's containment check on every tick of one held-out
        run, plus the gap bound on each recovered tick.  Returns failures."""
        bad = []
        for sid, tr in traces.items():
            bp, dt = bps[sid], self.models[sid].dt
            for k in range(len(tr["t"])):
                t, m = tr["t"][k], tr["recovered"][k]
                if m.any():
                    if np.isnan(tr["k1"][k]):
                        continue
                    k_t = round(t / dt)
                    bound = analysis.recovery_error_bound_at(
                        bp, k_t, round(tr["k1"][k] / dt))
                    err = np.abs(tr["x_rec"][k] - tr["x_true"][k])
                    self.checks += 1
                    if not np.all(err[m] <= bound[m]):
                        bad.append(f"{sid} t={t}: RSEE {err[m]} > {bound[m]}")
                    s = max(a for a, _ in self.windows[sid] if a <= t)
                    gap = analysis.accuracy_resource_gap_bound(bp, k_t, s)
                    self.checks += 1
                    if not np.all(np.isfinite(gap) & (gap >= 0)):
                        bad.append(f"{sid} t={t}: gap bound {gap}")
                elif not any(a <= t < b + SETTLE for a, b in self.windows[sid]):
                    err = np.abs(tr["x_rf"][k] - tr["x_true"][k])
                    self.checks += 1
                    if not np.all(err <= bp.eps_delta):
                        bad.append(f"{sid} t={t}: EE {err} > {bp.eps_delta}")
        return bad

    def _certify(self, bps: dict) -> list:
        """``max_duration_certificate`` with ``E_max`` set to the bound at
        ``TARGET_T`` must return exactly that duration."""
        bad = []
        for sid, bp in bps.items():
            s = self.windows[sid][0][0]
            k1 = analysis.checkpoint_time_before_anomaly(
                s, bp.delta_s, bp.mu, bp.tick)
            n = round(TARGET_T / bp.tick)
            e_max = analysis.recovery_error_bound_at(
                bp, round(s / bp.tick) + n, round(k1 / bp.tick))
            t_max, lo, hi = analysis.max_duration_certificate(
                dataclasses.replace(bp, E_max=e_max), s)
            self.checks += 1
            if not (round(t_max / bp.tick) == n and np.all(lo <= e_max)
                    and np.any(hi > e_max)):
                bad.append(f"{sid}: certificate {t_max} s, want {TARGET_T} s")
        return bad

    def _pass(self) -> list:
        bps = self._calibrate()
        bad = []
        for traces in self.held_out:
            bad += self._contain(bps, traces)
        return bad + self._certify(bps)

    def unit(self, i: int):
        """One pass shaped like criterion 02 -- calibrate once, check every
        held-out tick -- then certify each loop.  The pass is also the
        unit's one "run"."""
        unit = Unit()
        bad = self.timed(unit, self._pass)
        unit.ticks = sum(len(tr["t"]) for traces in self.held_out
                         for tr in traces.values())
        return unit, bad

    def check(self, unit: Unit, bad) -> None:
        checks, self.checks = self.checks, 0
        self.attempted += max(checks, 1)
        if isinstance(bad, Exception):
            self.fail(_failure(bad))
            return
        for what in bad:
            self.fail(what)


WORKLOADS = {w.name: w for w in (Sweep, LongPeriodic, Bounds)}


# -- measurement -------------------------------------------------------------

def measure(wl: Workload, seconds: float, n_units: int | None = None,
            tracer: Tracer | None = None, clock=None) -> dict:
    """Run units until the next one would end past ``seconds`` of host
    time (at least ``MIN_UNITS``), or exactly ``n_units`` of them.  Units run
    closed-loop: the next starts after the previous one's checks finish.

    ``clock`` is a started ``pace.Pace``; without one, reference seconds
    equal host seconds.
    """
    span = clock.span if clock is not None else (lambda a, b: b - a)
    host, units, ops, ticks_per_s = [], [], [], []
    attempted = wl.attempted
    i = 0
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.run_id = i
            with tracer.span(ROOT):
                unit, out = wl.unit(i)
        else:
            unit, out = wl.unit(i)
        t1 = time.perf_counter()
        host.append(t1 - t0)
        units.append(span(t0, t1))
        ops += [span(a, b) for a, b in unit.ops]
        wl.check(unit, out)
        ticks_per_s.append(unit.ticks / units[-1])
        i += 1
        if n_units is not None:
            if i >= n_units:
                break
        elif i >= MIN_UNITS and sum(host) + statistics.median(host) > seconds:
            break
    return {"unit_s": units, "unit_host_s": host, "op_s": ops,
            "ticks_per_s": ticks_per_s, "attempted": wl.attempted - attempted}


def default_case_digests(work_dir: str) -> dict:
    """sha256 of the default case's trace CSVs at seed 42."""
    out = os.path.join(work_dir, "seed42")
    paths = sim.emit_csv(sim.run_scenario(config.build_case_study(seed=42)), out)
    return {os.path.basename(p): _sha256(p) for p in paths}


def machine_info() -> dict:
    info = {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or None,
            "blas": None,
            "thread_env": {k: os.environ.get(k) for k in sorted(THREAD_VARS)}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")),
                                     info["cpu_model"])
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: {f: deps[k].get(f) for f in
                            ("name", "version", "openblas configuration")}
                        for k in ("blas", "lapack") if k in deps}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    info["commit"] = _git_commit()
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT_DIR, "src", "cpsrecover",
                                              "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    info["source_sha256"] = h.hexdigest()
    return info


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` without running git, if present."""
    git = os.path.join(ROOT_DIR, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def set_up(name: str, work_dir: str, seed: int, tracer: Tracer | None = None,
           **sizes) -> Workload:
    """Build workload ``name``; with a ``tracer``, its set-up calls are
    recorded under run id ``SETUP_RUN``."""
    if tracer is None:
        return WORKLOADS[name](work_dir, seed, **sizes)
    tracer.run_id = SETUP_RUN
    layers.install(tracer)
    try:
        return WORKLOADS[name](work_dir, seed, **sizes)
    finally:
        tracer.uninstall()


def run_child(wl: Workload, seconds: float, tracer: Tracer | None,
              work_dir: str, clock=None) -> dict:
    """Measure a set-up workload untraced and then, with a ``tracer``,
    traced over the same units; check its outputs and describe the
    machine.  ``peak_rss_mb`` leaves out the sampler's heap."""
    plain = measure(wl, seconds, clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if clock is not None:
        peak_rss_mb -= clock.heap_mb
    out = {"peak_rss_mb": peak_rss_mb, "plain": plain}
    if tracer is not None:
        layers.install(tracer)
        try:
            traced = measure(wl, seconds, n_units=len(plain["unit_s"]),
                             tracer=tracer, clock=clock)
        finally:
            tracer.uninstall()
        spans = os.path.join(ROOT_DIR, ".bench_out",
                             f"spans-{wl.name}-seed{wl.seed}.npz")
        tracer.write(spans)
        out["spans_file"] = os.path.relpath(spans, ROOT_DIR)
        values = layers.layer_metrics(tracer, plain, traced)
        out["layers"] = {name: {"value": values[name], "unit": unit}
                         for name, (unit, _) in layers.metric_specs().items()}
    out["correct"] = wl.verdict() and wl.failed == 0
    out["attempted"] = wl.attempted
    out["failed"] = wl.failed
    out["failures"] = wl.failures
    out.update(wl.extra())
    out["digests"] = {"default-seed-42": default_case_digests(work_dir)}
    if wl.digests:
        out["digests"][wl.name] = wl.digests
    out["machine"] = machine_info()
    if clock is not None:
        out["host_speed"] = statistics.median(clock.speed)
        out["sampler_heap_mb"] = clock.heap_mb
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    # the parent's monotonic stamp on this process's perf_counter scale
    t_spawn = time.perf_counter() - (time.monotonic() - args.t_spawn)
    work_dir = os.path.join(ROOT_DIR, ".bench_out", f"work-{os.getpid()}")
    clock = pace.Pace().start()
    try:
        os.makedirs(work_dir, exist_ok=True)
        tracer = Tracer() if args.trace else None
        wl = set_up(args.workload, work_dir, args.seed, tracer)
        t = time.perf_counter()
        clock.sample(SETUP_SAMPLES_AT_END)
        out = {"setup_s": clock.span(t_spawn, t), "setup_host_s": t - t_spawn}
        if not args.setup_only:
            out.update(run_child(wl, args.seconds, tracer, work_dir, clock))
    finally:
        clock.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
