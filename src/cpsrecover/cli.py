"""Command-line entry point.

Subcommands:

* ``run <config>`` - simulate and emit per-loop trace CSVs.  A writer
  process (:class:`sim.CsvStream`) formats and writes each block of rows
  while the simulation goes on, to ``<loop>.csv.part``, renamed to
  ``<loop>.csv`` once the run is over, so each loop holds one block of
  rows whatever the horizon; a run that fails part-way leaves no
  ``.part`` file and no process behind.
* ``bounds <config>`` - evaluate the error bounds, maximum tolerable
  anomaly duration and checkpoint-frequency gap bound from the configured
  bound parameters, without simulating.
* ``compare <config>`` - one run, then a replay of its recovery episodes
  from an every-tick checkpoint (:func:`sim.every_tick_shadow`); emits the
  empirical gap against its bound per recovery tick.
* ``checkpoints <config>`` - emit the checkpoint creation/usage table.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 simulation
ended in a safe stop, on a ``t_max`` overrun or an unrecoverable tick (the
truncated trace is still emitted).  A ``run`` that exits 2 part-way writes
no trace CSV; one whose writing fails may leave the CSVs written before
the failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from bisect import bisect_right

import numpy as np

from . import config as cfgmod
from . import sim
from .analysis import (accuracy_resource_gap_bound, max_duration_certificate,
                       recovery_error_bound_at)
from .timebase import to_us


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsrecover",
        description="Checkpointing and roll-forward recovery simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "bounds", "compare", "checkpoints"):
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?",
                       help="scenario JSON (omit with --print-default)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--plant-mode", choices=("ideal", "coupled"),
                       default=None)
        p.add_argument("--print-default", action="store_true",
                       help="print the case-study default config and exit")
    return parser


def _load(args) -> dict:
    if args.config is None:
        raise cfgmod.ConfigError("a config file is required")
    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if args.plant_mode is not None:
        cfg["plant_mode"] = args.plant_mode
    return cfgmod.validate_config(cfg)


def _json_list(bound: np.ndarray) -> list:
    """``bound`` as a JSON list, +inf (an overflowed bound) as null."""
    return [None if v == np.inf else v for v in bound.tolist()]


def _cmd_bounds(cfg: dict) -> int:
    _, models = cfgmod.build_models(cfg)
    bounds = cfgmod.build_bound_params(cfg, models)
    if not bounds:
        print("no bound parameters configured", file=sys.stderr)
        return 1
    report = {}
    for sid, bp in bounds.items():
        windows = cfg["anomalies"].get(sid, [])
        s = min((w["t_start"] for w in windows), default=1.0)
        entry = {
            "ee_bound": _json_list(bp.eps_delta),
            "single_step_rsee_bound": _json_list(recovery_error_bound_at(
                bp, round(s / bp.tick) + 1, round(s / bp.tick))),
        }
        if bp.E_max is not None:
            t_max, lo, hi = max_duration_certificate(bp, s)
            entry["max_tolerable_duration"] = t_max
            entry["bound_at_t_max"] = _json_list(lo)
            entry["bound_past_t_max"] = _json_list(hi)
        k = round(s / bp.tick) + max(1, round(0.5 / bp.tick))
        entry["gap_bound_half_second_in"] = _json_list(
            accuracy_resource_gap_bound(bp, k, s))
        report[sid] = entry
    path = os.path.join(cfg["out_dir"], "bounds.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _cmd_run(result: sim.SimResult, out_dir: str) -> None:
    for rt in result.loops:     # written by the run's sim.CsvStream
        print(f"wrote {os.path.join(out_dir, rt.model.id)}.csv")
    for e in result.events:
        print(f"event: {e}")


def _cmd_compare(result: sim.SimResult, out_dir: str) -> None:
    shadows = sim.every_tick_shadow(result)
    for rt in result.loops:
        sid, bp = rt.model.id, rt.bounds
        tr = result.traces[sid]
        rows = tr["recovered"].any(axis=1)
        t = tr["t"][rows]
        gap = np.abs(shadows[sid][rows] - tr["x_rec"][rows])
        bound = np.full(gap.shape, np.nan)
        if bp is not None:
            starts = [w.t_start for w in rt.schedule.windows]    # sorted
            for i, tk in enumerate(t):
                # anchored at the latest anomaly window started by t
                j = bisect_right(starts, tk)
                s = starts[j - 1] if j else tk
                bound[i] = accuracy_resource_gap_bound(
                    bp, round(tk / bp.tick), s)
        states = range(gap.shape[1])
        path = os.path.join(out_dir, f"{sid}_gap.csv")
        sim.write_csv(path, ["t", *(f"gap_{j}" for j in states),
                             *(f"gap_bound_{j}" for j in states)],
                      [t, gap, bound])
        print(f"wrote {path}")


def _cmd_checkpoints(result: sim.SimResult, out_dir: str) -> None:
    path = os.path.join(out_dir, "checkpoints.csv")
    with open(path, "w", newline="") as fh:
        fh.write("subsystem,t,event,checkpoint_t\n")
        for sid, tr in result.traces.items():
            t, k1 = tr["t"].tolist(), tr["k1"].tolist()
            created = tr["ckpt_event"]
            used = tr["recovered"].any(axis=1) & ~np.isnan(tr["k1"])
            fields = []      # a tick's created row, then its used row
            for k in np.flatnonzero(created | used):
                if created[k]:
                    fields += (t[k], "created", t[k])
                if used[k]:
                    fields += (t[k], "used", k1[k])
            row = sid.replace("%", "%%") + ",%r,%s,%r\n"
            fh.write(row * (len(fields) // 3) % tuple(fields))
    print(f"wrote {path}")


_SIMULATING = {"run": _cmd_run, "compare": _cmd_compare,
               "checkpoints": _cmd_checkpoints}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.print_default:
        print(json.dumps(cfgmod.default_config(), indent=2))
        return 0
    try:
        cfg = _load(args)
        os.makedirs(cfg["out_dir"], exist_ok=True)
    except (OSError, ValueError) as exc:   # ConfigError, JSON, out_dir
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "bounds":
            return _cmd_bounds(cfg)
        loops = cfgmod.build_system(cfg)
        # run writes its trace CSVs while it simulates
        with (sim.CsvStream(loops, cfg["out_dir"]) if args.command == "run"
              else contextlib.nullcontext()) as stream:
            result = sim.run_loops(loops, cfg["seed"], to_us(cfg["horizon"]),
                                   to_us(1.0 / cfg["checkpoint_freq_hz"]),
                                   stream and stream.on_block)
        _SIMULATING[args.command](result, cfg["out_dir"])
        return 3 if result.safe_stop else 0
    except cfgmod.ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
