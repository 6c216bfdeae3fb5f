"""Command-line entry point.

Subcommands:

* ``run <config>`` - simulate and emit per-loop trace CSVs.
* ``bounds <config>`` - evaluate the error bounds, maximum tolerable
  anomaly duration and checkpoint-frequency gap bound from the configured
  bound parameters, without simulating.
* ``compare <config>`` - one run, then a replay of its recovery episodes
  from an every-tick checkpoint (:func:`sim.every_tick_shadow`); emits the
  empirical gap against its bound per recovery tick.
* ``checkpoints <config>`` - emit the checkpoint creation/usage table.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 simulation
ended in a safe stop (the truncated trace is still emitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import sim
from .analysis import (accuracy_resource_gap_bound, max_duration_certificate,
                       recovery_error_bound_at)


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
    if args.print_default:
        print(json.dumps(cfgmod.default_config(), indent=2))
        raise SystemExit(0)
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


def _cmd_run(cfg: dict) -> int:
    result = sim.run_scenario(cfg)
    paths = sim.emit_csv(result, cfg["out_dir"])
    for p in paths:
        print(f"wrote {p}")
    for e in result.events:
        print(f"event: {e}")
    return 3 if result.safe_stop else 0


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
            "ee_bound": list(bp.eps_delta),
            "single_step_rsee_bound": list(recovery_error_bound_at(
                bp, round(s / bp.tick) + 1, round(s / bp.tick))),
        }
        if bp.E_max is not None:
            t_max, lo, hi = max_duration_certificate(bp, s)
            entry["max_tolerable_duration"] = t_max
            entry["bound_at_t_max"] = list(np.atleast_1d(lo))
            entry["bound_past_t_max"] = list(np.atleast_1d(hi))
        k = round(s / bp.tick) + max(1, round(0.5 / bp.tick))
        entry["gap_bound_half_second_in"] = list(
            accuracy_resource_gap_bound(bp, k, s))
        report[sid] = entry
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bounds.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _cmd_compare(cfg: dict) -> int:
    result = sim.run_scenario(cfg)
    shadows = sim.every_tick_shadow(result)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    for rt in result.loops:
        sid, bp = rt.model.id, rt.bounds
        tr = result.traces[sid]
        path = os.path.join(out_dir, f"{sid}_gap.csv")
        n_x = tr["x_true"].shape[1]
        opt = shadows[sid]
        with open(path, "w", newline="") as fh:
            cols = (["t"] + [f"gap_{j}" for j in range(n_x)]
                    + [f"gap_bound_{j}" for j in range(n_x)])
            fh.write(",".join(cols) + "\n")
            for k, t in enumerate(tr["t"]):
                if not np.any(tr["recovered"][k]):
                    continue
                gap = np.abs(opt[k] - tr["x_rec"][k])
                if bp is not None:
                    # anchored at the latest anomaly window started by t
                    s = max((w.t_start for w in rt.schedule.windows
                             if w.t_start <= t), default=t)
                    bound = accuracy_resource_gap_bound(
                        bp, round(t / bp.tick), s)
                else:
                    bound = np.full(n_x, np.nan)
                row = ([sim._fmt(t)] + [sim._fmt(v) for v in gap]
                       + [sim._fmt(v) for v in np.atleast_1d(bound)])
                fh.write(",".join(row) + "\n")
        print(f"wrote {path}")
    return 3 if result.safe_stop else 0


def _cmd_checkpoints(cfg: dict) -> int:
    result = sim.run_scenario(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "checkpoints.csv")
    with open(path, "w", newline="") as fh:
        fh.write("subsystem,t,event,checkpoint_t\n")
        for sid, tr in result.traces.items():
            for k in range(len(tr["t"])):
                if tr["ckpt_event"][k]:
                    fh.write(f"{sid},{sim._fmt(tr['t'][k])},created,"
                             f"{sim._fmt(tr['t'][k])}\n")
                if np.any(tr["recovered"][k]) and not np.isnan(tr["k1"][k]):
                    fh.write(f"{sid},{sim._fmt(tr['t'][k])},used,"
                             f"{sim._fmt(tr['k1'][k])}\n")
    print(f"wrote {path}")
    return 3 if result.safe_stop else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _load(args)
    except SystemExit as exc:
        return exc.code or 0
    except (OSError, ValueError) as exc:   # ConfigError, JSON decoding
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    try:
        handler = {"run": _cmd_run, "bounds": _cmd_bounds,
                   "compare": _cmd_compare,
                   "checkpoints": _cmd_checkpoints}[args.command]
        return handler(cfg)
    except cfgmod.ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
