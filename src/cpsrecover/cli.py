"""Command-line entry point.

Subcommands:

* ``run <config>`` - simulate and emit per-loop trace CSVs.
* ``bounds <config>`` - evaluate the error bounds, maximum tolerable
  anomaly duration and checkpoint-frequency gap bound from the configured
  bound parameters, without simulating.
* ``compare <config>`` - one run, with its recovery episodes replayed from
  an every-tick checkpoint (:class:`sim.Shadow`); emits the empirical gap
  against its bound per recovery tick.
* ``checkpoints <config>`` - emit the checkpoint creation/usage table.

A simulating command writes its files from the blocks of rows the run
hands over to its sink (:data:`STREAMS`) while the simulation goes on, so
each loop holds one block of rows whatever the horizon.  ``run`` and
``compare`` write through a writer process, to ``<file>.part``, renamed
once the run is over; ``checkpoints`` keeps each loop's rows in a
temporary file and writes its table once the run is over.  A run that
fails part-way leaves no file, ``.part`` file or process behind.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 simulation
ended in a safe stop, on a ``t_max`` overrun or an unrecoverable tick (the
truncated trace is still emitted).  A command that exits 2 part-way
writes no file; one whose writing fails may leave the files written
before the failure.
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


# each simulating command's sink, which writes its files from the blocks
# of the run
STREAMS = {"run": sim.CsvStream, "compare": sim.GapStream,
           "checkpoints": sim.CheckpointStream}


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
        with STREAMS[args.command](loops, cfg["out_dir"]) as stream:
            result = sim.run_loops(loops, cfg["seed"], to_us(cfg["horizon"]),
                                   to_us(1.0 / cfg["checkpoint_freq_hz"]),
                                   stream.on_block)
        for path in stream.paths:
            print(f"wrote {path}")
        if args.command == "run":
            for e in result.events:
                print(f"event: {e}")
        return 3 if result.safe_stop else 0
    except cfgmod.ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
