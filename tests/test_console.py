"""The console entry point end to end, as a user runs it.

Each test runs ``cpsrecover`` in a subprocess: the installed script when
it is on ``PATH``, else ``python -m cpsrecover.cli`` on this checkout's
sources.  The scenario is the one ``run --print-default`` prints.  What
``tests/test_cli.py`` asserts in-process is not asserted again here: the
files of a plain run, the checkpoint table's events, the refusal of an
overflowing noise std or an output directory that cannot be made, and the
unrecoverable stop's event line and last row.
"""

import csv
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

import cpsrecover

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(cpsrecover.__file__)))
_SCRIPT = shutil.which("cpsrecover")
_ENTRY = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "cpsrecover.cli"]
# the outer bounds section of test_cli's pinned "bounded" tables
_OUTER_BOUNDS = {"A_bar": [[1, 0, 0.1], [0, 1, 0.1], [0, 0, 1]],
                 "eps_delta": [0.5, 0.5, 0.1],
                 "eps_omega": [0.05, 0.05, 0.05], "E_max": [5, 5, 1]}


def cpsrecover_cli(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if not _SCRIPT:
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([*_ENTRY, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def scenario() -> dict:
    """The printed default scenario."""
    done = cpsrecover_cli("run", "--print-default")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _saved(path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def test_a_coupled_run_writes_a_trace_per_loop(tmp_path, scenario):
    """The outer plant driven through the motor loops."""
    done = cpsrecover_cli("run", _saved(tmp_path / "s.json", scenario),
                          "--plant-mode", "coupled", "--out-dir",
                          tmp_path / "coupled")
    assert done.returncode == 0, done.stderr
    assert len(glob.glob(str(tmp_path / "coupled" / "*.csv"))) == 3


def test_compare_writes_a_gap_row_for_every_loop(tmp_path, scenario):
    """The every-tick-checkpoint shadow: one gap CSV per loop, and the
    default run recovers on every loop, so each has a data row."""
    done = cpsrecover_cli("compare", _saved(tmp_path / "s.json", scenario),
                          "--out-dir", tmp_path / "compare")
    assert done.returncode == 0, done.stderr
    gaps = glob.glob(str(tmp_path / "compare" / "*_gap.csv"))
    assert len(gaps) == 3
    for path in gaps:
        with open(path) as fh:
            assert len(fh.readlines()) >= 2, path


def test_bounds_and_their_gap_bounds(tmp_path, scenario):
    """With an outer bounds section: ``bounds.json`` is strict JSON, with
    no NaN or Infinity constant, and holds the outer duration
    certificate; ``compare`` fills a gap bound on every recovering row."""
    path = _saved(tmp_path / "bounded.json",
                  dict(scenario, bounds={"outer": _OUTER_BOUNDS}))
    done = cpsrecover_cli("bounds", path, "--out-dir", tmp_path / "bounds")
    assert done.returncode == 0, done.stderr

    def refuse(name):
        raise AssertionError(f"bounds.json holds {name}")

    with open(tmp_path / "bounds" / "bounds.json") as fh:
        report = json.load(fh, parse_constant=refuse)
    assert "max_tolerable_duration" in report["outer"]

    done = cpsrecover_cli("compare", path, "--out-dir", tmp_path / "gaps")
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "gaps" / "outer_gap.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(v.strip() for r in rows for k, v in r.items()
               if k.startswith("gap_bound_"))


def test_an_anomaly_past_t_max_is_a_safe_stop(tmp_path, scenario):
    """Exit 3, an event line, and a trace whose last row is the safe-stop
    tick."""
    done = cpsrecover_cli("run",
                          _saved(tmp_path / "s.json", dict(scenario, t_max=0.5)),
                          "--out-dir", tmp_path / "short")
    assert done.returncode == 3, done.stderr
    assert any(line.startswith("event: ")
               for line in done.stdout.splitlines())
    last = []
    for path in glob.glob(str(tmp_path / "short" / "*.csv")):
        with open(path) as fh:
            last.append(list(csv.DictReader(fh))[-1])
    assert any(r["safe_stop"] == "1" for r in last)
