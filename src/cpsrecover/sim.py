"""Deterministic multi-rate scheduler, trace recording and CSV emission.

:func:`run_loops`, the single-threaded scheduler, runs the loops it is
given, as :func:`cpsrecover.config.build_system` builds them, and names
none.  Each loop ticks at the multiples of its own period, a whole number
of microseconds, and the scheduler walks the ticks of all loops merged in
time order, not every tick of a common base grid.  At each instant it
computes one checkpoint Boolean, true on multiples of the checkpoint
period, and hands it to every loop due then, in list order.  Before the
loops of a checkpoint instant fire, it finds that instant's consistent
checkpoint ``k1``, as recovery would, and drops the store's records older
than it: no later recovery reads them, so the store holds a bounded
suffix of the run's logs for any horizon.  On a loop
tick the scheduler steps the plant and calls :func:`subsystem_tick`, which
writes the loop's trace row into its :class:`SubsystemRuntime`; signals
between loops pass through their controllers.  All randomness flows from
one master seed through per-(loop, noise kind) child streams, spawned in
loop order, so a loop appended after the others never perturbs another
loop's draws and identical (config, seed) pairs yield byte-identical CSVs.

A loop runs a block of ``_BLOCK`` rows at a time, and the scheduler alone
decides where a block starts and which rows its runtime holds.  When a
loop starts a block, the scheduler hands the finished block to
``run_loops``'s ``on_block`` hook and holds fresh rows for the next one,
draws the block's noise, one call per stream, and resolves the anomaly
window and the oracle's flags of each of its ticks; a tick reads its row
of each, and a tick inside a window adds that window's entry of the
schedule's ``offsets``.  A block of noise equals as many one-row draws,
bit for bit, so the block size never changes a run; it bounds the memory
the noise, the windows and the flags take, and, with an ``on_block``
hook, the trace rows a loop holds.

A trace CSV is written a block of ``_BLOCK`` rows at a time, either after
the run by :func:`emit_csv` or, during it, by a :class:`CsvStream` whose
writer process formats each block the run hands over through
``on_block``.  Both cut the same blocks and format them through
:func:`_csvwriter.format_block`, so they write the same bytes.  Each
command's tables are such a sink: a :class:`GapStream` writes ``compare``'s
gap CSVs from the every-tick :class:`Shadow` of each block, and a
:class:`CheckpointStream` ``checkpoints.csv``, so no command holds a whole
trace.
"""

from __future__ import annotations

import math
import os
import shutil
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import _csvwriter
from . import config as cfgmod
from .analysis import accuracy_resource_gap_bound
from .framework import (UnrecoverableError, consistent_checkpoint, replay,
                        subsystem_tick)
from .models import sample_noise
from .store import SecureStore
from .timebase import to_s, to_us

# fixed stream-split order; adding streams at the end preserves old draws
_STREAMS = ("process", "measurement", "init")
# rows of noise, anomaly windows and flags a loop holds at a time, of its
# trace while it hands each block to a sink, and of a trace CSV formatted
# and written at a time; the writer formats each loop's last block after
# the last tick, so a larger block makes a run wait longer for its files
_BLOCK = 1024


def make_rngs(seed: int, loop_ids: list) -> dict:
    """Per-(loop, kind) generators split from the master seed, spawned in
    the order of the distinct ``loop_ids`` and of ``_STREAMS``: ids
    appended to ``loop_ids`` leave the generators of the others as they
    were."""
    children = iter(np.random.SeedSequence(seed).spawn(
        len(loop_ids) * len(_STREAMS)))
    return {(sid, kind): np.random.default_rng(next(children))
            for sid in loop_ids for kind in _STREAMS}


def _loop_ticks(periods_us: list, horizon_us: int, ckpt_us: int):
    """``(t, loop, c_k)`` for every tick below ``horizon_us`` of the loops
    ticking every ``periods_us[loop]`` microseconds from 0, in time order,
    with ``t`` in seconds.  Loops due at one instant fire in the order of
    ``periods_us`` and share its ``t``, one float, and its checkpoint
    Boolean ``c_k``, true on the multiples of ``ckpt_us``."""
    due = [0] * len(periods_us)        # each loop's next tick, µs
    t_us = 0
    while t_us < horizon_us:
        t, c_k = to_s(t_us), t_us % ckpt_us == 0
        for i, p in enumerate(periods_us):
            if due[i] == t_us:
                yield t, i, c_k
                due[i] += p
        t_us = min(due)


@dataclass
class SimResult:
    """A finished run.  ``traces`` holds each loop's whole history, or,
    after a run that handed its blocks to an ``on_block`` sink, only the
    rows of each loop's last block, from row ``rt.lo`` on: the sink had
    the others, each block in rows of its own.  ``store`` holds only the
    records since its last cut, which each log's anchor commits to, and
    the loops' ``logged_u`` the logged inputs of the rows their traces
    hold.  A trace's ``ee_bound``, and its ``rsee_bound`` when the loop
    has no bounds, is a view of one shared read-only row (row stride 0)."""

    traces: dict
    store: SecureStore
    events: list
    safe_stop: bool
    loops: list        # the runtimes that ran, in fire order


def run_scenario(cfg: dict) -> SimResult:
    """Simulate a scenario; deterministic for a given (config, seed)."""
    cfg = cfgmod.validate_config(cfg)
    # the checkpoint period is a multiple of every loop period (validated)
    return run_loops(cfgmod.build_system(cfg), cfg["seed"],
                     to_us(cfg["horizon"]),
                     to_us(1.0 / cfg["checkpoint_freq_hz"]))


def run_loops(loops: list, seed: int, horizon_us: int, ckpt_us: int,
              on_block=None) -> SimResult:
    """Run ``loops``, fresh runtimes with distinct ids in fire order, for
    ``horizon_us`` microseconds, checkpointing every ``ckpt_us``.

    The run's length is this call's alone: a loop ticking every ``dt_us``
    has ``-(-horizon_us // dt_us)`` ticks, those below ``horizon_us``, and
    its runtime holds no more rows than those.  The first tick that
    returns a stop reason ends the run with a ``safe-stop`` event that
    carries it.  At each checkpoint instant that has a consistent
    checkpoint ``k1`` the store drops its records older than ``k1``.  A
    store that fails its check raises the store's :class:`IntegrityError`,
    from that cut or from a recovering tick, the one exception that leaves
    a tick, and the run ends with it.  When
    the run ends each runtime keeps what a finished run is read for, its
    model, columns, detector, schedule, bounds, trace and logged inputs;
    its ``detected``, ``innovations``, ``episode``, ``controller`` and
    ``applied_input`` are set to None.

    Without ``on_block`` each runtime holds every row of its trace, from
    before its first tick.  With it, a runtime holds one ``_BLOCK``-row
    block, whatever the horizon: a loop ``i`` that starts a block first
    calls ``on_block(i, rt)`` for the block it finished, then holds fresh
    rows for the next, and when the ticks end the run calls it for each
    loop's last block, full or partial.  In each call the held rows
    ``rt.lo`` to ``rt.rows`` are final, the row of a stopping tick
    included, at places ``0`` to ``rt.rows - rt.lo`` of the runtime's
    columns; it sees each block once, in order, and the run never writes
    them again, so it may keep them.  :class:`CsvStream` writes the trace
    CSVs from these calls, and is done with a block when its call returns,
    so a run holds one block per loop whatever the writer's speed."""
    rngs = make_rngs(seed, [rt.model.id for rt in loops])
    store = SecureStore()
    detection_times = {rt.model.id: rt.ads.detection_time for rt in loops}
    # each loop's current block: the first row, the (w, v) rows, each row's
    # window and the schedule's offsets, which the block's rows index;
    # empty until the first tick
    blocks = []
    ticks = [-(-horizon_us // to_us(rt.model.dt)) for rt in loops]
    for rt, n_ticks in zip(loops, ticks):
        model, sid = rt.model, rt.model.id
        # the plant's initial state, drawn around the model's mu0
        rt.x_true = model.mu0 + sample_noise(
            model.Sigma0_factor, rngs[(sid, "init")], 1)[0]
        blocks.append((0, (), (), (), rt.schedule.offsets))
        # every tick's rows, or, with a sink, the first block's
        rt.hold(n_ticks if on_block is None else min(_BLOCK, n_ticks))

    events = []
    cut_at = None       # the checkpoint instant the store was last cut at
    for t, i, c_k in _loop_ticks([to_us(rt.model.dt) for rt in loops],
                                 horizon_us, ckpt_us):
        if c_k and t != cut_at:
            cut_at = t
            try:
                k1 = consistent_checkpoint(store, detection_times, t)
            except UnrecoverableError:     # no consistent checkpoint yet
                pass
            else:
                store.drop_before(k1)
        rt = loops[i]
        model = rt.model
        # plant advances one loop period with the previously applied input
        # before the sensors are read, so the measurement and the
        # estimator's predict step refer to the same instant
        lo, w, v, window, offsets = blocks[i]
        n = rt.rows - lo
        if n == len(w):     # the block is used up: hand it over, go on
            if on_block is not None and n:
                on_block(i, rt)
                rt.hold(min(_BLOCK, ticks[i] - rt.rows))
            lo, n, sid = rt.rows, 0, model.id
            rows = min(_BLOCK, ticks[i] - lo)
            w = sample_noise(model.Q_factor, rngs[(sid, "process")], rows)
            v = sample_noise(model.R_factor, rngs[(sid, "measurement")], rows)
            t_us = np.arange(lo, lo + rows) * to_us(model.dt)
            window = rt.schedule.window_index(t_us, 0).tolist()
            rt.start_block(t_us)
            blocks[i] = lo, w, v, window, offsets
        rt.x_true = model.f(rt.x_true, rt.last_u) + w[n]
        y = model.g(rt.x_true, rt.last_u) + v[n]
        if window[n] >= 0:
            y = y + offsets[window[n]]
        reason = subsystem_tick(rt, store, c_k, y, t, detection_times)
        if reason:     # no episode opens on a tick that finds no checkpoint
            ep = rt.episode
            events.append({"type": "safe-stop", "subsystem": model.id, "t": t,
                           "episode_start": ep.start if ep else None,
                           "reason": reason})
            break

    for i, rt in enumerate(loops):
        if on_block is not None and rt.rows > blocks[i][0]:   # its last block
            on_block(i, rt)
        # release what only the ticks read
        rt.detected = rt.innovations = rt.episode = None
        rt.controller = rt.applied_input = None
    return SimResult({rt.model.id: {name: col[:rt.rows - rt.lo]
                                    for name, col in rt.trace.items()}
                      for rt in loops},
                     store, events, bool(events), loops)


# the trace columns a CSV holds, in its column order
_CSV_COLUMNS = ("t", "x_true", "y_meas", "x_hat", "x_rf", "recovered", "u",
                "ads_flags", "ckpt_event", "rsee_bound", "ee_bound",
                "safe_stop")


def _csv_block(columns: list) -> tuple:
    """``(row template, rows, values)`` of a block of ``columns``: one
    float table whose row template holds ``%r`` for a float column and
    ``%d`` for an integer or Boolean one.  A column that is NaN on every
    row of the block is written as empty fields and never formatted, so
    ``values``, float64, holds the other columns' fields row by row.

    A float is written in Python's shortest round-trip repr, so re-parsing
    reproduces it bit-exactly and identical tables yield byte-identical
    files; a Boolean or an integer as an integer; NaN as an empty field."""
    fields = [fmt for col in columns for fmt in (
        ["%d" if col.dtype.kind in "biu" else "%r"]
        * math.prod(col.shape[1:]))]
    table = np.column_stack(columns)
    blank = np.isnan(table).all(axis=0)
    row = ",".join(np.where(blank, "", fields)) + "\n"
    return row, len(table), table[:, ~blank].ravel()


def _trace_columns(tr: dict, rows) -> list:
    """The CSV columns of the first ``rows`` rows of trace ``tr``, or of
    all if ``rows`` is None: ``x_rf`` on a row without recovery is NaN, an
    empty field."""
    cols = {name: tr[name][:rows] for name in _CSV_COLUMNS}
    cols["x_rf"] = np.where(cols["recovered"].any(axis=1)[:, None],
                            cols["x_rf"], np.nan)
    return [cols[name] for name in _CSV_COLUMNS]


def _csv_header(rt) -> list:
    """The header of the trace CSV of loop ``rt``."""
    sn, mn, un = rt.columns
    # a generic detector flags the loop as a whole: one column, named by
    # its sensor on a one-sensor loop
    flags = ([f"ads_flag_{c}" for c in mn]
             if rt.ads.kind == "specific" or len(mn) == 1 else ["ads_flag"])
    return (["t"]
            + [f"x_true_{c}" for c in sn]
            + [f"y_meas_{c}" for c in mn]
            + [f"x_hat_{c}" for c in sn]
            + [f"x_rf_{c}" for c in sn]
            + [f"recovered_mask_{c}" for c in sn]
            + [f"u_{c}" for c in un]
            + flags
            + ["ckpt_event"]
            + [f"rsee_bound_{c}" for c in sn]
            + [f"ee_bound_{c}" for c in sn]
            + ["safe_stop"])


def emit_csv(result: SimResult, out_dir) -> list:
    """Write one trace CSV per subsystem of a finished run, a
    :func:`_csv_block` of ``_BLOCK`` rows at a time, each formatted by
    :func:`_csvwriter.format_block`; returns the written paths.  It writes
    the bytes a :class:`CsvStream` writes while the run goes on."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rt in result.loops:
        columns = _trace_columns(result.traces[rt.model.id], None)
        path = os.path.join(out_dir, f"{rt.model.id}.csv")
        try:
            with open(path, "w", newline="") as fh:
                fh.write(",".join(_csv_header(rt)) + "\n")
                for lo in range(0, len(columns[0]), _BLOCK):
                    row, n, values = _csv_block([c[lo:lo + _BLOCK]
                                                 for c in columns])
                    fh.write(_csvwriter.format_block(row, n, values.tolist()))
        except OSError as exc:
            raise OSError(f"failed writing trace CSV {path}: {exc}") from exc
        paths.append(path)
    return paths


class CsvStream(_csvwriter.Writer):
    """The trace CSVs of ``loops``, fresh runtimes, written by a writer
    process in ``out_dir`` while :func:`run_loops` runs them.

    Pass :meth:`on_block` as ``run_loops``'s ``on_block``; it hands over
    each block of ``_BLOCK`` rows, or fewer at a trace's end, to be
    written to ``<out_dir>/<loop id>.csv``, by writing the block's values
    into the writer's pipe: it returns once they are in it, and waits only
    while the writer is a whole pipe behind.  Leaving the context waits for
    the files; see :class:`_csvwriter.Writer` for what a failure leaves
    behind.  The files equal :func:`emit_csv`'s byte for byte: both cut
    the same blocks and format them alike.
    """

    def __init__(self, loops: list, out_dir):
        super().__init__([(os.path.join(out_dir, f"{rt.model.id}.csv"),
                           ",".join(_csv_header(rt)) + "\n")
                          for rt in loops])

    def on_block(self, i: int, rt) -> None:
        """Hand over the block of loop ``i``'s trace that its runtime holds."""
        row, n, values = _csv_block(_trace_columns(rt.trace, rt.rows - rt.lo))
        self.block(i, row, n, values)


def _newest(healthy: np.ndarray, end: int) -> int:
    """The newest healthy row before row ``end``, or row 0 if none."""
    rows = np.flatnonzero(healthy[:max(end, 0)])
    return rows[-1] if rows.size else 0


class Shadow:
    """Each loop's recovery as if every tick were checkpointed, computed
    from the blocks of a run.

    Each healthy tick's final estimate is a virtual checkpoint.  At the
    first recovering tick of an episode the newest one older than the
    largest detection time is chosen, as real recovery chooses among the
    consistent checkpoints, and the logged controls are replayed from it
    by :func:`framework.replay`, as recovery replays them; each later tick
    of the episode extends the replay by one control.  The shadow shares
    the run's plant, noise and control history and differs only in the
    checkpoint it rolls forward from.

    Call :meth:`rows` with each block of each loop of ``loops``, in order,
    as ``run_loops``'s ``on_block`` gets them, or once with each loop's
    whole trace.  Per loop it keeps the newest healthy row that a later
    episode could still pick and every row after it: their health, final
    estimates and logged inputs (``rt.logged_u``: the store keeps only the
    records since its last cut).
    """

    def __init__(self, loops: list):
        margin_us = to_us(max(rt.ads.detection_time for rt in loops))
        # an episode that starts at row a picks a row a - lag or older
        self._lag = [margin_us // to_us(rt.model.dt) + 1 for rt in loops]
        # per loop: the first row kept, the shadow of the last row or None,
        # then the kept rows' health, final estimates and logged inputs
        self._kept = [(0, None, np.zeros(0, bool), np.empty((0, rt.model.n_x)),
                       np.empty((0, rt.model.n_u))) for rt in loops]

    def rows(self, i: int, rt) -> np.ndarray:
        """The shadow of the rows that loop ``i``'s runtime ``rt`` holds,
        ``(rows, n_x)``: NaN on healthy rows and on an episode the run
        could not recover, whose first row has no ``k1``."""
        n, model, tr = rt.rows - rt.lo, rt.model, rt.trace
        lo, x, *kept = self._kept[i]
        healthy, x_rf, logged = (np.concatenate([old, new[:n]]) for old, new
                                 in zip(kept, (~tr["ads_flags"].any(axis=1),
                                               tr["x_rf"], rt.logged_u)))
        at = rt.lo - lo                    # the kept row of the first held
        shadow = np.full((n, model.n_x), np.nan)
        lag = self._lag[i]
        for k in np.flatnonzero(~healthy[at:]) + at:
            if k == 0 or healthy[k - 1]:            # an episode starts
                x = None
                if not np.isnan(tr["k1"][k - at]):  # the run recovered it
                    j = _newest(healthy, k - lag + 1)
                    x = replay(model, x_rf[j], logged[j:k])
            elif x is not None:
                x = model.f(x, logged[k - 1])
            if x is not None:
                shadow[k - at] = x
        j = _newest(healthy, len(healthy) - lag + 1)
        self._kept[i] = lo + j, x, healthy[j:], x_rf[j:], logged[j:]
        return shadow


class GapStream(_csvwriter.Writer):
    """``compare``'s gap CSVs of ``loops``, fresh runtimes, written by a
    writer process in ``out_dir`` while :func:`run_loops` runs them.

    Pass :meth:`on_block` as ``run_loops``'s ``on_block``.  For each
    recovering row of a block, ``<out_dir>/<loop id>_gap.csv`` gets its
    time, the gap between its every-tick :class:`Shadow` and the run's
    roll-forward value ``x_rec``, and the gap bound of a loop with bounds,
    NaN, a blank field, without.  The writer formats each block as a
    :class:`CsvStream`'s does, so the bytes do not depend on the block
    size; leaving the context waits for the files.
    """

    def __init__(self, loops: list, out_dir):
        self._shadow = Shadow(loops)
        super().__init__([(
            os.path.join(out_dir, f"{rt.model.id}_gap.csv"),
            ",".join(["t"] + [f"{name}_{j}" for name in ("gap", "gap_bound")
                              for j in range(rt.model.n_x)]) + "\n")
            for rt in loops])

    def on_block(self, i: int, rt) -> None:
        """Hand over the gap rows of the block that loop ``i``'s runtime
        holds."""
        n, bp, tr = rt.rows - rt.lo, rt.bounds, rt.trace
        rows = tr["recovered"][:n].any(axis=1)
        gap = np.abs(self._shadow.rows(i, rt)[rows] - tr["x_rec"][:n][rows])
        t = tr["t"][:n][rows]
        bound = np.full(gap.shape, np.nan)
        if bp is not None:
            starts = [w.t_start for w in rt.schedule.windows]    # sorted
            for k, tk in enumerate(t):
                # anchored at the latest anomaly window started by t
                j = bisect_right(starts, tk)
                s = starts[j - 1] if j else tk
                bound[k] = accuracy_resource_gap_bound(
                    bp, round(tk / bp.tick), s)
        if len(t):
            self.block(i, *_csv_block([t, gap, bound]))


class CheckpointStream:
    """``checkpoints.csv`` of ``loops``, fresh runtimes, in ``out_dir``:
    each loop's rows in turn, in fire order, a ``created`` row for each
    checkpoint it saved and a ``used`` row, with the checkpoint's time, for
    each recovering row, a tick's created row first.

    Pass :meth:`on_block` as ``run_loops``'s ``on_block``: it formats a
    block's rows into a temporary file of its loop's.  Leaving the context
    without an exception writes the table from them; leaving it in any way
    closes them, which removes them.
    """

    def __init__(self, loops: list, out_dir):
        import tempfile
        self.paths = [os.path.join(out_dir, "checkpoints.csv")]
        self._parts = [tempfile.TemporaryFile("w+", newline="")
                       for _ in loops]

    def on_block(self, i: int, rt) -> None:
        """Append the rows of the block that loop ``i``'s runtime holds."""
        n, tr = rt.rows - rt.lo, rt.trace
        t, k1 = tr["t"][:n].tolist(), tr["k1"][:n].tolist()
        created = tr["ckpt_event"][:n]
        used = tr["recovered"][:n].any(axis=1) & ~np.isnan(tr["k1"][:n])
        fields = []      # a tick's created row, then its used row
        for k in np.flatnonzero(created | used):
            if created[k]:
                fields += (t[k], "created", t[k])
            if used[k]:
                fields += (t[k], "used", k1[k])
        row = rt.model.id.replace("%", "%%") + ",%r,%s,%r\n"
        self._parts[i].write(row * (len(fields) // 3) % tuple(fields))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        try:
            if exc_type is None:
                with open(self.paths[0], "w", newline="") as fh:
                    fh.write("subsystem,t,event,checkpoint_t\n")
                    for part in self._parts:
                        part.seek(0)
                        shutil.copyfileobj(part, fh)
        finally:
            for part in self._parts:
                part.close()
