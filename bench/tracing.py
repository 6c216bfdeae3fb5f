"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: its name, start, end, parent span and
run id.  Spans live in flat arrays while the benchmark runs and are written
out once it ends.  A span's self time is its duration minus the durations
of its child spans.

The package imports many functions by name (``sim`` holds its own
``sample_noise``, ``framework`` its own ``estimator_step``), so
:meth:`Tracer.install` replaces every module attribute that refers to the
wrapped function, not only the defining one.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "bench.unit"   # one span per timed unit; its self time is the
                      # harness's own work between calls into the program
SETUP_RUN = -1        # run id of the spans recorded while setting up


def holders(owner, attr: str) -> list:
    """Where ``owner.attr`` must be replaced: the class itself, or every
    ``cpsrecover`` module bound to the same function (the package imports
    functions by name)."""
    if isinstance(owner, type):
        return [owner]
    orig = getattr(owner, attr)
    return [m for n, m in list(sys.modules.items())
            if n.split(".")[0] == "cpsrecover" and m is not None
            and getattr(m, attr, None) is orig]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")   # summed duration of direct children
        self._stack: list[int] = []
        self.run_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        t = time.perf_counter()
        self.end[sid] = t
        self._stack.pop()
        p = self.parent[sid]
        if p >= 0:
            self.child[p] += t - self.start[sid]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(args, out)`` runs after
        the span closes, with the caller's span innermost."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(args, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(owner, attr, span_name, count)`` target.

        ``owner`` is a module or class.  For a module function, every
        ``cpsrecover`` module attribute bound to the same object is
        replaced too.
        """
        for owner, attr, name, count in targets:
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, count)
            for holder in holders(owner, attr):
                setattr(holder, attr, traced)
                self._patched.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def summary(self, timed_only: bool = False) -> dict:
        """Per span name: ``calls``, ``self_s`` and inclusive durations,
        over every span or, with ``timed_only``, over the timed units'."""
        name = np.frombuffer(self.name, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_s = dur - np.frombuffer(self.child)
        keep = (np.frombuffer(self.run, np.int32) != SETUP_RUN if timed_only
                else np.ones(len(name), bool))
        out = {}
        for nid, nm in enumerate(self.names):
            sel = (name == nid) & keep
            out[nm] = {"calls": int(sel.sum()),
                       "self_s": float(self_s[sel].sum()),
                       "durations": dur[sel]}
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 run=np.frombuffer(self.run, np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))

