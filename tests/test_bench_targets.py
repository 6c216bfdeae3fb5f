"""The traced benchmark run reaches into the package by name.

``bench/layers.py`` wraps each ``(owner, attribute)`` of its ``TARGETS``
and reads ``roll_forward_recover``'s ``t`` from positional argument 6 and
``k1`` from element 3 of its result.  A rename in the package would crash
that run, so these tests check the names and the call shape.  ``TARGETS``
is read with ``ast``: importing ``layers`` needs ``bench/`` on the path.
"""

import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

from cpsrecover import config as cfgmod
from cpsrecover import estimator, framework, sim, store

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _targets() -> list:
    """``(owner, attribute)`` of each ``TARGETS`` entry, the owner as
    written, e.g. ``store.SecureStore``."""
    tree = ast.parse(LAYERS.read_text())
    value = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS"
                         for t in node.targets))
    return [(ast.unparse(entry.elts[0]), entry.elts[1].value)
            for entry in value.elts]


def test_every_benchmark_target_resolves():
    targets = _targets()
    assert len(targets) > 10
    for owner, attr in targets:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"cpsrecover.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"


def test_roll_forward_recover_keeps_its_call_shape(monkeypatch):
    """Its parameter 6 is ``t``, the tick passes it positionally, and
    element 3 of its result is the re-rolled checkpoint time or None."""
    assert list(inspect.signature(
        framework.roll_forward_recover).parameters)[6] == "t"
    seen = []
    recover = framework.roll_forward_recover

    def recording(*args):
        out = recover(*args)
        seen.append((args[6], out[3]))
        return out

    monkeypatch.setattr(framework, "roll_forward_recover", recording)
    sim.run_scenario(cfgmod.default_config())
    rerolls = [(t, k1) for t, k1 in seen if k1 is not None]
    assert len(seen) > len(rerolls) == 6
    assert all(isinstance(t, float) and k1 < t for t, k1 in rerolls)


def test_traced_layers_run_once_per_tick(monkeypatch):
    """A default run calls ``estimator_step``, ``subsystem_tick`` and
    ``SecureStore.append_control`` once per loop tick through the names
    the traced run wraps: a class attribute, or every ``cpsrecover``
    module bound to the function.  A tick that inlined one of them would
    read 0 calls in the traced run."""
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, attr in ((estimator, "estimator_step"),
                        (framework, "subsystem_tick")):
        fn = getattr(owner, attr)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("cpsrecover")
                    and getattr(module, attr, None) is fn):
                monkeypatch.setattr(module, attr, counting(attr, fn))
    monkeypatch.setattr(store.SecureStore, "append_control", counting(
        "append_control", store.SecureStore.append_control))
    res = sim.run_scenario(cfgmod.default_config())
    ticks = sum(len(tr["t"]) for tr in res.traces.values())
    assert ticks == 2100 and not res.safe_stop
    assert calls == {"estimator_step": ticks, "subsystem_tick": ticks,
                     "append_control": ticks}
