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
from pathlib import Path

from cpsrecover import config as cfgmod
from cpsrecover import framework, sim

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
