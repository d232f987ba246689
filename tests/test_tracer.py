"""The benchmark's tracer patches library names from outside the package.

Installing it looks up every name it spans or counts, so a library name
that the benchmark needs and that is renamed or deleted fails here, and
uninstalling it must leave every module and class as it was.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every binding the tracer could replace: frobsieve module globals
    and class attributes, by (namespace name, attribute) -> object id."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "frobsieve" and not modname.startswith("frobsieve."):
            continue
        for name, value in list(vars(mod).items()):
            out[modname, name] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in list(vars(value).items()):
                    out[f"{modname}.{name}", attr] = id(member)
    return out


def test_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install()
        owners = [(owner, attr) for owner, attr, *_ in tracer.SPANS + tracer.COUNTS]
        owners.append((tracer.indexcalc, "smooth_factor"))
        patched = {(id(owner), attr) for owner, attr, _ in t._patches}
        for owner, attr in owners:
            assert (id(owner), attr) in patched, attr
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        t.uninstall()
    assert not t._patches
    assert _bindings() == before
