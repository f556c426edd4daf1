"""The benchmark's span tracer still finds every program name it wraps.

``perfbench/tracing.py`` wraps the program's functions and methods by name,
from outside the program, and ``instrument`` looks each one up as it
enters. A rename in ``src/`` would otherwise show only in a traced
benchmark run (``perfbench/run.py --trace 1``).
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import repro.core.grasorw  # noqa: F401  (every engine module)
import repro.graphs.csr  # noqa: F401
import repro.graphs.partition  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings() -> dict:
    """Every attribute of every loaded ``repro`` module, and of each class
    one defines, by (module, name[, attribute])."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, val in vars(mod).items():
            out[(mod_name, name)] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                out.update(((mod_name, name, a), v) for a, v in vars(val).items())
    return out


@pytest.mark.parametrize("setup", [False, True])
def test_every_wrapped_name_resolves(setup):
    tracing = _tracing()
    before = _bindings()
    # Entering looks up every name it wraps, and raises if one is gone.
    with tracing.instrument(tracing.Tracer(), setup=setup):
        during = _bindings()
    wrapped = [k for k, v in before.items() if during[k] is not v]
    assert wrapped
    for k in wrapped:
        fn = during[k].__func__ if isinstance(during[k], classmethod) else during[k]
        assert hasattr(fn, "__wrapped__"), k
    after = _bindings()
    assert [k for k, v in before.items() if after[k] is not v] == []
