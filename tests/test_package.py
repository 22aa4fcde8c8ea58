"""The package's public surface."""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

import robinrecon
from robinrecon import elliptic, lm, parabolic

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    """A name left in __all__ after its object is gone breaks
    `from robinrecon import *`."""
    namespace = {}
    exec("from robinrecon import *", namespace)
    assert set(robinrecon.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [elliptic, parabolic, lm],
                         ids=["elliptic", "parabolic", "lm"])
def test_solve_modules_keep_only_the_functions_the_tracer_patches(module):
    """Each solve lives in its protocol method, and the L-M loop runs
    both kinds through one step.  A public module-level function of these
    modules is left only where the benchmark's tracer times it by
    patching that name (its LAYERS), and each such public name exists; a
    copy of a method or a per-kind step that nothing patches fails here.
    The tracer's private names (lm._advance) are not part of the
    surface."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = {attr for _, owner, attr, _ in tracer.LAYERS
               if owner is module and not attr.startswith("_")}
    public = {name for name, value in vars(module).items()
              if inspect.isfunction(value) and not name.startswith("_")
              and value.__module__ == module.__name__}
    assert public == patched
