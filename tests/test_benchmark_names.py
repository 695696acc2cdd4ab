"""The library names and keyword arguments that the benchmark harness uses.

`perfbench/` traces the library by replacing the functions listed in its
``WRAPS`` table and calls several of them with keyword arguments.  A removal
or rename in the library that breaks either would only show in the
benchmark's own tests; this guard keeps it in the main suite.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    wraps = _load_tracing().WRAPS
    assert wraps
    missing = [(mod, attr) for mod, attr, _layer, _hook in wraps
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


# (module, function, keyword arguments the harness passes or its hooks read)
KEYWORDS = [
    ("kacrice", "crt_expected", {"n": 40, "n_samples": 100, "seed": 0, "which": "star",
                                 "n_threads": 2}),
    ("scan", "band_endpoints", {"which": "zero", "xtol": 1e-13}),
    ("scan", "project_max_over_x", {"which": "zero", "coarse": 11}),
    ("simulate", "find_critical_points", {"n_starts": 1, "seed": [0, 1]}),
    ("simulate", "power_iteration", {"max_iters": 1, "tol": 1e-10}),
    ("simulate", "gradient_ascent", {"max_iters": 1, "tol": 1e-8}),
]


@pytest.mark.parametrize("module, name, kwargs", KEYWORDS)
def test_keyword_arguments_bind(module, name, kwargs):
    fn = getattr(importlib.import_module(f"tensorlandscape.{module}"), name)
    inspect.signature(fn).bind_partial(**kwargs)


OPTIMIZERS = ["power_iteration", "gradient_ascent"]


@pytest.mark.parametrize("called", OPTIMIZERS)
def test_optimizers_do_not_call_each_other(called, monkeypatch):
    # the harness counts runs and iterations per public optimizer name, so a
    # wrapper that called the other public name would be counted twice
    from tensorlandscape import simulate

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{called} called another public optimizer")

    for name in OPTIMIZERS:
        if name != called:
            monkeypatch.setattr(simulate, name, forbidden)
    tensor = simulate.noiseless_tensor(4, 3, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    getattr(simulate, called)(tensor, np.array([0.6, 0.8, 0.0, 0.0]), max_iters=5)
