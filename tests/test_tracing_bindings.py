"""The benchmark tracer patches program functions by (module, attribute) name.

`benchmarks/` sits outside the test paths, so these checks keep a refactor
that renames or drops a traced binding from passing here while
`benchmarks/run.py --trace 1` breaks.
"""

import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest

from revode.integrators import StateVector, TimeGrid, integrate

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "tracing.py"
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(tracing):
    bindings = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTS]
    missing = [
        f"{module}.{attr}" for module, attr in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_integrate_hook_reads_the_call_it_wraps(tracing):
    """The hook counts member steps from integrate's `state0` and `grid`,
    passed by position or by name."""
    assert list(inspect.signature(integrate).parameters)[:3] == ["deriv", "state0", "grid"]
    tracer = tracing.Tracer()
    state0 = StateVector(np.zeros((4, 3, 1, 1)), np.zeros((4, 3, 1, 1)))
    grid = TimeGrid(0.0, 0.1, 5)
    tracing._integrate_hook(tracer, (None, state0, grid), {})
    tracing._integrate_hook(tracer, (None,), {"state0": state0, "grid": grid})
    assert tracer.counts["integrators.member_steps"] == 2 * 12 * 5
