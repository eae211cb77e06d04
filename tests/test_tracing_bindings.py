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

from revode.autodiff import Tape
from revode.data import build_observation_sets, build_trajectory
from revode.integrators import StateVector, TimeGrid, integrate
from revode.model import ModelConfig, init_params
from revode.systems import SystemSpec
from revode.training import batch_forward, build_batch

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


def test_backward_hook_reads_a_real_treat_tape(tracing):
    """The hook counts the nodes and the still-live node values of a treat
    batch's tape, as backward receives it after batch_forward returns."""
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    trajs = [build_trajectory(spec, seed=2, index=i, raw_steps=2000) for i in range(3)]
    batch = build_batch(build_observation_sets(trajs, (0, 8, 14), 4, 6, obs_seed=5))
    config = ModelConfig(d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8)
    tape = Tape()
    loss = batch_forward(tape, init_params(config, seed=0), config, batch, "treat", 0.5).loss
    tracer = tracing.Tracer()
    tracing._backward_hook(tracer, (tape, loss), {})
    assert tracer.tape["nodes"] == len(tape)
    assert tracer.tape["ops"]["decode"] == 2 and tracer.tape["ops"]["rollout"] == 2
    assert tracer.tape["value_bytes"] > 0
