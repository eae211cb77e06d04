"""The benchmark harness calls into the package with name -> array mappings.

`benchmarks/workloads.py` evaluates `init_params`' dict in its set-up, digests
`TrainResult.params` by sorted name and evaluates those params again.  It sits
outside the test paths, so this test runs those calls on a tiny model and a
one-epoch run: a refactor that changes what they take or give fails here
instead of in `benchmarks/run.py`.
"""

import importlib.util
import os
import sys

import pytest

from revode.configs import desk_system_spec
from revode.model import ModelConfig, param_shapes

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCHMARKS)  # for its `from reference import ...`
        spec = importlib.util.spec_from_file_location(
            "benchmark_workloads", os.path.join(BENCHMARKS, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


def test_harness_train_calls_take_and_give_named_params(workloads):
    """Set-up evaluates a fresh model, and a pass digests the trained params
    and the report of evaluating them, as the `train_*` workloads do."""
    config = ModelConfig(d_obs=desk_system_spec().feature_dim, d_enc=4, d_aug=2, d_model=4,
                         ode_hidden=4, dec_hidden=4, scheme="euler")

    def make_data(seed):
        return (workloads.closed_form_desk_trajectories(seed, 6, 21),
                workloads.closed_form_desk_trajectories(seed + 1, 3, 21))

    work = workloads.Train("guard", make_data, config, (0, 10, 20), (0, 10, 20), (4, 8), (4, 8),
                           epochs=1, evals_per_pass=1)
    state = work.setup(seed=3)  # evaluate(init_params(model, seed), obs_test[:16], model)
    result = workloads.rtraining.train(state.obs_train, state.settings)
    params = workloads.params_digest(result.params)
    report = workloads.report_digest(
        workloads.rtraining.evaluate(result.params, state.obs_test, work.model))
    assert sorted(result.params) == sorted(param_shapes(config))
    assert len(params) == len(report) == 64
