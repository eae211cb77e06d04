"""Acceptance gate: ten promised properties, one test and one printed
[PASS]/[FAIL] line each.

Criteria 1-4 run the frozen verification suites (energy classes, solver
round trips, loss-scaling orders, the worst-case pairing construction).
Criterion 5 checks the full training gradient against finite differences.
Criteria 6, 7, and 9 share one desk-scale experiment grid: a 1-D
single-agent oscillator corpus (200 train / 50 test trajectories,
condition on 30 grid points, predict 20 in training and 60 at test time)
trained under the baseline, reversal-regularized, and reverse-from-start
objectives for three seeds each.  Criterion 8 orders the chaos probes,
and criterion 10 reruns every CLI command and demands bitwise-identical
artifacts.
"""

import filecmp
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from reference_ops import grad_check
import revode
from revode.configs import (
    DESK_ALPHA_GRID,
    build_desk_dataset,
    desk_train_settings,
)
from revode.data import ObservationSet
from revode.model import ModelConfig, init_params
from revode.systems import InteractionGraph
from revode.training import batch_forward, build_batch, evaluate, train
from revode.verify import (
    run_suite_energy,
    run_suite_lemma1,
    run_suite_lemma2,
    run_suite_mle,
    run_suite_theorem1,
)

# ------------------------------------------------------- pinned thresholds

GRAD_MAX_REL_ERR = 1e-4        # criterion 5
GRAD_SEEDS = (0, 1, 2, 3, 4)
DESK_SEEDS = (1, 2, 3)         # criteria 6, 7, 9
DIAG_IMPROVEMENT_FACTOR = 2.0  # criterion 6, reversal diagnostic ratio
BUDGET_SECONDS = {
    1: 60.0, 2: 120.0, 3: 120.0, 4: 1.0, 5: 60.0,
    6: 1800.0, 7: 1800.0, 8: 300.0,
}


def report(criterion: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def suite_detail(result) -> str:
    worst = min(result.assertions, key=lambda a: a.passed)
    return "; ".join(
        f"{a.name}={a.value:.3g}" for a in result.assertions[:4]
    ) + (f"; first_failure={worst.name}" if not result.passed else "")


# ---------------------------------------------------------- suites (1 - 4)

def test_criterion_01_energy_classification():
    t0 = time.time()
    result = run_suite_energy()
    elapsed = time.time() - t0
    ok = result.passed and elapsed < BUDGET_SECONDS[1]
    report(1, ok, f"energy suite in {elapsed:.1f}s; {suite_detail(result)}")


def test_criterion_02_roundtrip_orders():
    t0 = time.time()
    result = run_suite_lemma1()
    elapsed = time.time() - t0
    ok = result.passed and elapsed < BUDGET_SECONDS[2]
    report(2, ok, f"round-trip suite in {elapsed:.1f}s; {suite_detail(result)}")


def test_criterion_03_loss_scaling_orders():
    t0 = time.time()
    result = run_suite_theorem1()
    elapsed = time.time() - t0
    ok = result.passed and elapsed < BUDGET_SECONDS[3]
    report(3, ok, f"scaling suite in {elapsed:.1f}s; {suite_detail(result)}")


def test_criterion_04_worst_case_construction():
    t0 = time.time()
    result = run_suite_lemma2()
    elapsed = time.time() - t0
    ok = result.passed and elapsed < BUDGET_SECONDS[4]
    report(4, ok, f"construction suite in {elapsed:.2f}s; {suite_detail(result)}")


# ------------------------------------------------- gradient correctness (5)

def toy_observation(seed: int, n_agents=2, K=4, d=2) -> ObservationSet:
    rng = np.random.default_rng(seed)
    cond_times, cond_feats, pred_idx, pred_feats = [], [], [], []
    for _ in range(n_agents):
        ct = np.sort(rng.uniform(-1.0, -0.01, 3))
        cond_times.append(np.append(ct, 0.0))
        cond_feats.append(rng.standard_normal((4, d)))
        pred_idx.append(np.arange(1, K + 1, dtype=np.int64))
        pred_feats.append(rng.standard_normal((K, d)))
    return ObservationSet(
        n_agents=n_agents, d=d, t0=0.0, dt=0.1, n_rollout_steps=K,
        cond_times=cond_times, cond_feats=cond_feats,
        pred_idx=pred_idx, pred_feats=pred_feats,
        graph=InteractionGraph.complete(n_agents),
    )


def test_criterion_05_full_gradient_matches_finite_differences():
    config = ModelConfig(
        d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8,
        scheme="euler",
    )
    t0 = time.time()
    worst = 0.0
    for seed in GRAD_SEEDS:
        batch = build_batch([toy_observation(seed)])

        def combined(tape, leaves, batch=batch):
            return batch_forward(
                tape, leaves, config, batch, variant="treat", alpha=0.5
            ).loss

        result = grad_check(
            combined, init_params(config, seed), h=1e-5, tol=GRAD_MAX_REL_ERR
        )
        worst = max(worst, result.max_rel_err)
    elapsed = time.time() - t0
    ok = worst < GRAD_MAX_REL_ERR and elapsed < BUDGET_SECONDS[5]
    report(
        5, ok,
        f"max rel err {worst:.3g} over {len(GRAD_SEEDS)} seeds "
        f"(threshold {GRAD_MAX_REL_ERR}) in {elapsed:.1f}s",
    )


# ------------------------------------------------ desk experiments (6,7,9)

@pytest.fixture(scope="module")
def desk_grid():
    """Train the full comparison grid once; criteria 6, 7, 9 read from it."""
    t0 = time.time()
    obs_train, obs_test, _scale = build_desk_dataset()
    runs = {}
    for seed in DESK_SEEDS:
        jobs = [("none", 0.0)] + [("treat", a) for a in DESK_ALPHA_GRID]
        jobs.append(("rev2", 0.5))
        for variant, alpha in jobs:
            settings = desk_train_settings(variant, alpha, seed)
            result = train(obs_train, settings)
            rep = evaluate(result.params, obs_test, settings.model)
            runs[(variant, alpha, seed)] = {
                "mse": rep.mse,
                "diag": result.final_diag_l_reverse,
                "maxerr": rep.max_error_gt_rev,
                "buckets": rep.bucket_mse,
            }
    runs["elapsed"] = time.time() - t0
    return runs


def seed_mean(runs, variant, alpha, field):
    return float(np.mean([runs[(variant, alpha, s)][field] for s in DESK_SEEDS]))


@pytest.mark.slow
def test_criterion_06_regularizer_beats_baseline(desk_grid):
    base_mse = seed_mean(desk_grid, "none", 0.0, "mse")
    base_diag = seed_mean(desk_grid, "none", 0.0, "diag")
    tuned_alpha = min(
        DESK_ALPHA_GRID, key=lambda a: seed_mean(desk_grid, "treat", a, "mse")
    )
    tuned_mse = seed_mean(desk_grid, "treat", tuned_alpha, "mse")
    tuned_diag = seed_mean(desk_grid, "treat", tuned_alpha, "diag")

    ok = (
        tuned_mse <= base_mse
        and base_diag >= DIAG_IMPROVEMENT_FACTOR * tuned_diag
        and desk_grid["elapsed"] < BUDGET_SECONDS[6]
    )
    report(
        6, ok,
        f"test MSE {tuned_mse:.4f} (alpha={tuned_alpha}) vs baseline "
        f"{base_mse:.4f}; reversal diagnostic {tuned_diag:.3e} vs baseline "
        f"{base_diag:.3e} (need >= {DIAG_IMPROVEMENT_FACTOR}x); grid took "
        f"{desk_grid['elapsed']:.0f}s over {len(DESK_SEEDS)} seeds",
    )


@pytest.mark.slow
def test_criterion_07_endpoint_reversal_beats_reverse_from_start(desk_grid):
    treat_err = seed_mean(desk_grid, "treat", 0.5, "maxerr")
    rev2_err = seed_mean(desk_grid, "rev2", 0.5, "maxerr")
    ok = treat_err <= rev2_err and desk_grid["elapsed"] < BUDGET_SECONDS[7]
    report(
        7, ok,
        f"mean max deviation {treat_err:.3f} (endpoint reversal) vs "
        f"{rev2_err:.3f} (reverse-from-start) at matched alpha=0.5 and "
        f"matched budgets over {len(DESK_SEEDS)} seeds",
    )


@pytest.mark.slow
def test_criterion_09_error_grows_with_horizon(desk_grid):
    violations = []
    checked = 0
    for key, stats in desk_grid.items():
        if key == "elapsed":
            continue
        b = stats["buckets"]
        checked += 1
        if not (b[20] <= b[40] <= b[60]):
            violations.append((key, b))
    ok = checked == len(DESK_SEEDS) * 5 and not violations
    report(
        9, ok,
        f"bucketed MSE nondecreasing over horizons 20/40/60 for all "
        f"{checked} trained models" + (f"; violations: {violations}" if violations else ""),
    )


# ------------------------------------------------------- chaos ordering (8)

def test_criterion_08_chaos_ordering():
    t0 = time.time()
    result = run_suite_mle()
    elapsed = time.time() - t0
    ok = result.passed and elapsed < BUDGET_SECONDS[8]
    report(8, ok, f"chaos suite in {elapsed:.0f}s; {suite_detail(result)}")


# ------------------------------------------------------ reproducibility (10)

SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# The directory holding the `revode` this process imported.  The CLI runs
# with `cwd` in a temporary directory, where a relative PYTHONPATH such as
# `src` finds nothing, so this absolute path goes first on its PYTHONPATH.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(revode.__file__)))


def run_cli(args, cwd):
    pythonpath = os.pathsep.join(
        p for p in (PACKAGE_PARENT, os.environ.get("PYTHONPATH")) if p
    )
    env = {**os.environ, **SINGLE_THREAD_ENV, "PYTHONPATH": pythonpath}
    proc = subprocess.run(
        [sys.executable, "-m", "revode.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        stderr_lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        report(
            10, False,
            f"`revode {args[0]}` exited {proc.returncode}: {stderr_lines[-1]}",
        )
    return proc


def run_every_command(root):
    """simulate -> train -> eval -> verify, all artifacts under `root`."""
    os.makedirs(root, exist_ok=True)
    run_cli(
        ["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
         "--trajectories", "8", "--test-trajectories", "4",
         "--steps", "4000", "--test-steps", "4000", "--seed", "11",
         "--out", "train.jsonl", "--test-out", "test.jsonl"],
        cwd=root,
    )
    run_cli(
        ["train", "--data", "train.jsonl", "--test-data", "test.jsonl",
         "--window", "0,10,25", "--test-window", "0,10,30",
         "--n-obs-min", "4", "--n-obs-max", "8",
         "--test-n-obs-min", "6", "--test-n-obs-max", "10",
         "--d-enc", "4", "--d-aug", "4", "--d-model", "8",
         "--ode-hidden", "8", "--dec-hidden", "8", "--scheme", "euler",
         "--epochs", "2", "--batch-size", "4", "--seed", "1",
         "--outdir", "run"],
        cwd=root,
    )
    run_cli(
        ["eval", "--checkpoint", "run/checkpoint.json", "--data", "test.jsonl",
         "--window", "0,10,30", "--n-obs-min", "6", "--n-obs-max", "10",
         "--out", "metrics.json"],
        cwd=root,
    )
    run_cli(["verify", "--suite", "lemma2", "--json", "report.json"], cwd=root)


def test_criterion_10_bitwise_reproducibility(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    run_every_command(a)
    run_every_command(b)

    artifacts = [
        "train.jsonl", "test.jsonl", "train.jsonl.config.json",
        "run/checkpoint.json", "run/losses.csv", "run/summary.json",
        "run/resolved_config.json",
        "metrics.json", "metrics.json.config.json", "report.json",
    ]
    differing = [
        rel for rel in artifacts
        if not filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel), shallow=False)
    ]
    ok = not differing
    report(
        10, ok,
        f"{len(artifacts)} artifacts from simulate/train/eval/verify reruns "
        f"compared bitwise" + (f"; differing: {differing}" if differing else ""),
    )
