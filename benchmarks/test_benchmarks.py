"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.locate_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from revode.data import SIM_DEFAULTS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc, {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def bench(args, cwd):
    # A relative PYTHONPATH, as the tier-1 command sets it, points nowhere
    # from `cwd`; the benchmark must find its package without it.
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_declared_metrics_are_well_formed_and_match_what_runs_report():
    doc, units = declared()
    assert len(units) == len(doc["end_to_end"]) + len(doc["per_layer"])  # names used once
    for name, unit in units.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("name", ["simulate", "train_desk", "train_graph"])
def test_seed_decides_the_generated_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    if name == "simulate":
        def inputs(seed):
            train, test = wl.inputs(seed, [0], [0])
            return workloads.sha256_arrays([t.features() for t in train + test])
    else:
        def inputs(seed):
            return wl.setup(seed, tmp_path).inputs_digest
    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_seed_decides_the_verify_inputs():
    def roundtrip(seed):
        name, call, _ = workloads.Verify()._checks(seed, 0)[1]
        assert name == "roundtrip"
        return call()

    assert roundtrip(3) == roundtrip(3)
    assert roundtrip(3) != roundtrip(4)


@pytest.mark.parametrize("name", ["simulate", "train_desk"])
def test_runs_anywhere_and_traced_outputs_equal_untraced(name, tmp_path):
    digests = {}
    for trace in (0, 1):
        proc = bench(
            ["--workload", name, "--seed", "11", "--seconds", "0", "--trace", str(trace)], tmp_path
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = tracing.PER_LAYER if trace else run.END_TO_END
        assert {m: body["unit"] for m, body in result["metrics"].items()} == wanted
        if not trace:
            assert all(body["value"] > 0 for body in result["metrics"].values())
        digests[trace] = [ln for ln in proc.stdout.splitlines() if ln.startswith("digest ")]
    assert digests[0] and digests[0] == digests[1]
    assert not list(tmp_path.iterdir())  # nothing written outside the checkout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_euler_reference_matches_the_simulator_and_catches_a_wrong_model():
    _, (traj,) = workloads.Simulate().inputs(5, [], [0])
    dt, record_every = SIM_DEFAULTS["damped_spring"][1:]
    tol = workloads.REFERENCE_RTOL * max(1.0, float(np.max(np.abs(traj.features()))))

    ref = workloads.euler_reference(traj, dt, record_every)
    assert np.max(np.abs(traj.features() - ref)) <= tol

    weaker = dataclasses.replace(traj, system={**traj.system, "gamma": traj.system["gamma"] * 0.999})
    assert np.max(np.abs(traj.features() - workloads.euler_reference(weaker, dt, record_every))) > tol
