"""Command-line tests, driven through main() in-process.

A tiny end-to-end pipeline (simulate -> train -> eval) runs in a temp
directory; exit-code contracts are checked by provoking each error class.
"""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revode
import revode.cli
import revode.configs
import revode.data
import revode.training
from revode.cli import build_parser, main
from revode.configs import (
    EVAL_DEFAULTS,
    OPTION_CHOICES,
    SIMULATE_DEFAULTS,
    TRAIN_DEFAULTS,
    VERIFY_DEFAULTS,
    desk_model_config,
    draw_observation_sets,
    load_config_file,
    option_type,
    train_settings,
)
from revode.data import read_dataset
from revode import errors
from revode.errors import ConfigurationError, RevodeError, RolloutDivergedError
from revode.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from revode.systems import FIXED_AGENTS, PENDULUM_SINGULARITY_EPS, SYSTEM_KINDS, SystemSpec
from test_acceptance import DESK_TRAIN_OPTIONS, desk_observation_sets

# small but structurally faithful: 1-body 1-D spring, 41 grid points
SIM_BASE = [
    "simulate",
    "--system", "simple_spring", "--agents", "1", "--dim", "1",
    "--trajectories", "10", "--steps", "4000", "--seed", "5",
]
SIM_TEST_EXTRA = ["--test-trajectories", "4", "--test-steps", "4000"]
WINDOW_ARGS = [
    "--window", "0,10,25", "--test-window", "0,10,30",
    "--n-obs-min", "4", "--n-obs-max", "8",
    "--test-n-obs-min", "6", "--test-n-obs-max", "10",
]
MODEL_ARGS = [
    "--d-enc", "4", "--d-aug", "4", "--d-model", "8",
    "--ode-hidden", "8", "--dec-hidden", "8", "--scheme", "euler",
]


def run_pipeline(tmp_path, train_extra=()):
    train_jl = str(tmp_path / "train.jsonl")
    test_jl = str(tmp_path / "test.jsonl")
    outdir = str(tmp_path / "run")
    rc = main(SIM_BASE + SIM_TEST_EXTRA + ["--out", train_jl, "--test-out", test_jl])
    assert rc == 0
    rc = main(
        ["train", "--data", train_jl, "--test-data", test_jl,
         "--epochs", "3", "--batch-size", "4", "--seed", "1",
         "--outdir", outdir]
        + WINDOW_ARGS + MODEL_ARGS + list(train_extra)
    )
    assert rc == 0
    return train_jl, test_jl, outdir


# ------------------------------------------------------------------ parser

def test_parser_knows_all_subcommands():
    parser = build_parser()
    for argv in (
        ["simulate", "--system", "simple_spring"],
        ["train", "--epochs", "3"],
        ["eval", "--checkpoint", "x.json"],
        ["verify", "--suite", "lemma2"],
    ):
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--suite", "lemma9"])


CATALOGS = {"simulate": SIMULATE_DEFAULTS, "train": TRAIN_DEFAULTS,
            "eval": EVAL_DEFAULTS, "verify": VERIFY_DEFAULTS}
# what each option type parses from a sample flag value; a window keeps its
# "lo,split,hi" string form until the command parses it
FLAG_SAMPLES = {int: ("3", int), float: ("0.25", float), str: ("x", str), list: ("0,10,25", str)}


def subcommand_parsers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


# the only hand-written flags, by command
HAND_WRITTEN = {"simulate": {"config", "desk_scale"}, "train": {"config", "desk_scale"},
                "eval": {"config"}, "verify": set()}


@pytest.mark.parametrize("command", sorted(CATALOGS))
def test_each_catalog_option_is_a_flag_of_its_type(command):
    defaults = CATALOGS[command]
    actions = [a for a in subcommand_parsers()[command]._actions if a.dest != "help"]
    assert {a.dest for a in actions} == set(defaults) | HAND_WRITTEN[command]
    flags = {a.dest: a.option_strings for a in actions if a.dest in defaults}
    assert flags == {key: ["--" + key.replace("_", "-")] for key in defaults}
    parser = build_parser()
    for key, default in defaults.items():
        text, kind = FLAG_SAMPLES[option_type(key, default)]
        choices = OPTION_CHOICES.get(key)
        if choices:
            text, kind = choices[-1], str
            with pytest.raises(SystemExit):
                parser.parse_args([command, flags[key][0], "not-a-choice"])
        value = getattr(parser.parse_args([command, flags[key][0], text]), key)
        assert type(value) is kind and str(value) == text, key


# JSON value kinds by the option types that accept them: a float option takes
# an int too, and a window list its string form
JSON_KINDS = {
    "bool": (st.booleans(), ()),
    "int": (st.integers(), (int, float)),
    "float": (st.floats(allow_nan=False, allow_infinity=False), (float,)),
    "str": (st.text(max_size=8), (str, list)),
    "list": (st.lists(st.integers(), max_size=3), (list,)),
    "dict": (st.dictionaries(st.text(max_size=3), st.integers(), max_size=2), ()),
}
CONFIG_OPTIONS = [(command, key) for command in ("simulate", "train", "eval") for key in CATALOGS[command]]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_value_of_another_type_or_outside_choices_names_the_option(tmp_path_factory, data):
    command, key = data.draw(st.sampled_from(CONFIG_OPTIONS))
    defaults = CATALOGS[command]
    want = option_type(key, defaults[key])
    wrong = [values for values, takers in JSON_KINDS.values() if want not in takers]
    if defaults[key] is not None:
        wrong.append(st.none())  # only an option that defaults to unset takes null
    if key in OPTION_CHOICES:
        wrong.append(st.text(max_size=16).filter(lambda v: v not in OPTION_CHOICES[key]))
    value = data.draw(st.one_of(wrong))
    path = tmp_path_factory.getbasetemp() / "option_table.json"
    path.write_text(json.dumps({"schema_version": 1, key: value}))
    with pytest.raises(ConfigurationError, match=f": {key} must be"):
        load_config_file(str(path), defaults)


# ---------------------------------------------------------------- simulate

def test_simulate_writes_datasets_and_config(tmp_path):
    out = str(tmp_path / "train.jsonl")
    test_out = str(tmp_path / "test.jsonl")
    rc = main(SIM_BASE + SIM_TEST_EXTRA + ["--out", out, "--test-out", test_out])
    assert rc == 0
    assert len(read_dataset(out)) == 10
    assert len(read_dataset(test_out)) == 4
    sidecar = json.loads(open(out + ".config.json").read())
    assert sidecar["seed"] == 5
    assert sidecar["schema_version"] == 1


def test_simulate_normalizes_train_and_test_together(tmp_path):
    out = str(tmp_path / "train.jsonl")
    test_out = str(tmp_path / "test.jsonl")
    main(SIM_BASE + SIM_TEST_EXTRA + ["--out", out, "--test-out", test_out])
    peak = max(
        float(np.max(np.abs(t.features())))
        for t in read_dataset(out) + read_dataset(test_out)
    )
    assert peak == pytest.approx(1.0)
    scales = {t.scale for t in read_dataset(out) + read_dataset(test_out)}
    assert len(scales) == 1


def test_simulate_is_reproducible(tmp_path):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    main(SIM_BASE + ["--out", a])
    main(SIM_BASE + ["--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_simulate_test_set_uses_different_seed(tmp_path):
    out = str(tmp_path / "train.jsonl")
    test_out = str(tmp_path / "test.jsonl")
    main(SIM_BASE + SIM_TEST_EXTRA + ["--out", out, "--test-out", test_out])
    train_first = read_dataset(out)[0]
    test_first = read_dataset(test_out)[0]
    assert not np.array_equal(train_first.q, test_first.q)


def test_simulate_rejects_test_without_out(tmp_path):
    rc = main(
        ["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
         "--trajectories", "2", "--test-trajectories", "2",
         "--out", str(tmp_path / "t.jsonl")]
    )
    assert rc == 2


@pytest.mark.parametrize("extra", [
    ["--noise", "-0.5"],
    ["--test-trajectories", "-2", "--test-out", "v.jsonl"],
], ids=["negative_noise", "negative_test_trajectories"])
def test_simulate_rejects_negative_counts_and_noise(tmp_path, capsys, monkeypatch, extra):
    """Rejected before any trajectory is integrated."""
    def integrate_must_not_run(*args, **kwargs):
        raise AssertionError("integrate ran on a rejected option")

    monkeypatch.setattr(revode.data, "integrate", integrate_must_not_run)
    out = tmp_path / "t.jsonl"
    extra = [str(tmp_path / v) if v.endswith(".jsonl") else v for v in extra]
    rc = main(["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
               "--trajectories", "2", "--steps", "200", "--out", str(out)] + extra)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists() and not (tmp_path / "v.jsonl").exists()


@pytest.mark.parametrize("flag", ["--steps", "--test-steps", "--subsample"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_simulate_rejects_step_counts_below_one(tmp_path, capsys, monkeypatch, flag, value):
    """A zero count is not taken as unset: it is rejected like a negative
    one, before any trajectory is integrated or any file is written."""
    def integrate_must_not_run(*args, **kwargs):
        raise AssertionError("integrate ran on a rejected option")

    monkeypatch.setattr(revode.data, "integrate", integrate_must_not_run)
    out, test_out = tmp_path / "t.jsonl", tmp_path / "v.jsonl"
    rc = main(["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
               "--trajectories", "2", "--steps", "200", "--subsample", "100",
               "--test-trajectories", "2", "--test-steps", "200",
               "--out", str(out), "--test-out", str(test_out), flag, value])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {flag} must be at least 1"]
    assert os.listdir(tmp_path) == []


def test_simulate_rejects_zero_dim(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    rc = main(["simulate", "--system", "simple_spring", "--agents", "2", "--dim", "0",
               "--trajectories", "2", "--steps", "200", "--subsample", "100",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "dim" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("system, agents", [("triple_pendulum", 3), ("attractor", 1),
                                            ("damped_spring", 5)])
def test_simulate_agents_default_per_system(tmp_path, capsys, system, agents):
    """Without --agents each system gets its own count, which the written
    config records; a count the system cannot take still exits 2."""
    out = tmp_path / "t.jsonl"
    base = ["simulate", "--system", system, "--trajectories", "1", "--steps", "200",
            "--out", str(out)]
    assert main(base) == 0
    with open(f"{out}.config.json") as fh:
        assert json.load(fh)["agents"] == agents
    os.remove(out)
    capsys.readouterr()
    assert main(base + ["--agents", "2"]) == (0 if system == "damped_spring" else 2)
    if system != "damped_spring":
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {system} requires n_agents={agents}, got 2"]
        assert not out.exists()


@pytest.mark.parametrize("system", SYSTEM_KINDS)
def test_simulate_desk_scale_runs_every_system(tmp_path, capsys, system):
    """Under --desk-scale a spring gets the preset's one agent and a system of
    fixed size its own count; a conflicting --agents still exits 2."""
    out = tmp_path / "t.jsonl"
    base = ["simulate", "--desk-scale", "--system", system, "--trajectories", "2",
            "--test-trajectories", "1", "--steps", "200", "--test-steps", "200",
            "--out", str(out), "--test-out", str(tmp_path / "v.jsonl")]
    assert main(base) == 0
    agents = FIXED_AGENTS.get(system, 1)
    with open(f"{out}.config.json") as fh:
        assert json.load(fh)["agents"] == agents
    assert [traj.n_agents for traj in read_dataset(out)] == [agents, agents]
    os.remove(out)
    capsys.readouterr()
    assert main(base + ["--agents", "2"]) == (2 if system in FIXED_AGENTS else 0)
    if system in FIXED_AGENTS:
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {system} requires n_agents={agents}, got 2"]
        assert not out.exists()


@pytest.mark.parametrize("extra", [["--gamma", "-1"], ["--k", "-1"], ["--k", "0"]],
                         ids=["negative_gamma", "negative_k", "zero_k"])
def test_simulate_rejects_non_physical_constants(tmp_path, capsys, extra):
    out = tmp_path / "t.jsonl"
    rc = main(["simulate", "--system", "damped_spring", "--agents", "3", "--dim", "1",
               "--trajectories", "2", "--steps", "200", "--subsample", "100",
               "--out", str(out)] + extra)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {extra[0][2:]} must be")
    assert not out.exists()


def test_simulate_rejects_a_near_singular_pendulum(tmp_path, capsys, monkeypatch):
    """A pendulum spec whose mass matrix could come near singular exits 2
    with one line.  simulate has no mass or length flag, so the boundary
    mass comes in through the spec constructor that simulate calls."""
    monkeypatch.setattr(revode.configs, "SystemSpec",
                        functools.partial(SystemSpec, m=PENDULUM_SINGULARITY_EPS / 68.0))
    out = tmp_path / "t.jsonl"
    rc = main(["simulate", "--system", "triple_pendulum", "--trajectories", "2",
               "--steps", "200", "--subsample", "100", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: m * length**2 must be >= ")
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--dt", "nan"], ["--dt", "inf"], ["--gamma", "inf"], ["--k", "inf"],
    ["--system", "forced_spring", "--k1", "nan"], ["--omega", "inf"],
    ["--system", "damped_spring", "--gamma", "inf"],
], ids=["dt_nan", "dt_inf", "gamma_inf", "k_inf", "forced_k1_nan", "omega_inf",
        "damped_gamma_inf"])
def test_simulate_rejects_non_finite_constants(tmp_path, capsys, extra):
    """A non-finite step or system constant exits 2 with one line before
    anything is integrated or written."""
    out = tmp_path / "t.jsonl"
    rc = main(["simulate", "--trajectories", "2", "--steps", "200", "--subsample", "100",
               "--out", str(out)] + extra)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {extra[-2][2:]} must be ")
    assert not out.exists()


def test_simulate_diverging_trajectory_exits_3_with_one_line(tmp_path):
    """Run as a subprocess, so that any NumPy warning would reach stderr too."""
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(revode.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "revode.cli", "simulate", "--system", "simple_spring",
         "--agents", "1", "--dim", "1", "--k", "1e6", "--dt", "1", "--steps", "200",
         "--subsample", "100", "--trajectories", "2"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_parent},
    )
    assert proc.returncode == 3
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: trajectory 0 ")
    assert not (tmp_path / "train.jsonl").exists()


def as_obs_record_with_dim_7(rec):
    """Turn a 1-D single-agent trajectory record into an observation-set
    record whose params claim dim 7 (14 features per row, not 2).  Datasets
    hold trajectories only, so it is an unknown record type."""
    states = rec.pop("states")
    del rec["times"]
    rec.update(record="observation_set", t0=0.0, dt=0.1, n_rollout_steps=2, agents=[{
        "cond_times": [-0.1, 0.0], "cond_feats": states[:2],
        "pred_idx": [1, 2], "pred_feats": states[2:4],
    }])
    rec["params"]["dim"] = 7


@pytest.mark.parametrize("flag", ["--trajectories", "--test-trajectories"])
def test_simulate_rejects_more_trajectories_than_a_seed_holds(tmp_path, capsys, flag):
    args = ["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
            "--trajectories", "2", "--out", str(tmp_path / "t.jsonl"),
            "--test-out", str(tmp_path / "v.jsonl"), flag, "65537"]
    assert main(args) == 2
    assert "65536 trajectories per seed" in capsys.readouterr().err
    assert not (tmp_path / "t.jsonl").exists()


# ------------------------------------------------------------------- train

def test_train_writes_all_artifacts(tmp_path):
    _, _, outdir = run_pipeline(tmp_path)
    for name in ("checkpoint.json", "losses.csv", "summary.json", "resolved_config.json"):
        assert os.path.exists(os.path.join(outdir, name)), name
    summary = json.loads(open(os.path.join(outdir, "summary.json")).read())
    for key in (
        "epochs_run", "best_epoch", "final_l_pred", "final_l_reverse",
        "final_total", "final_diag_l_reverse", "n_train", "n_val",
        "lr_retried", "test_mse", "test_bucket_mse", "test_max_error_gt_rev",
    ):
        assert key in summary, key
    assert summary["lr_retried"] is False
    assert summary["epochs_run"] <= 3
    # every number is written as a plain float: a NumPy scalar's repr
    # (np.float64(...)) in losses.csv would fail float()
    test_values = [summary["test_mse"], summary["test_mse_hundredths"],
                   summary["test_max_error_gt_rev"], *summary["test_bucket_mse"].values()]
    assert summary["test_bucket_mse"] and all(type(v) is float for v in test_values)
    with open(os.path.join(outdir, "losses.csv")) as fh:
        assert fh.readline().strip() == "epoch,l_pred,l_reverse,total,val_mse"
        rows = list(csv.reader(fh))
    assert len(rows) == summary["epochs_run"]
    for row in rows:
        assert len(row) == 5 and int(row[0]) >= 0
        assert all(math.isfinite(float(v)) or v == "nan" for v in row[1:])


def test_train_resolved_config_reruns_identically(tmp_path):
    """The resolved config alone must reproduce the exact artifacts."""
    train_jl, test_jl, outdir = run_pipeline(tmp_path)
    resolved = json.loads(
        open(os.path.join(outdir, "resolved_config.json")).read()
    )
    cfg_path = str(tmp_path / "rerun.json")
    rerun_dir = str(tmp_path / "rerun")
    resolved["outdir"] = rerun_dir
    with open(cfg_path, "w") as fh:
        json.dump(resolved, fh)
    rc = main(["train", "--config", cfg_path])
    assert rc == 0
    orig = open(os.path.join(outdir, "checkpoint.json"), "rb").read()
    redo = open(os.path.join(rerun_dir, "checkpoint.json"), "rb").read()
    assert orig == redo
    assert (
        open(os.path.join(outdir, "losses.csv"), "rb").read()
        == open(os.path.join(rerun_dir, "losses.csv"), "rb").read()
    )


def test_train_missing_dataset_is_input_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope.jsonl")] + WINDOW_ARGS)
    assert rc == 2


def test_train_ragged_states_is_input_error(tmp_path, capsys):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    lines = open(train_jl).read().splitlines()
    rec = json.loads(lines[0])
    rec["states"][1] = rec["states"][1][:-1]
    lines[0] = json.dumps(rec)
    with open(train_jl, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["train", "--data", train_jl] + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {train_jl}: line 1:")


@pytest.mark.parametrize("mutate", [
    lambda rec: rec.update(params=[1, 2]),
    lambda rec: rec["params"].update(edges=[[0]]),
    lambda rec: rec["params"].update(n_agents="1"),
    lambda rec: rec["params"].update(n_agents=-1),
    lambda rec: rec["params"].update(n_agents=10**12),
    lambda rec: rec.update(scale="big"),
    as_obs_record_with_dim_7,
], ids=["params_list", "short_edge", "n_agents_str", "n_agents_negative",
        "n_agents_huge", "scale_str", "obs_dim_7"])
def test_train_malformed_dataset_is_input_error(tmp_path, capsys, mutate):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    lines = open(train_jl).read().splitlines()
    rec = json.loads(lines[0])
    mutate(rec)
    lines[0] = json.dumps(rec)
    with open(train_jl, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["train", "--data", train_jl] + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {train_jl}: line 1:")


def test_train_non_utf8_dataset_is_input_error(tmp_path, capsys):
    data = tmp_path / "train.jsonl"
    data.write_bytes(b"\xff\xfe\x00\x01\n")
    rc = main(["train", "--data", str(data)] + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {data} is not UTF-8 text")


@pytest.mark.parametrize("flag", ["--data", "--test-data"])
def test_a_dataset_error_names_its_file(tmp_path, capsys, flag):
    train_jl, test_jl = str(tmp_path / "tr.jsonl"), str(tmp_path / "te.jsonl")
    main(SIM_BASE + SIM_TEST_EXTRA + ["--out", train_jl, "--test-out", test_jl])
    bad = train_jl if flag == "--data" else test_jl
    lines = open(bad).read().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "schema_version": 2})
    with open(bad, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["train", "--data", train_jl, "--test-data", test_jl,
               "--outdir", str(tmp_path / "run")] + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {bad}: line 1: schema_version 2 != 1"]
    assert not (tmp_path / "run").exists()


SIM_TINY = ["simulate", "--system", "simple_spring", "--agents", "1", "--dim", "1",
            "--trajectories", "2", "--steps", "200"]


@pytest.mark.parametrize("argv", [
    SIM_TINY + ["--out", "DIR"],
    ["verify", "--suite", "lemma2", "--json", "DIR"],
    ["eval", "--checkpoint", "DIR", "--data", "DIR"],
    ["train", "--data", "DATA", "--outdir", "FILE"] + WINDOW_ARGS + MODEL_ARGS,
    SIM_TINY + ["--out", "NEW", "--test-trajectories", "1", "--test-out", "DIR"],
    ["eval", "--checkpoint", "FILE", "--out", "DIR"],
    SIM_TINY + ["--out", "MISSING"],
    ["verify", "--suite", "lemma2", "--json", "MISSING"],
    ["eval", "--checkpoint", "FILE", "--out", "MISSING"],
    ["train", "--data", "DATA", "--outdir", "FILE/run"] + WINDOW_ARGS + MODEL_ARGS,
], ids=["simulate_out", "verify_json", "eval_checkpoint", "train_outdir_file",
        "simulate_test_out", "eval_out", "simulate_out_missing_dir", "verify_json_missing_dir",
        "eval_out_missing_dir", "train_outdir_under_file"])
def test_a_directory_where_a_file_goes_is_input_error(tmp_path, capsys, monkeypatch, argv):
    """A directory given as a file, a file given as the run directory, or a file
    whose directory does not exist: exit 2 with one line naming it, before any
    simulation, suite, training or evaluation starts, and nothing is written."""
    def work_must_not_run(*args, **kwargs):
        raise AssertionError("the work started before its output paths were checked")

    data = tmp_path / "data.jsonl"
    assert main(SIM_BASE + ["--out", str(data)]) == 0
    for module, name in ((revode.configs, "build_trajectories"), (revode.cli, "run_suite"),
                         (revode.cli, "train"), (revode.cli, "evaluate")):
        monkeypatch.setattr(module, name, work_must_not_run)
    (tmp_path / "afile").write_text("not a dataset\n")
    paths = {"DIR": tmp_path, "FILE": tmp_path / "afile", "FILE/run": tmp_path / "afile" / "run",
             "NEW": tmp_path / "t.jsonl", "MISSING": tmp_path / "nodir" / "out.json", "DATA": data}
    before = sorted(tmp_path.iterdir())
    rc = main([str(paths.get(arg, arg)) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]
    assert sorted(tmp_path.iterdir()) == before


def test_simulate_desk_scale_writes_the_data_the_desk_grid_draws(tmp_path):
    """`simulate --desk-scale`, read back and drawn with the desk train options,
    gives the acceptance grid's observation sets bit for bit; `train
    --desk-scale` on it builds the benchmarks' `desk_model_config()`."""
    train_jl, test_jl = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["simulate", "--desk-scale", "--trajectories", "4", "--test-trajectories", "2",
                 "--out", str(train_jl), "--test-out", str(test_jl)]) == 0
    from_cli = (draw_observation_sets(read_dataset(train_jl), DESK_TRAIN_OPTIONS),
                draw_observation_sets(read_dataset(test_jl), DESK_TRAIN_OPTIONS, "test_"))
    grid = desk_observation_sets(trajectories=4, test_trajectories=2)
    assert [obs_bits(sets) for sets in from_cli] == [obs_bits(sets) for sets in grid]

    model = train_settings(DESK_TRAIN_OPTIONS, from_cli[0][0].d).model
    assert model == desk_model_config()
    run = tmp_path / "run"
    assert main(["train", "--desk-scale", "--data", str(train_jl), "--epochs", "1",
                 "--outdir", str(run)]) == 0
    assert load_checkpoint(str(run / "checkpoint.json"))[1] == model


def obs_bits(sets) -> list:
    """Every field of each observation set, arrays as dtype, shape and bytes."""
    out = []
    for obs in sets:
        for field in dataclasses.fields(obs):
            value = getattr(obs, field.name)
            if field.name == "graph":
                value = value.adjacency
            for part in value if isinstance(value, list) else [value]:
                part = np.asarray(part)
                out.append((field.name, part.dtype.str, part.shape, part.tobytes()))
    return out


def test_train_latent_divergence_retries_then_exits_4(tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise RolloutDivergedError("forward rollout diverged at step 1", step=1)

    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    monkeypatch.setattr(revode.training, "rollout_forward", diverge)
    capsys.readouterr()
    rc = main(
        ["train", "--data", train_jl, "--epochs", "1", "--lr", "0.004",
         "--outdir", str(tmp_path / "run")] + WINDOW_ARGS + MODEL_ARGS
    )
    assert rc == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0] == "training diverged at lr=0.004; retrying once at lr=0.002"
    assert err[1:] == ["error: forward rollout diverged at step 1"]


def test_train_split_that_leaves_no_training_samples_exits_2(tmp_path, capsys):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--trajectories", "5", "--out", train_jl])
    capsys.readouterr()
    outdir = tmp_path / "run"
    rc = main(["train", "--data", train_jl, "--val-fraction", "0.95", "--outdir", str(outdir)]
              + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: val_fraction 0.95 leaves no training samples: all 5 samples go to validation"]
    assert not outdir.exists()


def test_train_test_set_divergence_exits_3(tmp_path, capsys, monkeypatch):
    """A latent rollout that leaves the finite range on the test set, after
    training, is an integration failure, not a training divergence."""
    def diverge(*args, **kwargs):
        raise RolloutDivergedError("forward rollout diverged at step 2", step=2)

    train_jl, test_jl = str(tmp_path / "train.jsonl"), str(tmp_path / "test.jsonl")
    main(SIM_BASE + SIM_TEST_EXTRA + ["--out", train_jl, "--test-out", test_jl])
    monkeypatch.setattr(revode.cli, "evaluate", diverge)
    capsys.readouterr()
    outdir = tmp_path / "run"
    rc = main(["train", "--data", train_jl, "--test-data", test_jl, "--epochs", "1",
               "--outdir", str(outdir)] + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 3
    assert capsys.readouterr().err.strip().splitlines() == ["error: forward rollout diverged at step 2"]
    written = ("checkpoint.json", "losses.csv", "summary.json", "resolved_config.json")
    assert not any((outdir / name).exists() for name in written)


@pytest.mark.parametrize("extra", [
    ["--batch-size", "0"], ["--epochs", "0"], ["--lr", "-1"],
    ["--alpha", "nan"], ["--alpha", "inf"], ["--lr", "inf"], ["--weight-decay", "nan"],
    ["--weight-decay", "-1"],
], ids=["batch_size_0", "epochs_0", "lr_negative", "alpha_nan", "alpha_inf", "lr_inf",
        "weight_decay_nan", "weight_decay_negative"])
def test_train_rejects_bad_settings(tmp_path, capsys, extra):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    capsys.readouterr()
    rc = main(["train", "--data", train_jl, "--outdir", str(tmp_path / "run")]
              + WINDOW_ARGS + MODEL_ARGS + extra)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and extra[0][2:].replace("-", "_") in err[0]
    assert not (tmp_path / "run").exists()


def test_train_rejects_malformed_window(tmp_path):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    rc = main(["train", "--data", train_jl, "--window", "0,30"] + MODEL_ARGS)
    assert rc == 2


def test_train_rejects_test_set_of_another_width_before_training(tmp_path, capsys, monkeypatch):
    """A damped-spring train set (4 features) and a pendulum test set (2):
    exit 5 before train() starts, and nothing is written."""
    train_jl, test_jl = str(tmp_path / "train.jsonl"), str(tmp_path / "test.jsonl")
    assert main(["simulate", "--system", "damped_spring", "--agents", "2", "--dim", "2",
                 "--trajectories", "6", "--steps", "4000", "--out", train_jl]) == 0
    assert main(["simulate", "--system", "triple_pendulum", "--agents", "3",
                 "--trajectories", "2", "--steps", "3000", "--out", test_jl]) == 0

    def train_must_not_run(*args, **kwargs):
        raise AssertionError("training started on a test set it cannot be evaluated on")

    monkeypatch.setattr(revode.cli, "train", train_must_not_run)
    capsys.readouterr()
    outdir = tmp_path / "run"
    rc = main(["train", "--data", train_jl, "--test-data", test_jl, "--outdir", str(outdir)]
              + WINDOW_ARGS + MODEL_ARGS)
    assert rc == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: model takes 4 features, {test_jl} has 2"]
    assert not outdir.exists()


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_commands() -> dict:
    """The `revode` commands of the README's CLI block, by subcommand."""
    text = open(README).read().replace("\\\n", " ")
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("revode ")]
    return {args[0]: args for args in commands}


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    """simulate, train and eval exactly as the README writes them, with only
    the epochs cut: the default test set spans the default test window."""
    commands = readme_commands()
    monkeypatch.chdir(tmp_path)
    assert main(commands["simulate"]) == 0
    assert main(commands["train"] + ["--epochs", "1"]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert np.isfinite(summary["test_mse"])
    capsys.readouterr()
    assert main(commands["eval"]) == 0
    assert json.loads((tmp_path / "metrics.json").read_text())["n_samples"] == 50


# -------------------------------------------------------------------- eval

def test_eval_prints_and_writes_metrics(tmp_path, capsys):
    _, test_jl, outdir = run_pipeline(tmp_path)
    metrics_path = str(tmp_path / "metrics.json")
    capsys.readouterr()  # drain the pipeline chatter
    rc = main(
        ["eval", "--checkpoint", os.path.join(outdir, "checkpoint.json"),
         "--data", test_jl, "--window", "0,10,30",
         "--n-obs-min", "6", "--n-obs-max", "10",
         "--out", metrics_path]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    stored = json.loads(open(metrics_path).read())
    assert printed == stored
    assert stored["n_samples"] == 4
    assert stored["mse"] >= 0.0
    assert stored["mse_hundredths"] == pytest.approx(stored["mse"] * 100.0)
    assert os.path.exists(metrics_path + ".config.json")


def test_eval_feature_width_mismatch_is_artifact_error(tmp_path):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    ckpt = str(tmp_path / "wide.json")
    wide = ModelConfig(d_obs=4, d_enc=4, d_aug=4, d_model=8,
                       ode_hidden=8, dec_hidden=8)
    save_checkpoint(ckpt, init_params(wide, 0), wide)
    rc = main(
        ["eval", "--checkpoint", ckpt, "--data", train_jl,
         "--window", "0,10,25", "--n-obs-min", "4", "--n-obs-max", "8"]
    )
    assert rc == 5


@pytest.mark.parametrize("mutate", [
    lambda doc: doc.pop("params"),
    lambda doc: doc.pop("model"),
    lambda doc: doc.update(model=[1, 2]),
    lambda doc: doc.update(params=[]),
    lambda doc: doc["params"]["dec.b2"].update(data="not base64!"),
    lambda doc: doc["params"]["dec.b2"].update(data=7),
    lambda doc: doc["params"]["dec.b2"].update(shape="2"),
    lambda doc: doc["params"]["dec.b2"].pop("data"),
    lambda doc: doc["model"].update(spatial_round=True),
    lambda doc: doc["model"].update(te_base=100.0),
], ids=["no_params", "no_model", "model_list", "params_list", "bad_base64",
        "data_int", "shape_str", "no_data", "spatial_round_true", "te_base_100"])
def test_eval_malformed_checkpoint_is_artifact_error(tmp_path, capsys, mutate):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    ckpt = str(tmp_path / "ckpt.json")
    model = ModelConfig(d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8)
    save_checkpoint(ckpt, init_params(model, 0), model)
    doc = json.loads(open(ckpt).read())
    mutate(doc)
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    rc = main(
        ["eval", "--checkpoint", ckpt, "--data", train_jl,
         "--window", "0,10,25", "--n-obs-min", "4", "--n-obs-max", "8"]
    )
    assert rc == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoint")


def test_eval_latent_divergence_exits_3(tmp_path, capsys):
    """A checkpoint whose field drives the latent rollout out of the finite
    range exits 3, the integration-failure code, with one `error:` line."""
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    ckpt = str(tmp_path / "ckpt.json")
    model = ModelConfig(d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8,
                        scheme="euler")
    params = init_params(model, 0)
    params["ode.upd2.b"][:] = 1e308
    save_checkpoint(ckpt, params, model)
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", ckpt, "--data", train_jl,
               "--window", "0,10,25", "--n-obs-min", "4", "--n-obs-max", "8"])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: forward rollout diverged at step")


def test_eval_diverging_desk_checkpoint_prints_one_line(tmp_path):
    """Run as a subprocess, so that a NumPy overflow warning from the latent
    rollout would reach stderr too."""
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    ckpt = str(tmp_path / "ckpt.json")
    params = init_params(desk_model_config(), 0)
    params["ode.upd2.b"][:] = 1e308
    save_checkpoint(ckpt, params, desk_model_config())
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(revode.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "revode.cli", "eval", "--checkpoint", ckpt, "--data", train_jl,
         "--window", "0,10,25", "--n-obs-min", "4", "--n-obs-max", "8"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": package_parent},
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == ["error: forward rollout diverged at step 7"]


def test_eval_missing_checkpoint(tmp_path):
    train_jl = str(tmp_path / "train.jsonl")
    main(SIM_BASE + ["--out", train_jl])
    rc = main(["eval", "--checkpoint", str(tmp_path / "gone.json"),
               "--data", train_jl])
    assert rc == 2  # missing input files are configuration errors


# ------------------------------------------------------------------ verify

def test_verify_suite_prints_assertion_lines(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["verify", "--suite", "lemma2", "--json", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "[PASS] lemma2." in stdout
    assert stdout.strip().endswith("verification: PASS")
    doc = json.loads(open(out).read())
    assert doc["results"][0]["suite"] == "lemma2"


# ------------------------------------------------------------ config files

def test_config_file_unknown_key_is_input_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema_version": 1, "mystery_knob": 3}))
    rc = main(["verify", "--suite", "lemma2"])  # sanity: verify itself works
    assert rc == 0
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2


def test_config_file_wrong_schema_version(tmp_path):
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({"schema_version": 0, "epochs": 2}))
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize("command, field", [
    ("simulate", {"dim": "2"}),
    ("simulate", {"trajectories": 2.5}),
    ("simulate", {"agents": True}),
    ("simulate", {"dt": "0.01"}),
    ("simulate", {"out": None}),
    ("train", {"epochs": "3"}),
    ("train", {"alpha": [0.5]}),
    ("train", {"test_data": 3}),
    ("train", {"window": {"lo": 0}}),
    ("train", {"window": [0, 10.5, 25]}),
    ("train", {"window": "0,ten,25"}),
    ("eval", {"n_obs_min": 4.0}),
    ("simulate", {"system": "spring"}),
    ("train", {"loss_variant": "both"}),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_config_file_value_of_wrong_type_is_input_error(tmp_path, capsys, command, field):
    """A config value of the wrong type, or outside its option's choices, exits
    2 with one `error:` line naming the option and the value, never a traceback
    from deep inside the command."""
    data = str(tmp_path / "train.jsonl")
    assert main(SIM_BASE + ["--out", data]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    inputs = {"simulate": {}, "train": {"data": data}, "eval": {"data": data}}[command]
    cfg.write_text(json.dumps({"schema_version": 1, **inputs, **field}))
    rc = main([command, "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    (name, value), = field.items()
    assert name in err[0] and repr(value) in err[0]


def test_config_file_takes_null_for_unset_options_and_ints_for_floats(tmp_path):
    out = str(tmp_path / "train.jsonl")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "system": "damped_spring", "agents": 2, "dim": 1,
        "trajectories": 2, "steps": 200, "subsample": 100, "dt": None,
        "k": 1, "gamma": 2, "edge_prob": 1, "test_out": None, "out": out,
    }))
    assert main(["simulate", "--config", str(cfg)]) == 0
    trajs = read_dataset(out)
    assert len(trajs) == 2 and trajs[0].system["k"] == 1 and trajs[0].system["gamma"] == 2


# -------------------------------------------------------------- exit codes

README_EXIT_MEANINGS = {
    2: "bad configuration or input", 3: "integration failure",
    4: "training diverged", 5: "artifact mismatch",
}
EXIT_CODE_OF = {
    errors.ConfigurationError: 2, errors.DatasetFormatError: 2,
    errors.UnsupportedSystemError: 2, errors.EncodingError: 2,
    errors.IntegrationError: 3, errors.RolloutDivergedError: 3,
    errors.NonFiniteGradientError: 4, errors.TrainingDivergedError: 4,
    errors.ShapeError: 5, errors.ArtifactMismatchError: 5,
}


def readme_exit_codes() -> dict:
    """code -> meaning, from the README's exit-code table."""
    table = open(README).read().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    return {int(code): meaning for code, meaning in re.findall(r"^\| (\d) +\| (.+?) *\|$", table, re.M)}


def test_every_error_class_exits_with_its_readme_code():
    """Each RevodeError subclass carries the exit code the README's table gives
    its kind of failure, and every failure code of the table has a class."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = set(subclasses(RevodeError))
    assert classes == set(EXIT_CODE_OF)
    table = readme_exit_codes()
    assert sorted(table) == [0, 1, 2, 3, 4, 5]
    for cls in classes:
        assert cls.exit_code == EXIT_CODE_OF[cls], cls.__name__
        assert README_EXIT_MEANINGS[cls.exit_code] in table[cls.exit_code], cls.__name__
    assert set(EXIT_CODE_OF.values()) == set(README_EXIT_MEANINGS)
