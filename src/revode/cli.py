"""Command-line surface: simulate, train, eval, verify.

Exit codes: 0 success, 1 verification assertion failed, 2 bad
configuration or input, 3 simulation/integration failure, 4 training
divergence (after one retry at half the learning rate), 5 artifact
mismatch (checkpoint incompatible with requested shapes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .configs import (
    DESK_DATA_SEED_TEST,
    DESK_TEST_WINDOW,
    DESK_DATA_SEED_TRAIN,
    DESK_TEST_RAW_STEPS,
    DESK_TEST_TRAJECTORIES,
    DESK_TRAIN_RAW_STEPS,
    DESK_TRAIN_TRAJECTORIES,
    EVAL_DEFAULTS,
    OPTION_CHOICES,
    SIMULATE_DEFAULTS,
    SPRING_AGENTS,
    TRAIN_DEFAULTS,
    VERIFY_DEFAULTS,
    load_config_file,
    option_type,
    resolve_options,
    write_resolved_config,
)
from .data import (
    SIM_DEFAULTS,
    TRAJECTORIES_PER_SEED,
    build_observation_sets,
    build_trajectories,
    normalize_trajectories,
    read_dataset,
    write_dataset,
)
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    DatasetFormatError,
    IntegrationError,
    RevodeError,
    ShapeError,
    TrainingDivergedError,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .systems import FIXED_AGENTS, SystemSpec
from .training import TrainSettings, evaluate, train, write_loss_report
from .verify import run_suite

_EXIT_BY_ERROR = (
    (TrainingDivergedError, 4),
    (ArtifactMismatchError, 5),
    (ShapeError, 5),
    (IntegrationError, 3),
    (DatasetFormatError, 2),
    (ConfigurationError, 2),
)


def _exit_code_for(exc: RevodeError) -> int:
    for cls, code in _EXIT_BY_ERROR:
        if isinstance(exc, cls):
            return code
    return 2


def _options(args) -> dict:
    """The command's resolved options: its flags (each option has one), then its
    --config file, then its catalog defaults with the desk preset laid over
    them under --desk-scale."""
    _, defaults, desk, _ = _COMMANDS[args.command]
    if getattr(args, "desk_scale", False):
        defaults = {**defaults, **desk}
    config = load_config_file(args.config, defaults) if getattr(args, "config", None) else None
    return resolve_options(defaults, config, {key: getattr(args, key) for key in defaults})


def _json_dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- simulate

_DESK_SIMULATE = {
    "system": "simple_spring",
    "dim": 1,
    "trajectories": DESK_TRAIN_TRAJECTORIES,
    "test_trajectories": DESK_TEST_TRAJECTORIES,
    "steps": DESK_TRAIN_RAW_STEPS,
    "test_steps": DESK_TEST_RAW_STEPS,
    "seed": DESK_DATA_SEED_TRAIN,
    "out": "train.jsonl",
    "test_out": "test.jsonl",
}


def cmd_simulate(args) -> int:
    opt = _options(args)
    if opt["trajectories"] < 1:
        raise ConfigurationError("--trajectories must be at least 1")
    if opt["test_trajectories"] < 0:
        raise ConfigurationError("--test-trajectories must be at least 0")
    if max(opt["trajectories"], opt["test_trajectories"]) > TRAJECTORIES_PER_SEED:
        raise ConfigurationError(
            f"at most {TRAJECTORIES_PER_SEED} trajectories per seed (set and test set each)"
        )
    if opt["test_trajectories"] and not opt["test_out"]:
        raise ConfigurationError("--test-trajectories requires --test-out")

    if opt["agents"] is None:  # resolved here, so the written config names the count
        opt["agents"] = FIXED_AGENTS.get(opt["system"], 1 if args.desk_scale else SPRING_AGENTS)
    spec_kwargs = dict(kind=opt["system"], n_agents=opt["agents"], dim=opt["dim"])
    for name in ("k", "gamma", "k1", "omega", "damped_form"):
        if opt[name] is not None:
            spec_kwargs[name] = opt[name]
    spec = SystemSpec(**spec_kwargs)

    subsample = opt["subsample"] or SIM_DEFAULTS[spec.kind][2]
    steps = 60 * subsample if opt["steps"] is None else opt["steps"]
    common = dict(
        dt=opt["dt"], subsample_every=opt["subsample"], scheme=opt["scheme"],
        edge_prob=opt["edge_prob"],
    )
    groups = [build_trajectories(spec, opt["seed"], range(opt["trajectories"]), steps,
                                 noise_sigma=opt["noise"], **common)]
    if opt["test_trajectories"]:
        test_seed = (
            DESK_DATA_SEED_TEST
            if args.desk_scale and opt["seed"] == DESK_DATA_SEED_TRAIN
            else opt["seed"] + 1
        )
        # by default the test set spans the default test window of train and eval
        test_steps = opt["test_steps"] or DESK_TEST_WINDOW[2] * subsample
        # held-out trajectories are clean: observation noise is a training
        # corruption, not part of the target signal
        groups.append(build_trajectories(
            spec, test_seed, range(opt["test_trajectories"]), test_steps, **common))

    groups, scale = normalize_trajectories(groups)
    n = write_dataset(opt["out"], groups[0])
    print(f"wrote {n} trajectories to {opt['out']} (scale {scale:.6g})")
    if opt["test_trajectories"]:
        n_test = write_dataset(opt["test_out"], groups[1])
        print(f"wrote {n_test} trajectories to {opt['test_out']}")
    write_resolved_config(str(opt["out"]) + ".config.json", opt)
    return 0


# ------------------------------------------------------------------- train

# The generic default keeps the classical latent solver; the desk preset
# swaps in the first-order one so the reverse-rollout penalty carries a
# usable signal at desk step sizes (see configs.desk_model_config).
_DESK_TRAIN = {"scheme": "euler"}


def _parse_window(value):
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        parts = tuple(v if type(v) is int else int(str(v)) for v in parts)
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise ConfigurationError(f"window must be lo,split,hi integers; got {value!r}")
    return parts


def _load_trajectories(path) -> list:
    trajs = read_dataset(path)
    if not trajs:
        raise DatasetFormatError(f"{path} contains no trajectory records")
    return trajs


def _observation_sets(opt, prefix: str = "") -> list:
    """The observation sets of the trajectory set `opt[prefix + "data"]`, drawn
    with the `prefix` window options."""
    return build_observation_sets(
        _load_trajectories(opt[prefix + "data"]), window=_parse_window(opt[prefix + "window"]),
        n_obs_min=opt[prefix + "n_obs_min"], n_obs_max=opt[prefix + "n_obs_max"],
        obs_seed=opt[prefix + "obs_seed"],
    )


def _held_out_metrics(opt, prefix: str, model: ModelConfig):
    """Load the `prefix` observation sets and check their width against `model`
    (exit 5); returns the function of trained parameters that evaluates them."""
    obs = _observation_sets(opt, prefix)
    if obs[0].d != model.d_obs:
        path = opt[prefix + "data"]
        raise ArtifactMismatchError(f"model takes {model.d_obs} features, {path} has {obs[0].d}")

    def metrics(params) -> dict:
        report = evaluate(params, obs, model)
        return {
            "mse": report.mse,
            "mse_hundredths": report.mse * 100.0,
            "bucket_mse": {str(k): v for k, v in report.bucket_mse.items()},
            "max_error_gt_rev": report.max_error_gt_rev,
            "n_targets": report.n_targets,
            "n_samples": len(obs),
        }

    return metrics


def cmd_train(args) -> int:
    opt = _options(args)

    obs_train = _observation_sets(opt)
    model = ModelConfig(
        d_obs=obs_train[0].d, d_enc=opt["d_enc"], d_aug=opt["d_aug"],
        d_model=opt["d_model"], ode_hidden=opt["ode_hidden"],
        dec_hidden=opt["dec_hidden"], scheme=opt["scheme"],
    )
    settings = TrainSettings(
        model=model, loss_variant=opt["loss_variant"], alpha=opt["alpha"],
        lr=opt["lr"], epochs=opt["epochs"], batch_size=opt["batch_size"],
        patience=opt["patience"], val_fraction=opt["val_fraction"],
        weight_decay=opt["weight_decay"], seed=opt["seed"],
    )
    # a test set that cannot be evaluated fails here, before any training
    test_metrics = _held_out_metrics(opt, "test_", model) if opt["test_data"] else None

    try:
        result = train(obs_train, settings)
        retried = False
    except TrainingDivergedError:
        retried = True
        print(
            f"training diverged at lr={settings.lr}; retrying once at "
            f"lr={settings.lr / 2}", file=sys.stderr,
        )
        settings.lr /= 2
        result = train(obs_train, settings)  # a second divergence propagates

    os.makedirs(opt["outdir"], exist_ok=True)
    ckpt_path = os.path.join(opt["outdir"], "checkpoint.json")
    save_checkpoint(
        ckpt_path, result.params, model,
        extra={"scale": obs_train[0].scale, "loss_variant": opt["loss_variant"],
               "alpha": opt["alpha"], "seed": opt["seed"]},
    )
    write_loss_report(os.path.join(opt["outdir"], "losses.csv"), result.history)

    summary = {
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "final_l_pred": result.history[-1]["l_pred"],
        "final_l_reverse": result.history[-1]["l_reverse"],
        "final_total": result.history[-1]["total"],
        "final_diag_l_reverse": result.final_diag_l_reverse,
        "n_train": result.n_train,
        "n_val": result.n_val,
        "lr_retried": retried,
    }
    if test_metrics is not None:
        metrics = test_metrics(result.params)
        for key in ("mse", "mse_hundredths", "bucket_mse", "max_error_gt_rev"):
            summary["test_" + key] = metrics[key]
    _json_dump(os.path.join(opt["outdir"], "summary.json"), summary)
    opt["window"] = list(_parse_window(opt["window"]))
    opt["test_window"] = list(_parse_window(opt["test_window"]))
    write_resolved_config(os.path.join(opt["outdir"], "resolved_config.json"), opt)
    print(
        f"trained {opt['loss_variant']} (alpha={opt['alpha']}) for "
        f"{summary['epochs_run']} epochs; outputs in {opt['outdir']}"
    )
    return 0


# -------------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    opt = _options(args)
    params, model, _ = load_checkpoint(opt["checkpoint"])
    metrics = _held_out_metrics(opt, "", model)(params)
    if opt["out"]:
        _json_dump(opt["out"], metrics)
        write_resolved_config(str(opt["out"]) + ".config.json", opt)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    opt = _options(args)
    results = run_suite(opt["suite"])
    all_passed = True
    for result in results:
        for assertion in result.assertions:
            status = "PASS" if assertion.passed else "FAIL"
            print(
                f"[{status}] {result.suite}.{assertion.name}: "
                f"{assertion.value:.6g}  ({assertion.detail})"
            )
        all_passed &= result.passed
    if opt["json"]:
        _json_dump(opt["json"], {"results": [r.to_jsonable() for r in results]})
    print("verification:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


# -------------------------------------------------------------------- main

# command -> (help, option catalog, desk preset or None without --desk-scale,
# handler); every catalog option is a flag, and all but verify take --config
_COMMANDS = {
    "simulate": ("generate trajectory datasets", SIMULATE_DEFAULTS, _DESK_SIMULATE, cmd_simulate),
    "train": ("fit a model on a trajectory dataset", TRAIN_DEFAULTS, _DESK_TRAIN, cmd_train),
    "eval": ("evaluate a checkpoint on a dataset", EVAL_DEFAULTS, None, cmd_eval),
    "verify": ("run the theory verification suites", VERIFY_DEFAULTS, None, cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revode",
        description="Reversible-dynamics laboratory: simulators, graph ODE "
        "training with reversal regularization, and theory checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, defaults, desk, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "verify":
            p.add_argument("--config", default=None)
        if desk is not None:
            p.add_argument("--desk-scale", action="store_true")
        for key, default in defaults.items():
            kind = option_type(key, default)
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           type=kind if kind in (int, float) else None,
                           choices=OPTION_CHOICES.get(key))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][3](args)
    except RevodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:  # a missing file, a directory where a file goes, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
