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
    DESK_SIMULATE,
    DESK_TRAIN,
    EVAL_DEFAULTS,
    OPTION_CHOICES,
    SIMULATE_DEFAULTS,
    TRAIN_DEFAULTS,
    VERIFY_DEFAULTS,
    draw_observation_sets,
    load_config_file,
    option_type,
    parse_window,
    resolve_options,
    simulate_groups,
    train_settings,
    write_json,
    write_resolved_config,
)
from .data import read_dataset, write_dataset
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    DatasetFormatError,
    RevodeError,
    TrainingDivergedError,
)
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .training import evaluate, train, write_loss_report
from .verify import run_suite


def _options(args) -> dict:
    """The command's resolved options: its flags (each option has one), then its
    --config file, then its catalog defaults with the desk preset laid over
    them under --desk-scale."""
    _, defaults, desk, _ = _COMMANDS[args.command]
    if getattr(args, "desk_scale", False):
        defaults = {**defaults, **desk}
    config = load_config_file(args.config, defaults) if getattr(args, "config", None) else None
    return resolve_options(defaults, config, {key: getattr(args, key) for key in defaults})


def _check_outputs(paths, make_dirs: bool = False):
    """Raise ConfigurationError, creating nothing, unless each file in `paths`
    (None: none written) can be written: it is no directory, and its directory
    exists or, with `make_dirs`, can be made under its nearest existing ancestor."""
    for path in filter(None, paths):
        parent = os.path.dirname(path)
        while make_dirs and parent and not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if os.path.isdir(path):
            raise ConfigurationError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent or "."):
            raise ConfigurationError(f"cannot write {path}: {parent} is not a directory")


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    opt = _options(args)
    config_path = f"{opt['out']}.config.json"
    test_out = opt["test_out"] if opt["test_trajectories"] > 0 else None
    _check_outputs([opt["out"], config_path, test_out])
    groups, scale = simulate_groups(opt, args.desk_scale)
    n = write_dataset(opt["out"], groups[0])
    print(f"wrote {n} trajectories to {opt['out']} (scale {scale:.6g})")
    if opt["test_trajectories"]:
        n_test = write_dataset(opt["test_out"], groups[1])
        print(f"wrote {n_test} trajectories to {opt['test_out']}")
    write_resolved_config(config_path, opt)
    return 0


# ------------------------------------------------------------------- train

def _load_trajectories(path) -> list:
    trajs = read_dataset(path)
    if not trajs:
        raise DatasetFormatError(f"{path} contains no trajectory records")
    return trajs


def _held_out_metrics(opt, prefix: str, model: ModelConfig):
    """Load the `prefix` observation sets and check their width against `model`
    (exit 5); returns the function of trained parameters that evaluates them."""
    obs = draw_observation_sets(_load_trajectories(opt[prefix + "data"]), opt, prefix)
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
    ckpt_path, losses_path, summary_path, config_path = paths = [
        os.path.join(opt["outdir"], name)
        for name in ("checkpoint.json", "losses.csv", "summary.json", "resolved_config.json")
    ]
    _check_outputs(paths, make_dirs=True)

    obs_train = draw_observation_sets(_load_trajectories(opt["data"]), opt)
    settings = train_settings(opt, obs_train[0].d)
    # a test set that cannot be evaluated fails here, before any training
    test_metrics = _held_out_metrics(opt, "test_", settings.model) if opt["test_data"] else None

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
    save_checkpoint(
        ckpt_path, result.params, settings.model,
        extra={"scale": obs_train[0].scale, "loss_variant": opt["loss_variant"],
               "alpha": opt["alpha"], "seed": opt["seed"]},
    )
    write_loss_report(losses_path, result.history)

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
    write_json(summary_path, summary)
    opt["window"] = list(parse_window(opt["window"]))
    opt["test_window"] = list(parse_window(opt["test_window"]))
    write_resolved_config(config_path, opt)
    print(
        f"trained {opt['loss_variant']} (alpha={opt['alpha']}) for "
        f"{summary['epochs_run']} epochs; outputs in {opt['outdir']}"
    )
    return 0


# -------------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    opt = _options(args)
    config_path = opt["out"] and f"{opt['out']}.config.json"
    _check_outputs([opt["out"], config_path])
    params, model, _ = load_checkpoint(opt["checkpoint"])
    metrics = _held_out_metrics(opt, "", model)(params)
    if opt["out"]:
        write_json(opt["out"], metrics)
        write_resolved_config(config_path, opt)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------ verify

def cmd_verify(args) -> int:
    opt = _options(args)
    _check_outputs([opt["json"]])
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
        write_json(opt["json"], {"results": [r.to_jsonable() for r in results]})
    print("verification:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


# -------------------------------------------------------------------- main

# command -> (help, option catalog, desk preset or None without --desk-scale,
# handler); every catalog option is a flag, and all but verify take --config
_COMMANDS = {
    "simulate": ("generate trajectory datasets", SIMULATE_DEFAULTS, DESK_SIMULATE, cmd_simulate),
    "train": ("fit a model on a trajectory dataset", TRAIN_DEFAULTS, DESK_TRAIN, cmd_train),
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
        return exc.exit_code
    except OSError as exc:  # a missing file, a directory where a file goes, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
