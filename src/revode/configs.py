"""The option table, run-configuration plumbing (JSON configs and
resolved-config copies), and the desk-scale preset the small-budget
experiments standardize on.

Every CLI flag and config key comes from the option table: each command's
`*_DEFAULTS` catalog names its options and defaults, and `option_type` and
`OPTION_CHOICES` give each option's type and allowed values.

Every command accepts an optional JSON config whose keys must be a subset
of that command's known options (unknown keys are rejected, not ignored)
and whose values must have those options' types, plus a mandatory
schema_version.  Precedence: explicit CLI flag, then config file, then
built-in default.  Each run writes the fully resolved options next to its
outputs so it can be reproduced from that file alone.
"""

from __future__ import annotations

import json

from .data import build_observation_sets, build_trajectories, normalize_trajectories
from .errors import ConfigurationError
from .integrators import SCHEMES
from .model import ModelConfig
from .systems import DAMPED_FORMS, SYSTEM_KINDS, SystemSpec
from .training import LOSS_VARIANTS, TrainSettings
from .verify import SUITES

CONFIG_SCHEMA_VERSION = 1


# An option has its default's type or, where the default is None (and a config
# may leave it null), the type below, str where unlisted; one in OPTION_CHOICES
# takes only those values.  In a config, a float option also takes an int, and a
# window list its "lo,split,hi" string form.
_UNSET_OPTION_TYPES = {"agents": int, "dt": float, "k": float, "gamma": float, "k1": float,
                       "omega": float, "steps": int, "test_steps": int, "subsample": int}
_ACCEPTED_TYPES = {float: (int, float), list: (list, str)}
OPTION_CHOICES = {"system": SYSTEM_KINDS, "scheme": SCHEMES, "damped_form": DAMPED_FORMS,
                  "loss_variant": LOSS_VARIANTS, "suite": SUITES + ("all",)}


def option_type(key: str, default) -> type:
    return _UNSET_OPTION_TYPES.get(key, str) if default is None else type(default)


def load_config_file(path: str, defaults: dict) -> dict:
    """Read a JSON config, enforcing schema_version and each option's name, type and choices."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    version = raw.pop("schema_version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigurationError(
            f"config {path}: schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigurationError(
            f"config {path}: unknown fields {sorted(unknown)}; "
            f"allowed: {sorted(defaults)}"
        )
    for key, value in raw.items():
        default = defaults[key]
        if value is None and default is None:
            continue  # an unset option left unset
        want = option_type(key, default)
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED_TYPES.get(want, want)):
            raise ConfigurationError(f"config {path}: {key} must be {want.__name__}, got {value!r}")
        choices = OPTION_CHOICES.get(key)
        if choices and value not in choices:
            raise ConfigurationError(f"config {path}: {key} must be one of {list(choices)}, got {value!r}")
    return raw


def resolve_options(defaults: dict, config: dict | None, cli: dict) -> dict:
    """Three-layer merge; `cli` entries that are None mean 'flag not given'."""
    out = dict(defaults)
    if config:
        out.update(config)
    for key, value in cli.items():
        if value is not None:
            out[key] = value
    return out


def write_resolved_config(path, options: dict):
    doc = {"schema_version": CONFIG_SCHEMA_VERSION, **options}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------ desk preset
#
# A deliberately small but complete experiment: one-dimensional single-agent
# oscillator, two hundred training trajectories with short windows, fifty
# longer test trajectories for horizon sweeps.  The dataset seeds are part
# of the preset so every variant/seed combination trains on the same data;
# the run seed only steers model init, shuffling, and the val split.

DESK_TRAIN_TRAJECTORIES = 200
DESK_TEST_TRAJECTORIES = 50
DESK_TRAIN_WINDOW = (0, 30, 50)
DESK_TEST_WINDOW = (0, 30, 90)
DESK_TRAIN_RAW_STEPS = 5000
DESK_TEST_RAW_STEPS = 9000
DESK_TRAIN_OBS_RANGE = (25, 40)
DESK_TEST_OBS_RANGE = (40, 52)
DESK_DATA_SEED_TRAIN = 100
DESK_DATA_SEED_TEST = 200
DESK_OBS_SEED_TRAIN = 300
DESK_OBS_SEED_TEST = 400
DESK_ALPHA_GRID = (0.1, 0.5, 1.0)


def desk_system_spec() -> SystemSpec:
    return SystemSpec(kind="simple_spring", n_agents=1, dim=1)


def desk_model_config(**overrides) -> ModelConfig:
    # The desk preset integrates the latent ODE with plain Euler: on a
    # 1-body oscillator a 4th-order solver retraces its own steps to float
    # noise, so the reversal loss would carry no signal to regularize with
    # (and no signal to diagnose).  First order keeps the defect physical.
    overrides.setdefault("scheme", "euler")
    return ModelConfig(d_obs=2, **overrides)


def build_desk_dataset():
    """Deterministic desk corpus: (train obs sets, test obs sets, scale)."""
    spec = desk_system_spec()
    train_trajs = build_trajectories(
        spec, DESK_DATA_SEED_TRAIN, range(DESK_TRAIN_TRAJECTORIES), DESK_TRAIN_RAW_STEPS)
    test_trajs = build_trajectories(
        spec, DESK_DATA_SEED_TEST, range(DESK_TEST_TRAJECTORIES), DESK_TEST_RAW_STEPS)
    (train_n, test_n), scale = normalize_trajectories([train_trajs, test_trajs])
    obs_train = build_observation_sets(
        train_n, window=DESK_TRAIN_WINDOW,
        n_obs_min=DESK_TRAIN_OBS_RANGE[0], n_obs_max=DESK_TRAIN_OBS_RANGE[1],
        obs_seed=DESK_OBS_SEED_TRAIN,
    )
    obs_test = build_observation_sets(
        test_n, window=DESK_TEST_WINDOW,
        n_obs_min=DESK_TEST_OBS_RANGE[0], n_obs_max=DESK_TEST_OBS_RANGE[1],
        obs_seed=DESK_OBS_SEED_TEST,
    )
    return obs_train, obs_test, scale


def desk_train_settings(
    variant: str, alpha: float, seed: int, **overrides
) -> TrainSettings:
    base = dict(
        model=desk_model_config(),
        loss_variant=variant,
        alpha=alpha,
        lr=3e-3,
        epochs=60,
        batch_size=32,
        patience=15,
        val_fraction=0.1,
        weight_decay=0.0,
        seed=seed,
    )
    base.update(overrides)
    return TrainSettings(**base)


# ------------------------------------------------------- option catalogs

# simulate's agent count for spring networks where none is given; the
# pendulum and the attractor fix their own (systems.FIXED_AGENTS).
SPRING_AGENTS = 5

SIMULATE_DEFAULTS = {
    "system": "simple_spring",
    "agents": None,        # None -> per-system default (SPRING_AGENTS for springs)
    "dim": 2,
    "trajectories": 200,
    "test_trajectories": 0,
    "dt": None,            # None -> per-system default
    "steps": None,
    "test_steps": None,
    "subsample": None,
    "scheme": None,
    "edge_prob": 1.0,
    "noise": 0.0,
    "seed": 7,
    "out": "train.jsonl",
    "test_out": None,
    "k": None,
    "gamma": None,
    "k1": None,
    "omega": None,
    "damped_form": None,
}

TRAIN_DEFAULTS = {
    "data": "train.jsonl",
    "test_data": None,
    "loss_variant": "treat",
    "alpha": 0.5,
    "lr": 3e-3,
    "epochs": 60,
    "batch_size": 32,
    "patience": 15,
    "val_fraction": 0.1,
    "weight_decay": 0.0,
    "seed": 0,
    "window": list(DESK_TRAIN_WINDOW),
    "test_window": list(DESK_TEST_WINDOW),
    "n_obs_min": DESK_TRAIN_OBS_RANGE[0],
    "n_obs_max": DESK_TRAIN_OBS_RANGE[1],
    "test_n_obs_min": DESK_TEST_OBS_RANGE[0],
    "test_n_obs_max": DESK_TEST_OBS_RANGE[1],
    "obs_seed": DESK_OBS_SEED_TRAIN,
    "test_obs_seed": DESK_OBS_SEED_TEST,
    "d_enc": 16,
    "d_aug": 16,
    "d_model": 32,
    "ode_hidden": 64,
    "dec_hidden": 64,
    "scheme": "rk4",
    "outdir": "run",
}

EVAL_DEFAULTS = {
    "checkpoint": "run/checkpoint.json",
    "data": "test.jsonl",
    "window": list(DESK_TEST_WINDOW),
    "n_obs_min": DESK_TEST_OBS_RANGE[0],
    "n_obs_max": DESK_TEST_OBS_RANGE[1],
    "obs_seed": DESK_OBS_SEED_TEST,
    "out": None,
}

VERIFY_DEFAULTS = {
    "suite": "all",
    "json": None,
}
