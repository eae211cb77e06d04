"""The option table, run-configuration plumbing (JSON configs and
resolved-config copies), the desk-scale preset the small-budget experiments
standardize on, and the functions that turn resolved options into a run.

Every CLI flag and config key comes from the option table: each command's
`*_DEFAULTS` catalog names its options and defaults, and `option_type` and
`OPTION_CHOICES` give each option's type and allowed values.

Every command accepts an optional JSON config whose keys must be a subset
of that command's known options (unknown keys are rejected, not ignored)
and whose values must have those options' types, plus a mandatory
schema_version.  Precedence: explicit CLI flag, then config file, then
built-in default.  Each run writes the fully resolved options next to its
outputs so it can be reproduced from that file alone.

`simulate_groups`, `draw_observation_sets` and `train_settings` build a run
from resolved options; the CLI and the acceptance grid both go through them.
"""

from __future__ import annotations

import dataclasses
import json

from .data import (SIM_DEFAULTS, TRAJECTORIES_PER_SEED, build_observation_sets,
                   build_trajectories, normalize_trajectories)
from .errors import ConfigurationError
from .integrators import SCHEMES
from .model import ModelConfig
from .systems import DAMPED_FORMS, FIXED_AGENTS, SYSTEM_KINDS, SystemSpec
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


def write_json(path, doc: dict):
    """Indent-2, sorted-key JSON with a trailing newline: every JSON artifact's form."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_resolved_config(path, options: dict):
    write_json(path, {"schema_version": CONFIG_SCHEMA_VERSION, **options})


def parse_window(value) -> tuple:
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    try:
        parts = tuple(v if type(v) is int else int(str(v)) for v in parts)
    except ValueError:
        parts = ()
    if len(parts) != 3:
        raise ConfigurationError(f"window must be lo,split,hi integers; got {value!r}")
    return parts


def _field_defaults(cls) -> dict:
    """`cls`'s fields that have a default, with it, in field order."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


# ------------------------------------------------------------ desk preset
#
# A deliberately small but complete experiment: one-dimensional single-agent
# oscillator, two hundred training trajectories with short windows, fifty
# longer test trajectories for horizon sweeps.  The dataset seeds are part
# of the preset so every variant/seed combination trains on the same data;
# the run seed only steers model init, shuffling, and the val split.  The
# preset lays DESK_SIMULATE and DESK_TRAIN over the catalog defaults below
# (`--desk-scale`), whose windows and observation counts are the desk ones.

DESK_TRAIN_WINDOW = (0, 30, 50)
DESK_TEST_WINDOW = (0, 30, 90)
DESK_TRAIN_OBS_RANGE = (25, 40)
DESK_TEST_OBS_RANGE = (40, 52)
DESK_OBS_SEED_TRAIN = 300
DESK_OBS_SEED_TEST = 400
DESK_DATA_SEED_TEST = 200  # the test set's seed while the train set keeps the preset's

DESK_SIMULATE = {
    "system": "simple_spring",
    "dim": 1,
    "trajectories": 200,
    "test_trajectories": 50,
    "steps": 5000,
    "test_steps": 9000,
    "seed": 100,
    "test_out": "test.jsonl",
}
# The desk preset integrates the latent ODE with plain Euler: on a 1-body
# oscillator a 4th-order solver retraces its own steps to float noise, so the
# reversal loss would carry no signal to regularize with (and no signal to
# diagnose).  First order keeps the defect physical.
DESK_TRAIN = {"scheme": "euler"}


def desk_system_spec() -> SystemSpec:
    return SystemSpec(kind=DESK_SIMULATE["system"], n_agents=1, dim=DESK_SIMULATE["dim"])


def desk_model_config() -> ModelConfig:
    """The model `train --desk-scale` builds on desk data."""
    return train_settings({**TRAIN_DEFAULTS, **DESK_TRAIN}, desk_system_spec().feature_dim).model


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

# the optimizer entries (loss_variant .. seed) and the model entries (d_enc ..
# scheme) are TrainSettings' and ModelConfig's own field defaults
TRAIN_DEFAULTS = {
    "data": "train.jsonl",
    "test_data": None,
    **_field_defaults(TrainSettings),
    "window": list(DESK_TRAIN_WINDOW),
    "test_window": list(DESK_TEST_WINDOW),
    "n_obs_min": DESK_TRAIN_OBS_RANGE[0],
    "n_obs_max": DESK_TRAIN_OBS_RANGE[1],
    "test_n_obs_min": DESK_TEST_OBS_RANGE[0],
    "test_n_obs_max": DESK_TEST_OBS_RANGE[1],
    "obs_seed": DESK_OBS_SEED_TRAIN,
    "test_obs_seed": DESK_OBS_SEED_TEST,
    **_field_defaults(ModelConfig),
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


# ------------------------------------------------------- options to a run

def simulate_groups(opt: dict, desk_scale: bool) -> tuple[list, float]:
    """The normalized trajectory sets of resolved simulate options `opt`, the
    train set then any test set, and their common scale.  Fills in
    `opt["agents"]` where unset, so a written config names the count."""
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
    for name in ("steps", "test_steps", "subsample"):
        if opt[name] is not None and opt[name] < 1:
            raise ConfigurationError(f"--{name.replace('_', '-')} must be at least 1")

    if opt["agents"] is None:
        opt["agents"] = FIXED_AGENTS.get(opt["system"], 1 if desk_scale else SPRING_AGENTS)
    spec_kwargs = dict(kind=opt["system"], n_agents=opt["agents"], dim=opt["dim"])
    for name in ("k", "gamma", "k1", "omega", "damped_form"):
        if opt[name] is not None:
            spec_kwargs[name] = opt[name]
    spec = SystemSpec(**spec_kwargs)

    subsample = SIM_DEFAULTS[spec.kind][2] if opt["subsample"] is None else opt["subsample"]
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
            if desk_scale and opt["seed"] == DESK_SIMULATE["seed"]
            else opt["seed"] + 1
        )
        # by default the test set spans the default test window of train and eval
        test_steps = DESK_TEST_WINDOW[2] * subsample if opt["test_steps"] is None else opt["test_steps"]
        # held-out trajectories are clean: observation noise is a training
        # corruption, not part of the target signal
        groups.append(build_trajectories(
            spec, test_seed, range(opt["test_trajectories"]), test_steps, **common))
    return normalize_trajectories(groups)


def draw_observation_sets(trajs: list, opt: dict, prefix: str = "") -> list:
    """The observation sets of `trajs`, drawn with the `prefix` window options of `opt`."""
    return build_observation_sets(
        trajs, window=parse_window(opt[prefix + "window"]),
        n_obs_min=opt[prefix + "n_obs_min"], n_obs_max=opt[prefix + "n_obs_max"],
        obs_seed=opt[prefix + "obs_seed"],
    )


def train_settings(opt: dict, d_obs: int) -> TrainSettings:
    """The TrainSettings, with its ModelConfig, of resolved train options `opt`
    on data of `d_obs` features."""
    model = ModelConfig(d_obs=d_obs, **{key: opt[key] for key in _field_defaults(ModelConfig)})
    return TrainSettings(model=model, **{key: opt[key] for key in _field_defaults(TrainSettings)})
