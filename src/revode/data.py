"""Trajectory generation, irregular observation sampling, and the JSONL
(de)serialization of trajectories.

Randomness policy: every stochastic step draws from its own counter-based
stream so that datasets are bitwise reproducible and insertion-order
independent.  Stream keys are `seed * 2**64 + stream_index`, where the
stream index packs (item_index << 4) | purpose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DatasetFormatError, IntegrationError
from .integrators import StateVector, TimeGrid, Trajectory, integrate
from .systems import InteractionGraph, SystemSpec, make_derivative

SCHEMA_VERSION = 1

# purpose nibble for stream indices
PURPOSE_GRAPH = 0
PURPOSE_INIT = 1
PURPOSE_NOISE = 2
PURPOSE_OBS = 3
PURPOSE_SPLIT = 4
PURPOSE_SHUFFLE = 5
PURPOSE_PARAMS = 6
PURPOSE_MODEL_INIT = 7
# build_trajectory packs a trajectory's index into the low 16 bits of its
# tag and noise seed, (seed << 16) + index, so an index must fit there.
TRAJECTORIES_PER_SEED = 1 << 16


def rng_stream(seed: int, item_index: int = 0, purpose: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, item, purpose); order-independent."""
    if seed < 0 or item_index < 0 or purpose < 0 or purpose > 15:
        raise ConfigurationError("rng_stream arguments must be non-negative (purpose < 16)")
    stream_index = (item_index << 4) | purpose
    return np.random.Generator(np.random.Philox(key=(seed << 64) + stream_index))


def add_gaussian_noise(traj: Trajectory, sigma: float, rng_seed: int) -> Trajectory:
    rng = rng_stream(rng_seed, 0, PURPOSE_NOISE)
    return replace(
        traj,
        q=traj.q + sigma * rng.standard_normal(traj.q.shape),
        p=traj.p + sigma * rng.standard_normal(traj.p.shape),
    )


@dataclass
class ObservationSet:
    """Irregular per-agent observations around a single anchor time t0.

    Condition observations live strictly before the prediction window and
    carry times relative to t0 (non-positive).  Prediction targets are
    indexed by their rollout step (1..n_rollout_steps) on the uniform grid
    t0 + idx*dt.
    """

    n_agents: int
    d: int
    t0: float
    dt: float
    n_rollout_steps: int
    cond_times: list  # per agent: (m_i,) float64, relative to t0
    cond_feats: list  # per agent: (m_i, d)
    pred_idx: list    # per agent: (r_i,) int64 rollout indices in [1, K]
    pred_feats: list  # per agent: (r_i, d)
    graph: InteractionGraph | None = None
    scale: float = 1.0

    def __post_init__(self):
        for i in range(self.n_agents):
            if len(self.cond_times[i]) == 0:
                raise ConfigurationError(f"agent {i} has no condition observations")
            if np.any(np.diff(self.cond_times[i]) <= 0):
                raise ConfigurationError(f"agent {i} condition times are not increasing")
            if len(self.pred_idx[i]) and (
                self.pred_idx[i].min() < 1 or self.pred_idx[i].max() > self.n_rollout_steps
            ):
                raise ConfigurationError(f"agent {i} target index out of rollout range")
            if np.any(self.cond_times[i] > 0):
                raise ConfigurationError(
                    f"agent {i} has condition observations after the anchor"
                )

    @cached_property
    def edges(self) -> np.ndarray:
        """(E, 2) directed (src, tgt) agent pairs of directed_edges, derived
        once per sample."""
        return np.array(directed_edges(self.graph, self.n_agents), dtype=np.int64).reshape(-1, 2)


def directed_edges(graph: InteractionGraph | None, n_agents: int) -> list[tuple[int, int]]:
    """Both directions per undirected edge; a lone agent gets a self-loop
    so the interaction path stays active in single-agent mode."""
    out = []
    if graph is not None:
        for i, j in graph.edges():
            out.append((i, j))
            out.append((j, i))
    if n_agents == 1 and not out:
        out.append((0, 0))
    return out


def irregular_subsample(
    traj: Trajectory,
    n_obs_min: int,
    n_obs_max: int,
    window: tuple[int, int, int],
    rng_seed: int,
    item_index: int = 0,
) -> ObservationSet:
    """Draw per-agent irregular observations from grid window (lo, split, hi).

    For each agent a count n ~ U{n_obs_min..n_obs_max} is drawn, then n
    distinct grid indices uniformly without replacement from [lo, hi).
    Indices below `split` become condition observations, the rest become
    prediction targets; the anchor t0 is the grid point split-1.  Draws
    leaving either side empty are retried on the same stream.
    """
    if traj.q.ndim != 3:
        raise ConfigurationError("irregular_subsample expects a single (unbatched) trajectory")
    lo, split, hi = window
    if not (0 <= lo < split < hi <= traj.n_points):
        raise ConfigurationError(
            f"window (lo={lo}, split={split}, hi={hi}) invalid for {traj.n_points} grid points"
        )
    if not (1 <= n_obs_min <= n_obs_max <= hi - lo):
        raise ConfigurationError(
            f"need 1 <= n_obs_min <= n_obs_max <= window size; "
            f"got ({n_obs_min}, {n_obs_max}) for window of {hi - lo}"
        )
    rng = rng_stream(rng_seed, item_index, PURPOSE_OBS)
    feats = traj.features()
    anchor = split - 1
    t0 = float(traj.times[anchor])
    dt = float(traj.times[1] - traj.times[0])
    n_roll = hi - 1 - anchor

    cond_times, cond_feats, pred_idx, pred_feats = [], [], [], []
    for agent in range(traj.n_agents):
        for _attempt in range(1000):
            count = int(rng.integers(n_obs_min, n_obs_max + 1))
            idx = np.sort(rng.choice(hi - lo, size=count, replace=False)) + lo
            cond = idx[idx < split]
            targ = idx[idx >= split]
            if len(cond) > 0 and len(targ) > 0:
                break
        else:  # pragma: no cover - astronomically unlikely
            raise ConfigurationError("could not draw a non-degenerate observation split")
        cond_times.append(traj.times[cond] - t0)
        cond_feats.append(feats[cond, agent, :].copy())
        pred_idx.append((targ - anchor).astype(np.int64))
        pred_feats.append(feats[targ, agent, :].copy())

    graph = None
    if traj.system is not None:
        graph = InteractionGraph.from_edges(
            traj.system["n_agents"], traj.system.get("edges", [])
        )
    return ObservationSet(
        n_agents=traj.n_agents,
        d=feats.shape[-1],
        t0=t0,
        dt=dt,
        n_rollout_steps=n_roll,
        cond_times=cond_times,
        cond_feats=cond_feats,
        pred_idx=pred_idx,
        pred_feats=pred_feats,
        graph=graph,
        scale=traj.scale,
    )


def normalize_trajectories(
    groups: Sequence[Sequence[Trajectory]],
) -> tuple[list[list[Trajectory]], float]:
    """Scale all features so the max absolute value across groups is 1.

    Returns rescaled copies plus the scale; multiplying by the scale
    restores the originals.
    """
    peak = 0.0
    for group in groups:
        for traj in group:
            feats = traj.features()
            if feats.size:
                peak = max(peak, float(np.max(np.abs(feats))))
    scale = peak if peak > 0 else 1.0
    return [[replace(t, q=t.q / scale, p=t.p / scale, scale=scale) for t in group]
            for group in groups], scale


# ------------------------------------------------------------------ I/O

def _traj_record(traj: Trajectory) -> dict:
    if traj.system is None:
        raise ConfigurationError("trajectory must carry system metadata to be serialized")
    return {
        "schema_version": SCHEMA_VERSION,
        "record": "trajectory",
        "system": traj.system["kind"],
        "params": traj.system,
        "seed": traj.seed,
        "times": traj.times.tolist(),
        "states": traj.features().reshape(traj.n_points, -1).tolist(),
        "scale": traj.scale,
    }


def _bare_spec(params, lineno: int) -> SystemSpec:
    """The record's system without its interaction graph, so that the caller
    can check n_agents against the record's data before the (n, n)
    adjacency is allocated."""
    n_agents, dim = params["n_agents"], params.get("dim", 1)
    if type(n_agents) is not int or type(dim) is not int:
        raise DatasetFormatError(
            f"line {lineno}: n_agents and dim must be integers, got {n_agents!r}, {dim!r}"
        )
    return SystemSpec(kind=params["kind"], n_agents=n_agents, dim=dim)


def _traj_from_record(rec: dict, lineno: int) -> Trajectory:
    params = rec["params"]
    bare = _bare_spec(params, lineno)
    times = np.asarray(rec["times"], dtype=np.float64)
    states = np.asarray(rec["states"], dtype=np.float64)
    if times.ndim != 1 or states.ndim != 2 or states.shape[0] != len(times):
        raise DatasetFormatError(f"line {lineno}: states/timestamps shape mismatch")
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise DatasetFormatError(f"line {lineno}: timestamps are not strictly increasing")
    expected = bare.n_agents * bare.feature_dim
    if states.shape[1] != expected:
        raise DatasetFormatError(
            f"line {lineno}: state width {states.shape[1]} != n_agents*feature_dim {expected}"
        )
    spec = SystemSpec.from_params_dict(params)
    mats = states.reshape(len(times), spec.n_agents, spec.feature_dim)
    return Trajectory(
        times=times,
        q=mats[..., : spec.d_q].copy(),
        p=mats[..., spec.d_q :].copy(),
        system=params,
        seed=rec.get("seed"),
        scale=float(rec.get("scale", 1.0)),
    )


def write_dataset(path, trajectories: Iterable[Trajectory]) -> int:
    """Write trajectories as JSON lines; returns count."""
    n = 0
    with open(path, "w") as fh:
        for traj in trajectories:
            fh.write(json.dumps(_traj_record(traj)) + "\n")
            n += 1
    return n


def read_dataset(path) -> list[Trajectory]:
    try:
        return _read_records(path)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path} is not UTF-8 text ({exc})") from None
    except DatasetFormatError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def _read_records(path) -> list[Trajectory]:
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise DatasetFormatError(f"line {lineno}: record is not an object")
            version = rec.get("schema_version")
            if version != SCHEMA_VERSION:
                raise DatasetFormatError(
                    f"line {lineno}: schema_version {version!r} != {SCHEMA_VERSION}"
                )
            kind = rec.get("record", "trajectory")
            try:
                if kind != "trajectory":
                    raise DatasetFormatError(f"line {lineno}: unknown record type {kind!r}")
                items.append(_traj_from_record(rec, lineno))
            except KeyError as exc:
                raise DatasetFormatError(f"line {lineno}: missing field {exc}") from None
            except (ConfigurationError, TypeError, ValueError, IndexError, OverflowError) as exc:
                # wrong types or values inside a field: ragged states, a bad edge
                raise DatasetFormatError(f"line {lineno}: malformed record ({exc})") from None
    return items


# ------------------------------------------------------- dataset builders

SIM_DEFAULTS = {
    # scheme, dt, subsample; spring defaults follow the coarse explicit
    # protocol, stiffer systems get RK4 with finer steps.
    "simple_spring": ("euler", 0.001, 100),
    "forced_spring": ("euler", 0.001, 100),
    "damped_spring": ("euler", 0.001, 100),
    "triple_pendulum": ("rk4", 0.0001, 100),
    "attractor": ("rk4", 0.03, 10),
}


def draw_initial_state(spec: SystemSpec, rng: np.random.Generator) -> StateVector:
    """Seeded initial conditions per system family."""
    if spec.is_spring:
        q = rng.standard_normal((spec.n_agents, spec.d_q))
        p = rng.standard_normal((spec.n_agents, spec.d_p))
        return StateVector(q, p)
    if spec.kind == "triple_pendulum":
        theta = rng.uniform(-np.pi / 2, np.pi / 2, size=(3, 1))
        return StateVector(theta, np.zeros((3, 1)))
    if spec.kind == "attractor":
        z0 = rng.uniform(1.0, 3.0)
        return StateVector(np.array([[0.0, 0.0, z0]]), np.zeros((1, 0)))
    raise ConfigurationError(f"no initial-state sampler for {spec.kind!r}")


def build_trajectories(
    base_spec: SystemSpec,
    seed: int,
    indices: Iterable[int],
    raw_steps: int,
    dt: float | None = None,
    subsample_every: int | None = None,
    scheme: str | None = None,
    edge_prob: float = 1.0,
    noise_sigma: float = 0.0,
) -> list[Trajectory]:
    """Dataset trajectories for `indices` of `seed`: each item's start and
    noise, and its graph where a spring spec has none, come from its own
    streams, and all starts integrate as one ensemble in which each sampled
    graph drives its own member's springs.  An item that leaves the finite
    range raises IntegrationError naming it; no indices, or a negative or
    non-finite noise sigma, raise ConfigurationError before any integration."""
    indices = list(indices)
    if not indices:
        raise ConfigurationError("build_trajectories needs at least one trajectory index")
    if not 0.0 <= noise_sigma < np.inf:  # NaN fails too
        raise ConfigurationError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    for index in indices:
        if not 0 <= index < TRAJECTORIES_PER_SEED:
            raise ConfigurationError(
                f"trajectory index must lie in [0, {TRAJECTORIES_PER_SEED}), got {index}"
            )
    default_scheme, default_dt, default_sub = SIM_DEFAULTS[base_spec.kind]
    scheme = scheme or default_scheme
    dt = default_dt if dt is None else dt
    subsample_every = default_sub if subsample_every is None else subsample_every

    ensemble, specs = base_spec, [base_spec] * len(indices)
    if base_spec.is_spring and base_spec.n_agents > 1 and base_spec.graph is None:
        specs = [
            replace(base_spec, graph=sample_graph_with_rng(
                base_spec.n_agents, edge_prob, rng_stream(seed, index, PURPOSE_GRAPH)))
            for index in indices
        ]
        stacked = np.stack([spec.graph.adjacency for spec in specs])
        ensemble = replace(base_spec, graph=InteractionGraph(base_spec.n_agents, stacked))
    starts = [
        draw_initial_state(spec, rng_stream(seed, index, PURPOSE_INIT))
        for spec, index in zip(specs, indices)
    ]
    state0 = StateVector(np.stack([s.q for s in starts]), np.stack([s.p for s in starts]))
    grid = TimeGrid(0.0, dt, raw_steps)
    traj = integrate(make_derivative(ensemble), state0, grid, scheme, subsample_every)
    escaped = np.argwhere(~np.isfinite(traj.q).all(axis=(-2, -1)))  # (point, member) rows
    if len(escaped):
        k, b = escaped[0]
        raise IntegrationError(
            f"trajectory {indices[b]} left the finite range by t={traj.times[k]:.6g}",
            time=float(traj.times[k]),
        )
    out = []
    for b, (spec, index) in enumerate(zip(specs, indices)):
        tag = (seed << 16) + index
        item = Trajectory(traj.times, traj.q[:, b], traj.p[:, b],
                          system=spec.params_dict(), seed=tag)
        if noise_sigma != 0:
            item = add_gaussian_noise(item, noise_sigma, tag)
        out.append(item)
    return out


def build_trajectory(base_spec: SystemSpec, seed: int, index: int, raw_steps: int,
                     **options) -> Trajectory:
    """One dataset trajectory: build_trajectories over the one index."""
    return build_trajectories(base_spec, seed, [index], raw_steps, **options)[0]


def sample_graph_with_rng(n: int, edge_prob: float, rng: np.random.Generator) -> InteractionGraph:
    """Bernoulli graph over unordered pairs, drawn in row-major (i, j) order."""
    if not (0.0 <= edge_prob <= 1.0):
        raise ConfigurationError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    adj = np.zeros((n, n), dtype=bool)
    ii, jj = np.triu_indices(n, 1)
    adj[ii, jj] = adj[jj, ii] = rng.random(n * (n - 1) // 2) < edge_prob
    return InteractionGraph(n, adj)


def build_observation_sets(
    trajectories: Sequence[Trajectory],
    window: tuple[int, int, int],
    n_obs_min: int,
    n_obs_max: int,
    obs_seed: int,
) -> list[ObservationSet]:
    return [
        irregular_subsample(traj, n_obs_min, n_obs_max, window, obs_seed, item_index=i)
        for i, traj in enumerate(trajectories)
    ]
