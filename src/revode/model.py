"""Latent GraphODE: attention encoder over irregular observations, a GNN
vector field unrolled by a fixed-step solver, and an MLP decoder.

Everything here builds autodiff graphs; the numerical schemes mirror
`integrators` but operate on Tensors so gradients flow through the
unrolled solver (discretize-then-optimize).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import ObservationSet, rng_stream
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    EncodingError,
    RolloutDivergedError,
    ShapeError,
)
from .integrators import SCHEMES

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    d_obs: int
    d_enc: int = 16
    d_aug: int = 16
    d_model: int = 32
    ode_hidden: int = 64
    dec_hidden: int = 64
    scheme: str = "rk4"
    spatial_round: bool = False
    te_base: float = 10000.0

    def __post_init__(self):
        for name in ("d_obs", "d_enc", "d_aug", "d_model", "ode_hidden", "dec_hidden"):
            value = getattr(self, name)
            if type(value) is not int or value < (0 if name == "d_aug" else 1):
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % 2 != 0:
            raise ConfigurationError("d_model must be even for the temporal encoding")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown rollout scheme {self.scheme!r}")
        if type(self.spatial_round) is not bool:
            raise ConfigurationError("spatial_round must be true or false")
        if type(self.te_base) not in (int, float) or not self.te_base > 0:
            raise ConfigurationError("te_base must be a positive number")

    @property
    def d_z(self) -> int:
        return self.d_enc + self.d_aug

    @property
    def d_out(self) -> int:
        return self.d_obs

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        known = {f for f in ModelConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown model config fields: {sorted(unknown)}")
        return ModelConfig(**d)


def temporal_encoding(delta_ts: np.ndarray, d: int, base: float = 10000.0) -> np.ndarray:
    """Sinusoidal encoding of (possibly negative, irregular) time offsets.

    Column 2i is sin(t / base^(2i/d)), column 2i+1 the matching cos, so a
    zero offset encodes as (0, 1, 0, 1, ...).
    """
    if d % 2 != 0:
        raise ConfigurationError("temporal encoding dimension must be even")
    delta_ts = np.asarray(delta_ts, dtype=np.float64).reshape(-1)
    i2 = np.arange(0, d, 2, dtype=np.float64)
    scales = base ** (i2 / d)
    args = delta_ts[:, None] / scales[None, :]
    out = np.empty((len(delta_ts), d), dtype=np.float64)
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    return out


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Every parameter's shape, in init_params' key (and draw) order."""
    dm, dz, h, dh = config.d_model, config.d_z, config.ode_hidden, config.dec_hidden
    shapes = {
        "enc.embed.W": (config.d_obs, dm), "enc.embed.b": (1, dm),
        "enc.attn.Wq": (dm, dm), "enc.attn.Wk": (dm, dm), "enc.attn.Wv": (dm, dm),
        "enc.pool.Wa": (dm, dm),
        "enc.out.W": (dm, config.d_enc), "enc.out.b": (1, config.d_enc),
        "ode.msg.W": (2 * dz, h), "ode.msg.b": (1, h),
        "ode.upd1.W": (dz + h, h), "ode.upd1.b": (1, h),
        "ode.upd2.W": (h, dz), "ode.upd2.b": (1, dz),
        "dec.W1": (dz, dh), "dec.b1": (1, dh),
        "dec.W2": (dh, config.d_out), "dec.b2": (1, config.d_out),
    }
    if config.spatial_round:
        shapes.update({"enc.spatial.W": (dm, dm), "enc.spatial.b": (1, dm)})
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, in param_shapes' order."""
    rng = rng_stream(seed, 0, 7)

    def init(name, shape):
        if name.rsplit(".", 1)[1].startswith("b"):
            return np.zeros(shape)
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-a, a, size=shape)

    return {name: init(name, shape) for name, shape in param_shapes(config).items()}


def _linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    return ad.add_bias(ad.matmul(x, W), b)


def encode_agent(
    tape: Tape,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    rel_times: np.ndarray,
    feats: np.ndarray,
    n_valid: np.ndarray,
) -> Tensor:
    """Temporal self-attention over every agent's observations -> (A, d_model).

    Agent a's observations fill the first n_valid[a] slots of rel_times
    (A, m) and feats (A, m, d_obs); the padding after them is masked out of
    the attention weights and the pooling sums, so an agent encodes the same
    whichever agents share its pass.
    """
    n_agents, m = rel_times.shape
    n_valid = np.asarray(n_valid, dtype=np.int64)
    if np.any(n_valid < 1):
        raise EncodingError("agent has no observations to encode")
    dm = config.d_model
    valid = np.arange(m)[None, :] < n_valid[:, None]  # (A, m)

    X = tape.const(feats.reshape(n_agents * m, -1))
    H = _linear(X, leaves["enc.embed.W"], leaves["enc.embed.b"])
    H = ad.add(H, tape.const(temporal_encoding(rel_times.reshape(-1), dm, config.te_base)))

    def per_agent(t: Tensor) -> Tensor:
        return ad.reshape(t, (n_agents, m, dm))

    Q = per_agent(ad.matmul(H, leaves["enc.attn.Wq"]))
    K = per_agent(ad.matmul(H, leaves["enc.attn.Wk"]))
    V = per_agent(ad.matmul(H, leaves["enc.attn.Wv"]))
    S = ad.smul(ad.matmul(Q, ad.transpose(K)), 1.0 / np.sqrt(dm))
    if not valid.all():
        S = ad.add(S, tape.const(np.broadcast_to(
            np.where(valid, 0.0, -1e30)[:, None, :], S.shape)))
    A = ad.softmax(S, axis=-1)
    H2 = ad.add(per_agent(H), ad.relu(ad.matmul(A, V)))  # (A, m, dm)

    pool = tape.const((valid / n_valid[:, None])[:, None, :])  # (A, 1, m)
    mean_row = ad.reshape(ad.matmul(pool, H2), (n_agents, dm))
    a = ad.tanh(ad.matmul(mean_row, leaves["enc.pool.Wa"]))
    scores = ad.tanh(ad.matmul(ad.reshape(a, (n_agents, 1, dm)), ad.transpose(H2)))
    u = ad.matmul(ad.mul(scores, pool), H2)
    return ad.reshape(u, (n_agents, dm))


def encode_initial_states(
    tape: Tape,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    obs_list: list[ObservationSet],
) -> Tensor:
    """Latent initial states of every agent of every sample, stacked
    sample-major like the batch's nodes -> (sum of n_agents, d_z)."""
    agents = [(t, f) for obs in obs_list for t, f in zip(obs.cond_times, obs.cond_feats)]
    n_valid = np.array([len(t) for t, _ in agents], dtype=np.int64)
    n_rows, m = len(agents), int(n_valid.max())
    rel_times = np.zeros((n_rows, m))
    feats = np.zeros((n_rows, m, config.d_obs))
    for a, (t, f) in enumerate(agents):
        rel_times[a, : len(t)] = t
        feats[a, : len(t)] = f
    U = encode_agent(tape, leaves, config, rel_times, feats, n_valid)

    if config.spatial_round:
        # one round of mean aggregation within each sample that has edges;
        # a sample without edges keeps its encodings unchanged
        mixing = np.zeros((n_rows, n_rows))
        updated = np.zeros((n_rows, config.d_model))
        lo = 0
        for obs in obs_list:
            hi = lo + obs.n_agents
            if obs.graph is not None and obs.graph.n_edges > 0:
                adj = obs.graph.adjacency.astype(np.float64)
                mixing[lo:hi, lo:hi] = adj / np.maximum(adj.sum(axis=1, keepdims=True), 1.0)
                updated[lo:hi] = 1.0
            lo = hi
        if updated.any():
            msg = ad.matmul(tape.const(mixing), U)
            upd = ad.relu(_linear(msg, leaves["enc.spatial.W"], leaves["enc.spatial.b"]))
            U = ad.add(U, ad.mul(upd, tape.const(updated)))

    z_enc = _linear(U, leaves["enc.out.W"], leaves["enc.out.b"])
    if config.d_aug == 0:
        return z_enc
    return ad.concat([z_enc, tape.const(np.zeros((n_rows, config.d_aug)))], axis=1)


def directed_edges(graph, n_agents: int, offset: int = 0) -> list[tuple[int, int]]:
    """Both directions per undirected edge; a lone agent gets a self-loop
    so the interaction path stays active in single-agent mode."""
    out = []
    if graph is not None:
        for i, j in graph.edges():
            out.append((offset + i, offset + j))
            out.append((offset + j, offset + i))
    if n_agents == 1 and not out:
        out.append((offset, offset))
    return out


FIELD_PARAMS = ("ode.msg.W", "ode.msg.b", "ode.upd1.W", "ode.upd1.b", "ode.upd2.W", "ode.upd2.b")


def make_ode_func(
    tape: Tape,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    edges: list[tuple[int, int]],
    n_nodes: int,
):
    """Message-passing vector field g over n_nodes stacked latent rows.

    `edges` are directed (src, tgt) pairs; messages m_e = MLP([z_tgt, z_src])
    are summed per target and fed with z into the update MLP.  One gather of
    the interleaved (tgt, src) rows reshapes into the message inputs.  Each
    g(z) is one tape node with a hand-written backward that keeps the pair
    rows, the ReLU masks, the update input and the hidden activations.
    """
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pair_rows = ad.RowIndex(pairs[:, ::-1].reshape(-1), n_nodes)
    targets = ad.RowIndex(pairs[:, 1], n_nodes)
    dz = config.d_z
    weights = [leaves[name] for name in FIELD_PARAMS]
    Wm, bm, W1, b1, W2, b2 = (w.value for w in weights)

    def g(z: Tensor) -> Tensor:
        if z.tape is not tape or z.value.shape != (n_nodes, dz):
            raise ShapeError(f"field needs ({n_nodes}, {dz}) latent rows on its own tape")
        pair = z.value[pair_rows.idx].reshape(len(pairs), 2 * dz)
        pre_msg = pair @ Wm + bm
        upd_in = np.concatenate([z.value, targets.segment_sum(np.maximum(pre_msg, 0.0))], axis=1)
        pre_hid = upd_in @ W1 + b1
        hidden = np.maximum(pre_hid, 0.0)
        mask_msg, mask_hid = pre_msg > 0.0, pre_hid > 0.0

        def bwd(go):
            d_hid = (go @ W2.T) * mask_hid
            d_upd = d_hid @ W1.T
            d_msg = d_upd[:, dz:][targets.idx] * mask_msg
            d_pair = (d_msg @ Wm.T).reshape(-1, dz)
            return (d_upd[:, :dz], pair_rows.segment_sum(d_pair),
                    pair.T @ d_msg, d_msg.sum(axis=0, keepdims=True),
                    upd_in.T @ d_hid, d_hid.sum(axis=0, keepdims=True),
                    hidden.T @ go, go.sum(axis=0, keepdims=True))

        # z is a parent twice so that its direct and its gathered gradient
        # add up in the order the equivalent chain of primitives sums them
        parents = (z.idx, z.idx) + tuple(w.idx for w in weights)
        return tape._record("field", hidden @ W2 + b2, parents, bwd)

    return g


def _latent_step(z: Tensor, g, dt: float, scheme: str) -> Tensor:
    if scheme == "euler":
        return ad.add(z, ad.smul(g(z), dt))
    if scheme == "heun":
        k1 = g(z)
        k2 = g(ad.add(z, ad.smul(k1, dt)))
        return ad.add(z, ad.smul(ad.add(k1, k2), dt / 2.0))
    if scheme == "rk4":
        k1 = g(z)
        k2 = g(ad.add(z, ad.smul(k1, dt / 2.0)))
        k3 = g(ad.add(z, ad.smul(k2, dt / 2.0)))
        k4 = g(ad.add(z, ad.smul(k3, dt)))
        incr = ad.add(ad.add(k1, ad.smul(k2, 2.0)), ad.add(ad.smul(k3, 2.0), k4))
        return ad.add(z, ad.smul(incr, dt / 6.0))
    raise ConfigurationError(f"unknown rollout scheme {scheme!r}")


def _rollout(z0: Tensor, g, n_steps: int, dt: float, scheme: str, tag: str) -> list[Tensor]:
    states = [z0]
    z = z0
    for k in range(n_steps):
        z = _latent_step(z, g, dt, scheme)
        if not np.all(np.isfinite(z.value)):
            raise RolloutDivergedError(f"{tag} rollout diverged at step {k + 1}", step=k + 1)
        states.append(z)
    return states


def rollout_forward(z0: Tensor, g, n_steps: int, dt: float, scheme: str = "rk4") -> list[Tensor]:
    """Unrolled forward integration; returns K+1 latent states z(t_k)."""
    return _rollout(z0, g, n_steps, dt, scheme, "forward")


def rollout_reverse(z_end: Tensor, g, n_steps: int, dt: float, scheme: str = "rk4") -> list[Tensor]:
    """Integrate -g from the forward endpoint, as g with step -dt (bitwise
    the same: every scheme here scales each field value by a step).

    Element j of the result sits at reverse index t'_j, so it pairs with
    forward index K - j.
    """
    return _rollout(z_end, g, n_steps, -dt, scheme, "reverse")


def decode(tape: Tape, leaves: dict[str, Tensor], config: ModelConfig,
           z_states: list[Tensor]) -> Tensor:
    """Map stacked latent rows to observation space.

    Returns ((K+1)*n_rows, d_out); row k*n_rows + r is time index k, row r.
    """
    Z = z_states[0] if len(z_states) == 1 else ad.concat(z_states, axis=0)
    hidden = ad.relu(_linear(Z, leaves["dec.W1"], leaves["dec.b1"]))
    return _linear(hidden, leaves["dec.W2"], leaves["dec.b2"])


# ------------------------------------------------------------ checkpoints

def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "dtype": "float64",
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(blob: dict, name: str, shape: tuple) -> np.ndarray:
    what = f"checkpoint param {name!r}"
    if blob.get("dtype") != "float64":
        raise ArtifactMismatchError(f"{what} has dtype {blob.get('dtype')!r}")
    if blob["shape"] != list(shape):
        raise ArtifactMismatchError(f"{what} has shape {blob['shape']!r}, expected {shape}")
    arr = np.frombuffer(base64.b64decode(blob["data"]), dtype=np.float64)
    if arr.size != math.prod(shape):
        raise ArtifactMismatchError(f"{what} data does not match shape {shape}")
    return arr.reshape(shape).copy()


def save_checkpoint(path, params: dict[str, np.ndarray], config: ModelConfig,
                    extra: dict | None = None):
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "model": config.to_dict(),
        "params": {name: _encode_array(arr) for name, arr in params.items()},
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, ModelConfig, extra); checks every stored shape
    against param_shapes of the stored model config before decoding it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also undecodable bytes
            raise ArtifactMismatchError(f"checkpoint is not valid JSON: {exc}") from None
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise ArtifactMismatchError(
            f"checkpoint schema_version {version!r} != {CHECKPOINT_SCHEMA_VERSION}"
        )
    try:
        config = ModelConfig.from_dict(doc["model"])
        shapes = param_shapes(config)
        if set(doc["params"]) != set(shapes):
            raise ArtifactMismatchError(
                f"checkpoint params do not match architecture "
                f"(missing {sorted(set(shapes) - set(doc['params']))}, "
                f"unexpected {sorted(set(doc['params']) - set(shapes))})"
            )
        params = {name: _decode_array(doc["params"][name], name, shape)
                  for name, shape in shapes.items()}
    except KeyError as exc:
        raise ArtifactMismatchError(f"checkpoint has no {exc} field") from None
    except (AttributeError, TypeError, ValueError, ConfigurationError) as exc:
        raise ArtifactMismatchError(f"checkpoint is malformed: {exc}") from None
    return params, config, doc.get("extra", {})
