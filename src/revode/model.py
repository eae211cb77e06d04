"""Latent GraphODE: attention encoder over irregular observations, a GNN
vector field unrolled by a fixed-step solver, and an MLP decoder.

Everything here builds autodiff graphs.  The field works on arrays, and each
rollout leg is one tape node whose backward is the discrete adjoint of its
scheme (the schemes mirror `integrators`), so gradients flow through the
unrolled solver (discretize-then-optimize).  The encoder and the decoder are
one node each too: their backwards keep a few arrays (for the encoder H,
the softmax weights and the pooled rows; for the decoder its input rows)
and recompute the rest, with every bit the chain of primitives gave.
"""

from __future__ import annotations

import base64
import json
import math
import operator
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import PURPOSE_MODEL_INIT, ObservationSet, rng_stream
from .errors import (
    ArtifactMismatchError,
    ConfigurationError,
    EncodingError,
    RolloutDivergedError,
    ShapeError,
)
from .integrators import SCHEMES

CHECKPOINT_SCHEMA_VERSION = 1
TE_BASE = 10000.0  # the temporal encoding's base
# Model keys of older checkpoints, with the one value any of them can hold.
_RETIRED_MODEL_KEYS = {"spatial_round": False, "te_base": TE_BASE}


@dataclass(frozen=True)
class ModelConfig:
    d_obs: int
    d_enc: int = 16
    d_aug: int = 16
    d_model: int = 32
    ode_hidden: int = 64
    dec_hidden: int = 64
    scheme: str = "rk4"

    def __post_init__(self):
        for name in ("d_obs", "d_enc", "d_aug", "d_model", "ode_hidden", "dec_hidden"):
            value = getattr(self, name)
            if type(value) is not int or value < (0 if name == "d_aug" else 1):
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % 2 != 0:
            raise ConfigurationError("d_model must be even for the temporal encoding")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown rollout scheme {self.scheme!r}")

    @property
    def d_z(self) -> int:
        return self.d_enc + self.d_aug

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        known = {f for f in ModelConfig.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown model config fields: {sorted(unknown)}")
        return ModelConfig(**d)


def temporal_encoding(delta_ts: np.ndarray, d: int, base: float = TE_BASE) -> np.ndarray:
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
    return {
        "enc.embed.W": (config.d_obs, dm), "enc.embed.b": (1, dm),
        "enc.attn.Wq": (dm, dm), "enc.attn.Wk": (dm, dm), "enc.attn.Wv": (dm, dm),
        "enc.pool.Wa": (dm, dm),
        "enc.out.W": (dm, config.d_enc), "enc.out.b": (1, config.d_enc),
        "ode.msg.W": (2 * dz, h), "ode.msg.b": (1, h),
        "ode.upd1.W": (dz + h, h), "ode.upd1.b": (1, h),
        "ode.upd2.W": (h, dz), "ode.upd2.b": (1, dz),
        "dec.W1": (dz, dh), "dec.b1": (1, dh),
        "dec.W2": (dh, config.d_obs), "dec.b2": (1, config.d_obs),
    }


def param_views(theta: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Each parameter as a view into the flat float64 vector theta, laid out
    in param_shapes' order; a write to either shows in the other."""
    views, stop = {}, 0
    for name, shape in param_shapes(config).items():
        start, stop = stop, stop + math.prod(shape)
        views[name] = theta[start:stop].reshape(shape)
    return views


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, in param_shapes' order."""
    rng = rng_stream(seed, 0, PURPOSE_MODEL_INIT)

    def init(name, shape):
        if name.rsplit(".", 1)[1].startswith("b"):
            return np.zeros(shape)
        a = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-a, a, size=shape)

    return {name: init(name, shape) for name, shape in param_shapes(config).items()}


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


ENCODE_PARAMS = ("enc.pool.Wa", "enc.attn.Wv", "enc.attn.Wk", "enc.attn.Wq",
                 "enc.embed.b", "enc.embed.W")


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

    One tape node with the ENCODE_PARAMS weights as parents.  Besides its
    input, its backward keeps only H (embedding plus temporal encoding), the
    softmax weights A and the two pooled (A, d_model) rows.  It recomputes
    Q, K, V, A@V and H2 = H + relu(A@V) with the forward's own calls, and
    yields each weight gradient, and sums H's and H2's gradient terms, in
    the order the chain of primitives (matmul, reshape, transpose, softmax,
    tanh, ...) did, so every bit matches that chain's.
    """
    n_agents, m = rel_times.shape
    n_valid = np.asarray(n_valid, dtype=np.int64)
    if np.any(n_valid < 1):
        raise EncodingError("agent has no observations to encode")
    weights = tuple(leaves[name] for name in ENCODE_PARAMS)
    Wa, Wv, Wk, Wq, b, W = (w.value for w in weights)
    dm = config.d_model
    if np.shape(feats) != (n_agents, m, W.shape[0]):
        raise ShapeError(f"encode needs ({n_agents}, {m}, {W.shape[0]}) features, "
                         f"got {np.shape(feats)}")
    valid = np.arange(m)[None, :] < n_valid[:, None]  # (A, m)
    pool = (valid / n_valid[:, None])[:, None, :]  # (A, 1, m)
    scale = float(1.0 / np.sqrt(dm))
    X = np.asarray(feats, dtype=np.float64).reshape(n_agents * m, -1)
    H = (X @ W + b) + temporal_encoding(rel_times.reshape(-1), dm)

    def project(Wx):  # Q, K or V, per agent
        return (H @ Wx).reshape(n_agents, m, dm)

    def mix():  # A@V, H2 = H + relu(A@V) and H2's copied transpose
        AV = A @ project(Wv)
        H2 = H.reshape(n_agents, m, dm) + np.maximum(AV, 0.0)
        return AV, H2, _swap(H2).copy()

    S = (project(Wq) @ _swap(project(Wk)).copy()) * scale
    if not valid.all():
        S = S + np.where(valid, 0.0, -1e30)[:, None, :]
    e = np.exp(S - np.max(S, axis=-1, keepdims=True))
    A = e / np.sum(e, axis=-1, keepdims=True)
    _, H2, H2t = mix()
    mean_row = (pool @ H2).reshape(n_agents, dm)
    a = np.tanh(mean_row @ Wa)
    out = ((np.tanh(a.reshape(n_agents, 1, dm) @ H2t) * pool) @ H2).reshape(n_agents, dm)

    def bwd(g):
        # each recomputed array goes as soon as its last reader is done
        AV, H2, H2t = mix()
        mask, a3 = AV > 0.0, a.reshape(n_agents, 1, dm)
        del AV
        scores = np.tanh(a3 @ H2t)
        g = g.reshape(n_agents, 1, dm)
        d_scores = (g @ _swap(H2)) * pool * (1.0 - scores * scores)
        d_a = (d_scores @ _swap(H2t)).reshape(n_agents, dm) * (1.0 - a * a)
        del H2, H2t
        d_H2 = _swap(scores * pool) @ g
        d_H2 = d_H2 + _swap(_swap(a3) @ d_scores)
        yield mean_row.T @ d_a
        d_H2 = d_H2 + _swap(pool) @ (d_a @ Wa.T).reshape(n_agents, 1, dm)
        d_AV = d_H2 * mask
        d_A = d_AV @ _swap(project(Wv))
        d_V = (_swap(A) @ d_AV).reshape(n_agents * m, dm)
        del d_AV
        d_S = A * (d_A - np.sum(d_A * A, axis=-1, keepdims=True)) * scale
        del d_A
        d_H = d_H2.reshape(n_agents * m, dm) + d_V @ Wv.T
        yield H.T @ d_V
        del d_H2, d_V
        d_K = _swap(_swap(project(Wq)) @ d_S).reshape(n_agents * m, dm)
        d_H = d_H + d_K @ Wk.T
        yield H.T @ d_K
        del d_K
        d_Q = (d_S @ _swap(_swap(project(Wk)).copy())).reshape(n_agents * m, dm)
        d_H = d_H + d_Q @ Wq.T
        yield H.T @ d_Q
        yield d_H.sum(axis=0, keepdims=True)
        yield X.T @ d_H

    return tape._record("encode", out, tuple(w.idx for w in weights), bwd)


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
    z_enc = ad.add_bias(ad.matmul(U, leaves["enc.out.W"]), leaves["enc.out.b"])
    if config.d_aug == 0:
        return z_enc
    return ad.concat([z_enc, tape.const(np.zeros((n_rows, config.d_aug)))], axis=1)


FIELD_PARAMS = ("ode.msg.W", "ode.msg.b", "ode.upd1.W", "ode.upd1.b", "ode.upd2.W", "ode.upd2.b")


def make_ode_func(
    tape: Tape,
    leaves: dict[str, Tensor],
    config: ModelConfig,
    edges: np.ndarray,
    n_nodes: int,
):
    """Message-passing vector field g over n_nodes stacked latent rows.

    `edges` are directed (src, tgt) pairs; messages m_e = MLP([z_tgt, z_src])
    are summed per target and fed with z into the update MLP.  One gather of
    the interleaved (tgt, src) rows reshapes into the message inputs.

    g works on arrays: g(z) -> (rates, backward) for (n_nodes, d_z) rows z.
    backward(go) returns z's gradient as two terms, the direct one through
    the update input and the one gathered back through the messages (the
    order in which the equivalent chain of primitives sums them), and one
    gradient per tensor of g.params.  It keeps only z, the aggregated
    messages, the hidden activations and the message ReLU mask (as bits), and
    recomputes the pair rows, the update input and the hidden mask from
    them.  On a forward-only tape backward is None and g keeps nothing.
    """
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pair_rows = ad.RowIndex(pairs[:, ::-1].reshape(-1), n_nodes)
    targets = ad.RowIndex(pairs[:, 1], n_nodes)
    dz, record = config.d_z, tape.record
    weights = tuple(leaves[name] for name in FIELD_PARAMS)
    Wm, bm, W1, b1, W2, b2 = (w.value for w in weights)

    def g(z: np.ndarray):
        if z.shape != (n_nodes, dz):
            raise ShapeError(f"field needs ({n_nodes}, {dz}) latent rows, got {z.shape}")
        pre_msg = z[pair_rows.idx].reshape(len(pairs), 2 * dz) @ Wm + bm
        agg = targets.segment_sum(np.maximum(pre_msg, 0.0))
        hidden = np.maximum(np.concatenate([z, agg], axis=1) @ W1 + b1, 0.0)
        rates = hidden @ W2 + b2
        if not record:
            return rates, None
        mask_msg = np.packbits(pre_msg > 0.0, axis=1)  # one bit per entry

        def backward(go):
            pair = z[pair_rows.idx].reshape(len(pairs), 2 * dz)
            upd_in = np.concatenate([z, agg], axis=1)
            d_hid = (go @ W2.T) * (hidden > 0.0)
            d_upd = d_hid @ W1.T
            d_msg = d_upd[:, dz:][targets.idx] * np.unpackbits(
                mask_msg, axis=1, count=Wm.shape[1]).view(bool)
            d_pair = (d_msg @ Wm.T).reshape(-1, dz)
            return ((d_upd[:, :dz], pair_rows.segment_sum(d_pair)),
                    (pair.T @ d_msg, d_msg.sum(axis=0, keepdims=True),
                     upd_in.T @ d_hid, d_hid.sum(axis=0, keepdims=True),
                     hidden.T @ go, go.sum(axis=0, keepdims=True)))

        return rates, backward

    g.params = weights
    return g


# Each scheme is a step and its discrete adjoint.  A step maps z to the next
# state and the backward of every field evaluation, in evaluation order; its
# adjoint takes that step's backwards, the step's own gradient block G and
# the next state's total gradient a, yields the weight gradients newest
# evaluation first, and returns z's total gradient.  Both repeat, operation
# for operation, the step as a chain of tape primitives (smul, add, one node
# per field evaluation; tests/stagewise_rollout.py keeps it as the
# reference), and the adjoint adds up every gradient in the order that
# chain's backward sweep would, so gradients keep every bit.

def _evaluation_adjoint(backward, go):
    z_terms, param_grads = backward(go)
    yield from param_grads
    return z_terms


def _total(*terms):
    return reduce(operator.add, terms)  # ((t0 + t1) + t2) + ...


def _euler(z, g, h):
    k1, back1 = g(z)
    return z + k1 * h, (back1,)


def _euler_adjoint(G, a, backs, h):
    (back1,) = backs
    d1 = yield from _evaluation_adjoint(back1, a * h)
    return _total(G, a, *d1)


def _heun(z, g, h):
    k1, back1 = g(z)
    k2, back2 = g(z + k1 * h)
    return z + (k1 + k2) * (h / 2.0), (back1, back2)


def _heun_adjoint(G, a, backs, h):
    back1, back2 = backs
    b = a * (h / 2.0)
    c2 = _total(*(yield from _evaluation_adjoint(back2, b)))
    d1 = yield from _evaluation_adjoint(back1, b + c2 * h)
    return _total(G, a, c2, *d1)


def _rk4(z, g, h):
    k1, back1 = g(z)
    k2, back2 = g(z + k1 * (h / 2.0))
    k3, back3 = g(z + k2 * (h / 2.0))
    k4, back4 = g(z + k3 * h)
    incr = (k1 + k2 * 2.0) + (k3 * 2.0 + k4)
    return z + incr * (h / 6.0), (back1, back2, back3, back4)


def _rk4_adjoint(G, a, backs, h):
    back1, back2, back3, back4 = backs
    b = a * (h / 6.0)
    b2 = b * 2.0
    c4 = _total(*(yield from _evaluation_adjoint(back4, b)))
    c3 = _total(*(yield from _evaluation_adjoint(back3, b2 + c4 * h)))
    c2 = _total(*(yield from _evaluation_adjoint(back2, b2 + c3 * (h / 2.0))))
    d1 = yield from _evaluation_adjoint(back1, b + c2 * (h / 2.0))
    return _total(G, a, c4, c3, c2, *d1)


_LEG_SCHEMES = {
    "euler": (_euler, _euler_adjoint),
    "heun": (_heun, _heun_adjoint),
    "rk4": (_rk4, _rk4_adjoint),
}


def _leg(start: Tensor, g, n_steps: int, h: float, scheme: str, tag: str) -> Tensor:
    """n_steps of `scheme` with step h from `start`, as one tape node whose
    value stacks the K+1 states and whose backward is the scheme's discrete
    adjoint: the exact gradient of the unrolled solver
    (discretize-then-optimize)."""
    if scheme not in _LEG_SCHEMES:
        raise ConfigurationError(f"unknown rollout scheme {scheme!r}")
    step, adjoint = _LEG_SCHEMES[scheme]
    n, d = start.value.shape
    states = np.empty((n_steps + 1, n, d))
    states[0] = start.value
    backs = []
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked below
        for k in range(n_steps):
            z, step_backs = step(states[k], g, h)
            if not np.all(np.isfinite(z)):
                raise RolloutDivergedError(f"{tag} rollout diverged at step {k + 1}", step=k + 1)
            states[k + 1] = z
            backs.append(step_backs)

    def bwd(G):
        # holds arrays only: a Tensor here would tie the tape into a cycle
        G = G.reshape(states.shape)
        a = G[-1]
        for k in range(n_steps - 1, -1, -1):
            a = yield from adjoint(G[k], a, backs[k], h)
        yield a

    weights = tuple(w.idx for w in g.params)
    parents = weights * sum(len(step_backs) for step_backs in backs) + (start.idx,)
    return start.tape._record("rollout", states.reshape(-1, d), parents, bwd)


def rollout_forward(z0: Tensor, g, n_steps: int, dt: float, scheme: str = "rk4") -> Tensor:
    """Unrolled forward integration of the field g (see make_ode_func), one
    tape node: ((K+1) * n, d_z) stacked states, rows k*n:(k+1)*n at z(t_k)."""
    return _leg(z0, g, n_steps, dt, scheme, "forward")


def rollout_reverse(z_end: Tensor, g, n_steps: int, dt: float, scheme: str = "rk4") -> Tensor:
    """Integrate -g from the forward endpoint, as g with step -dt (bitwise
    the same: every scheme here scales each field value by a step).

    Block j of the stacked result sits at reverse index t'_j, so it pairs
    with forward index K - j.
    """
    return _leg(z_end, g, n_steps, -dt, scheme, "reverse")


DECODE_PARAMS = ("dec.b2", "dec.W2", "dec.b1", "dec.W1")


def decode(tape: Tape, leaves: dict[str, Tensor], config: ModelConfig, Z: Tensor) -> Tensor:
    """Map stacked latent rows, such as a rollout leg's, to observation
    space row by row: ((K+1)*n_rows, d_z) -> ((K+1)*n_rows, d_obs).

    relu(Z W1 + b1) W2 + b2 as one tape node.  Its backward keeps only Z
    and recomputes the hidden layer from it, and yields the gradients of
    b2, W2, b1, W1 and Z, each computed as the chain of primitives
    (matmul, add_bias, relu, matmul, add_bias) computes it, so every bit
    matches that chain's."""
    weights = tuple(leaves[name] for name in DECODE_PARAMS)
    b2, W2, b1, W1 = (w.value for w in weights)
    z = Z.value
    if z.ndim != 2 or z.shape[1] != W1.shape[0]:
        raise ShapeError(f"decode needs (rows, {W1.shape[0]}) latent rows, got {z.shape}")
    out = np.maximum(z @ W1 + b1, 0.0) @ W2 + b2

    def bwd(g):
        pre = z @ W1 + b1
        mask = pre > 0.0
        hidden = np.maximum(pre, 0.0, out=pre)
        yield g.sum(axis=0, keepdims=True)
        yield hidden.T @ g
        del hidden, pre
        d_pre = (g @ W2.T) * mask
        yield d_pre.sum(axis=0, keepdims=True)
        yield z.T @ d_pre
        yield d_pre @ W1.T

    return tape._record("decode", out, tuple(w.idx for w in weights) + (Z.idx,), bwd)


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
        model = {**doc["model"]}  # a copy; raises TypeError unless a mapping
        for key, value in _RETIRED_MODEL_KEYS.items():
            stored = model.pop(key, value)
            if type(stored) is not type(value) or stored != value:
                raise ArtifactMismatchError(
                    f"checkpoint model {key} is {stored!r}; only {value!r} is supported")
        config = ModelConfig.from_dict(model)
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
