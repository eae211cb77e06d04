"""The stage-by-stage latent rollout and the op-by-op encoder and
decoder: the references that revode.model's one-node rollout legs, encode
and decode must reproduce bit for bit.

Here every field evaluation is its own tape node and every Euler, Heun or
RK4 stage records its own smul and add nodes, the encoder is a chain of
about thirty primitives and the decoder a chain of five, so the tape's
generic backward sweep differentiates them.  The legs, the encode and the
decode in revode.model record one node each and hand-write that sweep.
"""

import numpy as np

import reference_ops as ops
from revode import autodiff as ad
from revode.errors import ConfigurationError, EncodingError, RolloutDivergedError
from revode.model import temporal_encoding


def field_node(g):
    """The array-level field g of make_ode_func as a Tensor op: one tape
    node per evaluation, with z a parent once per term of its gradient."""

    def f(z):
        rates, backward = g(z.value)

        def bwd(go):
            z_terms, param_grads = backward(go)
            return (*z_terms, *param_grads)

        parents = (z.idx, z.idx) + tuple(w.idx for w in g.params)
        return z.tape._record("field", rates, parents, bwd)

    return f


def latent_step(z, f, dt: float, scheme: str):
    if scheme == "euler":
        return ad.add(z, ad.smul(f(z), dt))
    if scheme == "heun":
        k1 = f(z)
        k2 = f(ad.add(z, ad.smul(k1, dt)))
        return ad.add(z, ad.smul(ad.add(k1, k2), dt / 2.0))
    if scheme == "rk4":
        k1 = f(z)
        k2 = f(ad.add(z, ad.smul(k1, dt / 2.0)))
        k3 = f(ad.add(z, ad.smul(k2, dt / 2.0)))
        k4 = f(ad.add(z, ad.smul(k3, dt)))
        incr = ad.add(ad.add(k1, ad.smul(k2, 2.0)), ad.add(ad.smul(k3, 2.0), k4))
        return ad.add(z, ad.smul(incr, dt / 6.0))
    raise ConfigurationError(f"unknown rollout scheme {scheme!r}")


def rollout(z0, f, n_steps: int, dt: float, scheme: str, tag: str) -> list:
    """The K+1 states of a Tensor-level field f, one Tensor each."""
    states = [z0]
    z = z0
    for k in range(n_steps):
        z = latent_step(z, f, dt, scheme)
        if not np.all(np.isfinite(z.value)):
            raise RolloutDivergedError(f"{tag} rollout diverged at step {k + 1}", step=k + 1)
        states.append(z)
    return states


def rollout_forward(z0, g, n_steps: int, dt: float, scheme: str = "rk4"):
    """Drop-in for model.rollout_forward: the stagewise states, stacked by
    one concat node as decode used to stack them."""
    return ad.concat(rollout(z0, field_node(g), n_steps, dt, scheme, "forward"), axis=0)


def rollout_reverse(z_end, g, n_steps: int, dt: float, scheme: str = "rk4"):
    """Drop-in for model.rollout_reverse."""
    return ad.concat(rollout(z_end, field_node(g), n_steps, -dt, scheme, "reverse"), axis=0)


def decode(tape, leaves, config, Z):
    """Drop-in for model.decode: relu(Z W1 + b1) W2 + b2 as five nodes."""
    hidden = ops.relu(ad.add_bias(ad.matmul(Z, leaves["dec.W1"]), leaves["dec.b1"]))
    return ad.add_bias(ad.matmul(hidden, leaves["dec.W2"]), leaves["dec.b2"])


def _linear(x, W, b):
    return ad.add_bias(ad.matmul(x, W), b)


def encode_agent(tape, leaves, config, rel_times, feats, n_valid):
    """Drop-in for model.encode_agent: the masked temporal self-attention
    and attention pooling as a chain of primitives."""
    n_agents, m = rel_times.shape
    n_valid = np.asarray(n_valid, dtype=np.int64)
    if np.any(n_valid < 1):
        raise EncodingError("agent has no observations to encode")
    dm = config.d_model
    valid = np.arange(m)[None, :] < n_valid[:, None]  # (A, m)

    X = tape.const(feats.reshape(n_agents * m, -1))
    H = _linear(X, leaves["enc.embed.W"], leaves["enc.embed.b"])
    H = ad.add(H, tape.const(temporal_encoding(rel_times.reshape(-1), dm)))

    def per_agent(t):
        return ops.reshape(t, (n_agents, m, dm))

    Q = per_agent(ad.matmul(H, leaves["enc.attn.Wq"]))
    K = per_agent(ad.matmul(H, leaves["enc.attn.Wk"]))
    V = per_agent(ad.matmul(H, leaves["enc.attn.Wv"]))
    S = ad.smul(ad.matmul(Q, ops.transpose(K)), 1.0 / np.sqrt(dm))
    if not valid.all():
        S = ad.add(S, tape.const(np.broadcast_to(
            np.where(valid, 0.0, -1e30)[:, None, :], S.shape)))
    A = ops.softmax(S, axis=-1)
    H2 = ad.add(per_agent(H), ops.relu(ad.matmul(A, V)))  # (A, m, dm)

    pool = tape.const((valid / n_valid[:, None])[:, None, :])  # (A, 1, m)
    mean_row = ops.reshape(ad.matmul(pool, H2), (n_agents, dm))
    a = ops.tanh(ad.matmul(mean_row, leaves["enc.pool.Wa"]))
    scores = ops.tanh(ad.matmul(ops.reshape(a, (n_agents, 1, dm)), ops.transpose(H2)))
    u = ad.matmul(ops.mul(scores, pool), H2)
    return ops.reshape(u, (n_agents, dm))
