"""The stage-by-stage latent rollout and the op-by-op decoder: the
references that revode.model's one-node rollout legs and one-node decode
must reproduce bit for bit.

Here every field evaluation is its own tape node and every Euler, Heun or
RK4 stage records its own smul and add nodes, and the decoder is a chain of
five primitives, so the tape's generic backward sweep differentiates them.
The legs and the decode in revode.model record one node each and hand-write
that sweep.
"""

import numpy as np

from revode import autodiff as ad
from revode.errors import ConfigurationError, RolloutDivergedError


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
    hidden = ad.relu(ad.add_bias(ad.matmul(Z, leaves["dec.W1"]), leaves["dec.b1"]))
    return ad.add_bias(ad.matmul(hidden, leaves["dec.W2"]), leaves["dec.b2"])
