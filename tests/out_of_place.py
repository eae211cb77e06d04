"""The out-of-place march: the reference that revode.integrators' in-place
schemes and revode.systems' bound spring field must reproduce bit for bit.

Here a derivative is a function f(y, t) -> dy/dt that returns a new array,
and each scheme step builds its stages and its update from fresh arrays, as
the simulators first did.  `call` turns a bound field, `bind(y, out) ->
rate(t)`, into such a function.
"""

import numpy as np


def call(field):
    """The bound field as f(y, t) -> dy/dt, bound on a fresh output per call."""

    def deriv(y, t):
        out = np.empty_like(y)
        field(y, out)(t)
        return out

    return deriv


def euler_step(deriv, y, t, dt):
    return y + dt * deriv(y, t)


def heun_step(deriv, y, t, dt):
    k1 = deriv(y, t)
    k2 = deriv(y + dt * k1, t + dt)
    return y + (dt / 2.0) * (k1 + k2)


def rk4_step(deriv, y, t, dt):
    k1 = deriv(y, t)
    k2 = deriv(y + (dt / 2.0) * k1, t + dt / 2.0)
    k3 = deriv(y + (dt / 2.0) * k2, t + dt / 2.0)
    k4 = deriv(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


STEP_FNS = {"euler": euler_step, "heun": heun_step, "rk4": rk4_step}


def negated(field):
    """The bound field -F, with the bits of -(dy/dt)."""

    def bind(y, out):
        rate = field(y, out)

        def negated_rate(t):
            rate(t)
            np.negative(out, out=out)

        return negated_rate

    return bind


def reference_spring_force(spec, q):
    """The force as first written: every term re-derived at every call, and
    the neighbour sum a row-major matrix product.  Stacked graphs give each
    member its own adjacency."""
    force = np.zeros_like(q)
    anchored_only = (
        spec.kind == "damped_spring" and spec.effective_damped_form == "anchored"
    )
    if spec.n_agents == 1 or anchored_only:
        force -= spec.anchor_k * q
    if spec.n_agents > 1 and not anchored_only:
        adj = spec.resolved_graph().adjacency.astype(np.float64)
        deg = adj.sum(axis=-1)[..., None]
        force -= spec.k * (deg * q - np.matmul(adj, np.ascontiguousarray(q)))
    return force


def reference_spring_deriv(spec):
    """A spring system's out-of-place f(y, t) on packed states."""
    d = spec.d_q

    def deriv(y, t):
        q, p = y[..., :d], y[..., d:]
        dp = reference_spring_force(spec, q)
        if spec.kind == "damped_spring":
            dp = dp - spec.gamma * p / spec.m
        elif spec.kind == "forced_spring":
            dp = dp - spec.k1 * np.cos(spec.omega * t)
        return np.concatenate([p / spec.m, dp], axis=-1)

    return deriv
