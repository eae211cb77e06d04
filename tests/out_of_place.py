"""The out-of-place march: the reference that revode.integrators' in-place
schemes and revode.systems' bound fields must reproduce bit for bit.

Here a derivative is a function f(y, t) -> dy/dt that returns a new array,
and each scheme step builds its stages and its update from fresh arrays, as
the simulators first did.  `call` turns a bound field, `bind(y, out) ->
rate(t)`, into such a function, and `bound` turns one back.  The reference
fields take every term of each system's equations of motion as first
written, one at a time, re-deriving every constant at every call.
"""

import numpy as np

from revode.integrators import StateVector


def call(field):
    """The bound field as f(y, t) -> dy/dt, bound on a fresh output per call."""

    def deriv(y, t):
        out = np.empty_like(y)
        field(y, out)(t)
        return out

    return deriv


def bound(deriv):
    """The out-of-place f(y, t) as a bound field, writing a copy of f's result."""

    def bind(y, out):
        def rate(t):
            out[...] = deriv(y, t)

        return rate

    return bind


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


def reference_pendulum_angle_rates(spec, state):
    """The angular velocities as first written, each cosine computed in
    every rate that uses it."""
    th1, th2, th3 = (state.q[..., i, 0] for i in range(3))
    p1, p2, p3 = (state.p[..., i, 0] for i in range(3))
    den = spec.m * spec.length**2 * (
        81.0 * np.cos(2.0 * (th1 - th2)) - 9.0 * np.cos(2.0 * (th1 - th3))
        + 45.0 * np.cos(2.0 * (th2 - th3)) - 169.0
    )
    th1d = 6.0 * (
        9.0 * p1 * np.cos(2.0 * (th2 - th3)) + 27.0 * p2 * np.cos(th1 - th2)
        - 9.0 * p2 * np.cos(th1 + th2 - 2.0 * th3) + 21.0 * p3 * np.cos(th1 - th3)
        - 27.0 * p3 * np.cos(th1 - 2.0 * th2 + th3) - 23.0 * p1
    ) / den
    th2d = 6.0 * (
        27.0 * p1 * np.cos(th1 - th2) - 9.0 * p1 * np.cos(th1 + th2 - 2.0 * th3)
        + 9.0 * p2 * np.cos(2.0 * (th1 - th3)) - 27.0 * p3 * np.cos(2.0 * th1 - th2 - th3)
        + 57.0 * p3 * np.cos(th2 - th3) - 47.0 * p2
    ) / den
    th3d = 6.0 * (
        21.0 * p1 * np.cos(th1 - th3) - 27.0 * p1 * np.cos(th1 - 2.0 * th2 + th3)
        - 27.0 * p2 * np.cos(2.0 * th1 - th2 - th3) + 57.0 * p2 * np.cos(th2 - th3)
        + 81.0 * p3 * np.cos(2.0 * (th1 - th2)) - 143.0 * p3
    ) / den
    return np.stack([th1d, th2d, th3d], axis=-1)[..., None]


def reference_pendulum_momentum_rates(spec, state):
    """The momentum rates as first written, one term at a time on top of the
    reference angular velocities."""
    th1, th2, th3 = (state.q[..., i, 0] for i in range(3))
    th1d, th2d, th3d = (reference_pendulum_angle_rates(spec, state)[..., i, 0] for i in range(3))
    m, length, g = spec.m, spec.length, spec.g
    half_ml = 0.5 * m * length
    pd1 = -half_ml * (
        3.0 * th1d * th2d * length * np.sin(th1 - th2)
        + th1d * th3d * length * np.sin(th1 - th3) + 5.0 * g * np.sin(th1)
    )
    pd2 = -half_ml * (
        -3.0 * th1d * th2d * length * np.sin(th1 - th2)
        + th2d * th3d * length * np.sin(th2 - th3) + 3.0 * g * np.sin(th2)
    )
    pd3 = +half_ml * (
        th1d * th3d * length * np.sin(th1 - th3)
        + th2d * th3d * length * np.sin(th2 - th3) - g * np.sin(th3)
    )
    return np.stack([pd1, pd2, pd3], axis=-1)[..., None]


def reference_attractor_rates(y):
    """The attractor's (x, y, z) rates as first written, on states (..., 1, 3)."""
    x, yy, z = y[..., 0, 0], y[..., 0, 1], y[..., 0, 2]
    return np.stack([1.0 + yy * z, -x * z, yy * yy + 2.0 * yy * z], axis=-1)[..., None, :]


def reference_deriv(spec):
    """Any system's out-of-place f(y, t) on packed states [q | p]."""
    if spec.is_spring:
        return reference_spring_deriv(spec)
    if spec.kind == "attractor":
        return lambda y, t: reference_attractor_rates(y)

    def pendulum(y, t):
        state = StateVector(y[..., :1], y[..., 1:])
        return np.concatenate([reference_pendulum_angle_rates(spec, state),
                               reference_pendulum_momentum_rates(spec, state)], axis=-1)

    return pendulum
