"""Benchmark dynamical systems: spring networks, a triple pendulum on
sticks, and a 3-D reversible strange attractor.

`make_derivative(spec)` resolves the system's kind and constants once and
returns its field in one in-place form: `bind(y, out) -> rate(t)`, on
packed states y = [q | p], positions and momenta concatenated on the last
axis, (..., n_agents, d_q + d_p).  `bind` takes the views of y and out (and
any scratch) once; each `rate(t)` then writes dy/dt at y's current contents
into out through `out=` ufunc calls (a spring's, at a scalar t, allocates no
array).  Leading batch axes broadcast through, so ensembles integrate in
one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError, UnsupportedSystemError
from .integrators import StateVector

SYSTEM_KINDS = (
    "simple_spring",
    "forced_spring",
    "damped_spring",
    "triple_pendulum",
    "attractor",
)
DAMPED_FORMS = ("anchored", "pairwise")
# Systems whose agent count is part of their definition.
FIXED_AGENTS = {"triple_pendulum": 3, "attractor": 1}

# The pendulum's angular-velocity solve divides by
# m l^2 (81 cos 2(th1-th2) - 9 cos 2(th1-th3) + 45 cos 2(th2-th3) - 169),
# whose bracket is at most 81 + 9 + 45 - 169 = -34 for any finite angles.
# So the mass matrix can only come near singular through its constants:
# SystemSpec rejects a pendulum whose 34 m l^2 falls below this, and the
# field and the energy then never need to check a state.
PENDULUM_SINGULARITY_EPS = 1e-12


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected interaction structure between agents; leading axes of the
    adjacency stack one graph per member of an ensemble."""

    n: int
    adjacency: np.ndarray  # (..., n, n) bool, symmetric, zero diagonal

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.shape[-2:] != (self.n, self.n):
            raise ConfigurationError(
                f"adjacency shape {adj.shape} does not match n={self.n}"
            )
        if adj.diagonal(axis1=-2, axis2=-1).any():
            raise ConfigurationError("adjacency has self-loops")
        if not np.array_equal(adj, np.swapaxes(adj, -2, -1)):
            raise ConfigurationError("adjacency is not symmetric")
        object.__setattr__(self, "adjacency", adj)

    @staticmethod
    def complete(n: int) -> "InteractionGraph":
        adj = np.ones((n, n), dtype=bool)
        np.fill_diagonal(adj, False)
        return InteractionGraph(n, adj)

    @staticmethod
    def chain(n: int) -> "InteractionGraph":
        adj = np.zeros((n, n), dtype=bool)
        for i in range(n - 1):
            adj[i, i + 1] = adj[i + 1, i] = True
        return InteractionGraph(n, adj)

    @staticmethod
    def from_edges(n: int, edges) -> "InteractionGraph":
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ConfigurationError(f"bad edge ({i}, {j}) for n={n}")
            adj[i, j] = adj[j, i] = True
        return InteractionGraph(n, adj)

    def edges(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(i), int(j)) for i, j in zip(ii, jj)]


@dataclass(frozen=True)
class SystemSpec:
    """Parameters fully determining one benchmark system.

    dim is the spatial dimension of spring systems (the pendulum and
    attractor fix their own state dimensions).  k0 is the self-spring
    constant used whenever an agent is anchored (single-ball systems, and
    the anchored damped form); it defaults to k.
    """

    kind: str
    n_agents: int = 1
    dim: int = 1
    m: float = 1.0
    k: float = 0.1
    k0: Optional[float] = None
    gamma: float = 10.0
    k1: float = 10.0
    omega: float = 1.0
    length: float = 1.0
    g: float = 9.8
    damped_form: Optional[str] = None  # 'anchored' | 'pairwise'
    graph: Optional[InteractionGraph] = None

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ConfigurationError(
                f"unknown system kind {self.kind!r}; expected one of {SYSTEM_KINDS}"
            )
        if self.n_agents != FIXED_AGENTS.get(self.kind, self.n_agents):
            raise ConfigurationError(
                f"{self.kind} requires n_agents={FIXED_AGENTS[self.kind]}, got {self.n_agents}")
        if self.n_agents < 1 or self.dim < 1:
            raise ConfigurationError(
                f"n_agents and dim must be >= 1, got {self.n_agents} and {self.dim}")
        if self.damped_form not in (None, *DAMPED_FORMS):
            raise ConfigurationError(
                f"damped_form must be 'anchored' or 'pairwise', got {self.damped_form!r}"
            )
        constants = [("m", self.m), ("k", self.k), ("k0", self.anchor_k), ("gamma", self.gamma),
                     ("k1", self.k1), ("omega", self.omega), ("length", self.length),
                     ("g", self.g)]
        for name, value in constants:
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if name in ("m", "k", "k0", "length") and not value > 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not self.gamma >= 0:
            raise ConfigurationError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind == "triple_pendulum" and 34.0 * self.m * self.length**2 < PENDULUM_SINGULARITY_EPS:
            raise ConfigurationError(
                f"m * length**2 must be >= {PENDULUM_SINGULARITY_EPS / 34.0:.3g} for a "
                f"non-singular pendulum mass matrix, got m={self.m}, length={self.length}")
        if self.graph is not None and self.graph.n != self.n_agents:
            raise ConfigurationError(
                f"graph has {self.graph.n} nodes but spec has {self.n_agents} agents"
            )

    @property
    def is_spring(self) -> bool:
        return self.kind.endswith("_spring")

    @property
    def anchor_k(self) -> float:
        return self.k if self.k0 is None else self.k0

    @property
    def effective_damped_form(self) -> str:
        if self.damped_form is not None:
            return self.damped_form
        return "anchored" if self.n_agents == 1 else "pairwise"

    @property
    def d_q(self) -> int:
        if self.kind == "triple_pendulum":
            return 1
        if self.kind == "attractor":
            return 3
        return self.dim

    @property
    def d_p(self) -> int:
        if self.kind == "attractor":
            return 0
        return self.d_q

    @property
    def feature_dim(self) -> int:
        return self.d_q + self.d_p

    def resolved_graph(self) -> InteractionGraph:
        if self.graph is not None:
            return self.graph
        if self.kind == "triple_pendulum":
            return InteractionGraph.chain(3)
        return InteractionGraph.complete(self.n_agents)

    @cached_property
    def _pendulum_terms(self):
        """(gravity coefficients, prefactors) of the pendulum's three
        momentum rates, built once per spec.  The third stick's dL/dtheta3
        carries a positive prefactor (all theta3 terms enter the Lagrangian
        through +cos(theta_i - theta_3) and +cos(theta_3)); the small-angle
        limit must be restoring, pd3 ~ -(1/2) m l g theta3."""
        half_ml = 0.5 * self.m * self.length
        g = self.g
        return np.array([5.0 * g, 3.0 * g, -g]), np.array([-half_ml, -half_ml, half_ml])

    @cached_property
    def _spring_terms(self):
        """(k, degree column, float adjacency), resolved once per spec for the
        force and potential to read at every evaluation; anchored systems pull
        each agent to the origin and have neither of the last two."""
        if self.n_agents == 1 or (
            self.kind == "damped_spring" and self.effective_damped_form == "anchored"
        ):
            return self.anchor_k, None, None
        adj = self.resolved_graph().adjacency.astype(np.float64)
        adj.flags.writeable = False
        return self.k, adj.sum(axis=-1)[..., None], adj

    def params_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_agents": self.n_agents,
            "dim": self.dim,
            "m": self.m,
            "k": self.k,
            "k0": self.anchor_k,
            "gamma": self.gamma,
            "k1": self.k1,
            "omega": self.omega,
            "length": self.length,
            "g": self.g,
            "damped_form": self.effective_damped_form,
            "edges": self.resolved_graph().edges(),
        }

    @staticmethod
    def from_params_dict(d: dict) -> "SystemSpec":
        """The spec of a `params_dict`; a missing constant takes its default."""
        optional = ("dim", "m", "k", "k0", "gamma", "k1", "omega", "length", "g", "damped_form")
        return SystemSpec(
            kind=d["kind"], n_agents=d["n_agents"],
            graph=InteractionGraph.from_edges(d["n_agents"], d.get("edges", [])),
            **{name: d[name] for name in optional if name in d},
        )


# ----------------------------------------------------------------- springs

def _spring_potential(spec: SystemSpec, q: np.ndarray) -> np.ndarray:
    k, deg, adj = spec._spring_terms
    if deg is None:
        return 0.0 + 0.5 * k * np.sum(q * q, axis=(-2, -1))
    diff = q[..., :, None, :] - q[..., None, :, :]  # (..., n, n, d)
    sq = np.sum(diff * diff, axis=-1)
    # double sum over ordered pairs with the extra 1/2 in front
    return 0.0 + 0.5 * 0.5 * k * np.sum(adj * sq, axis=(-2, -1))


def _spring_field(spec: SystemSpec):
    d, m, gamma, k1, omega = spec.d_q, spec.m, spec.gamma, spec.k1, spec.omega
    damped, forced = spec.kind == "damped_spring", spec.kind == "forced_spring"
    k, deg, adj = spec._spring_terms

    def bind(y, out):
        q, p, dq, dp = y[..., :d], y[..., d:], out[..., :d], out[..., d:]
        s = np.empty_like(q)  # A q, then the damping term
        # A packed state stores q's last axis first (`StateVector.packed`), where
        # A q is fastest as (q^T A)^T, A being symmetric, straight into that
        # layout: the same exact 0/1 products added in the same order, so the
        # bits of A q.  One column keeps A q's own matrix-vector product.
        q_t, s_t = q.swapaxes(-1, -2), s.swapaxes(-1, -2)

        def rate(t):
            np.divide(p, m, out=dq)
            if deg is None:
                np.multiply(k, q, out=dp)
            else:  # sum_{j in N_i} (q_i - q_j) = deg_i q_i - (A q)_i
                if d == 1:
                    np.matmul(adj, q, out=s)
                else:
                    np.matmul(q_t, adj, out=s_t)
                np.multiply(k, np.subtract(np.multiply(deg, q, out=dp), s, out=dp), out=dp)
            np.subtract(0.0, dp, out=dp)  # not -dp: a zero force is +0.0, as 0.0 - 0.0 is
            if damped:
                np.subtract(dp, np.divide(np.multiply(gamma, p, out=s), m, out=s), out=dp)
            elif forced:
                np.subtract(dp, k1 * np.cos(omega * t), out=dp)

        return rate

    return bind


# ------------------------------------------------------------- pendulum

def pendulum_mass_matrix(theta: np.ndarray, m: float, length: float) -> np.ndarray:
    """Angular-momentum map p = M(theta) thetadot for three uniform sticks.

    theta has shape (..., 3); the result has shape (..., 3, 3).
    """
    th1, th2, th3 = theta[..., 0], theta[..., 1], theta[..., 2]
    c12 = np.cos(th1 - th2)
    c13 = np.cos(th1 - th3)
    c23 = np.cos(th2 - th3)
    ml2 = m * length * length
    rows = np.empty(th1.shape + (3, 3), dtype=np.float64)
    rows[..., 0, 0] = 7.0 / 3.0
    rows[..., 0, 1] = 1.5 * c12
    rows[..., 0, 2] = 0.5 * c13
    rows[..., 1, 0] = 1.5 * c12
    rows[..., 1, 1] = 4.0 / 3.0
    rows[..., 1, 2] = 0.5 * c23
    rows[..., 2, 0] = 0.5 * c13
    rows[..., 2, 1] = 0.5 * c23
    rows[..., 2, 2] = 1.0 / 3.0
    return ml2 * rows


# The pendulum's rates in stacked form.  Every entry takes the float
# operations of the per-term formula in its order, so each bit matches:
# x - c y is taken as x + (-c) y and 1 y as y, both exact, and a sum along
# a last axis of five, three or two terms adds left to right.
#
# Cosine arguments: 2(th_i - th_j) for ij = 12, 13, 23, then th_i - th_j,
# then th1 + th2 - 2 th3, th1 - 2 th2 + th3 and 2 th1 - th2 - th3.
_PEND_DIFF_I, _PEND_DIFF_J = np.array([0, 0, 1]), np.array([1, 2, 2])
_PEND_TRI = np.array([[1.0, 1.0, -2.0], [1.0, -2.0, 1.0], [2.0, -1.0, -1.0]])
# Angle-rate numerator r: sum over n of (coef * p[mom]) * cos[arg], then
# _PEND_LAST[r] * p[r].  Args: 0-2 the doubled differences, 3-5 the
# differences, 6-8 the three-angle combinations.
_PEND_NUM_COEF = np.array([
    [9.0, 27.0, -9.0, 21.0, -27.0],
    [27.0, -9.0, 9.0, -27.0, 57.0],
    [21.0, -27.0, -27.0, 57.0, 81.0],
])
_PEND_NUM_MOM = np.array([[0, 1, 1, 2, 2], [0, 0, 1, 2, 2], [0, 0, 1, 1, 2]])
_PEND_NUM_ARG = np.array([[2, 3, 6, 4, 7], [3, 6, 1, 8, 5], [4, 7, 8, 5, 0]])
_PEND_LAST = np.array([-23.0, -47.0, -143.0])
# Momentum rate r: prefactor * ((sum over n of ((coef * w[a]) * w[b]) * l * s[arg])
# + gravity coefficient * sin(th_r)), with sines of (th1 - th2, th1 - th3,
# th2 - th3).
_PEND_MOM_COEF = np.array([[3.0, 1.0], [-3.0, 1.0], [1.0, 1.0]])
_PEND_MOM_A = np.array([[0, 0], [0, 1], [0, 1]])
_PEND_MOM_B = np.array([[1, 2], [1, 2], [2, 2]])
_PEND_MOM_ARG = np.array([[0, 1], [0, 2], [1, 2]])


def _pendulum_field(spec: SystemSpec):
    """Angular velocities from the inverted mass matrix, and the momentum
    rates dL/dtheta, for states y = [theta | p] with any leading axes: one
    np.cos call on the nine distinct cosine arguments and one np.sin call
    on six sines."""
    ml2, length = spec.m * spec.length**2, spec.length
    gravity, prefactor = spec._pendulum_terms

    def bind(y, out):
        th, p, w, dp = y[..., 0], y[..., 1], out[..., 0], out[..., 1]

        def rate(t):
            diff = th[..., _PEND_DIFF_I] - th[..., _PEND_DIFF_J]
            tri = np.add.reduce(th[..., None, :] * _PEND_TRI, axis=-1)
            cos = np.cos(np.concatenate([2.0 * diff, diff, tri], axis=-1))
            sin = np.sin(np.concatenate([diff, th], axis=-1))

            den = ml2 * (81.0 * cos[..., 0] - 9.0 * cos[..., 1] + 45.0 * cos[..., 2] - 169.0)
            num = np.add.reduce((_PEND_NUM_COEF * p[..., _PEND_NUM_MOM]) * cos[..., _PEND_NUM_ARG], axis=-1)
            np.divide(6.0 * (num + _PEND_LAST * p), den[..., None], out=w)

            coupling = ((_PEND_MOM_COEF * w[..., _PEND_MOM_A]) * w[..., _PEND_MOM_B]) * length
            torque = np.add.reduce(coupling * sin[..., _PEND_MOM_ARG], axis=-1)
            np.multiply(prefactor, torque + gravity * sin[..., 3:], out=dp)

        return rate

    return bind


def pendulum_energy(spec: SystemSpec, state: StateVector) -> np.ndarray:
    """Total energy T + V of the stick pendulum (batched)."""
    theta, pvec = state.q[..., 0], state.p[..., 0]
    th1, th2, th3 = theta[..., 0], theta[..., 1], theta[..., 2]
    mass = pendulum_mass_matrix(theta, spec.m, spec.length)
    thd = np.linalg.solve(mass, pvec[..., None])[..., 0]
    kinetic = 0.5 * np.einsum("...i,...ij,...j->...", thd, mass, thd)
    mgl = spec.m * spec.g * spec.length
    potential = -mgl * (
        2.5 * np.cos(th1) + 1.5 * np.cos(th2) + 0.5 * np.cos(th3)
    )
    return kinetic + potential


# ------------------------------------------------------------ attractor

def _attractor_field(y, out):
    """The single agent's (x, y, z) rates; the system has no momenta or constants."""
    qx, qy, qz = y[..., 0, 0], y[..., 0, 1], y[..., 0, 2]
    dx, dy, dz = out[..., 0, 0], out[..., 0, 1], out[..., 0, 2]

    def rate(t):
        np.add(1.0, qy * qz, out=dx)
        np.multiply(-qx, qz, out=dy)
        np.add(qy * qy, 2.0 * qy * qz, out=dz)

    return rate


# ------------------------------------------------------------- public API

def make_derivative(spec: SystemSpec):
    """The system's packed field for integrators, `bind(y, out) -> rate(t)`,
    with its kind resolved here, once, and its constants bound: `rate(t)`
    writes dy/dt at the current contents of y into out."""
    if spec.is_spring:
        return _spring_field(spec)
    if spec.kind == "triple_pendulum":
        return _pendulum_field(spec)
    return _attractor_field  # SystemSpec admits no other kind


def eval_derivative(spec: SystemSpec, state: StateVector, t: float = 0.0) -> StateVector:
    """Time derivative of the state under the system's equations of motion:
    the field bound on [q | p] and a fresh output, split back into row-major
    q and p rates."""
    d = state.q.shape[-1]
    y = np.concatenate([state.q, state.p], axis=-1)
    dy = np.empty_like(y)
    make_derivative(spec)(y, dy)(t)
    return StateVector(dy[..., :d].copy(), dy[..., d:].copy())


def mechanical_energy(spec: SystemSpec, state: StateVector) -> np.ndarray:
    """Kinetic + potential for any system that has one."""
    if spec.is_spring:
        kinetic = np.sum(state.p * state.p, axis=(-2, -1)) / (2.0 * spec.m)
        return kinetic + _spring_potential(spec, state.q)
    if spec.kind == "triple_pendulum":
        return pendulum_energy(spec, state)
    raise UnsupportedSystemError(f"{spec.kind!r} has no mechanical energy")


def mechanical_energy_rate(spec: SystemSpec, state: StateVector, t: float = 0.0) -> np.ndarray:
    """Predicted d(mechanical)/dt along trajectories of the system."""
    if spec.kind == "simple_spring":
        return np.zeros(state.q.shape[:-2], dtype=np.float64)
    if spec.kind == "damped_spring":
        psq = np.sum(state.p * state.p, axis=(-2, -1))
        return -spec.gamma * psq / (spec.m * spec.m)
    if spec.kind == "forced_spring":
        qdot_sum = np.sum(state.p, axis=(-2, -1)) / spec.m
        return -qdot_sum * spec.k1 * np.cos(spec.omega * t)
    raise UnsupportedSystemError(
        f"mechanical_energy_rate is defined for spring systems, not {spec.kind!r}"
    )


def classify_reversibility(spec: SystemSpec) -> str:
    """Conservation/reversibility class used by the verification suites."""
    if spec.kind in ("simple_spring", "triple_pendulum"):
        return "conservative_reversible"
    if spec.kind in ("forced_spring", "attractor"):
        return "nonconservative_reversible"
    if spec.kind == "damped_spring":
        return "nonconservative_irreversible"
    return "unknown"


def analytic_solution_simple_spring_1d(q0, p0, k, m, t):
    """Closed-form anchored oscillator: q'' = -(k/m) q.

    Returns (q(t), p(t)); t may be an array.
    """
    if k <= 0 or m <= 0:
        raise ConfigurationError("k and m must be positive")
    t = np.asarray(t, dtype=np.float64)
    w = np.sqrt(k / m)
    q = q0 * np.cos(w * t) + (p0 / (m * w)) * np.sin(w * t)
    p = -q0 * m * w * np.sin(w * t) + p0 * np.cos(w * t)
    return q, p
