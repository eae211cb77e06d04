"""Benchmark dynamical systems: spring networks, a triple pendulum on
sticks, and a 3-D reversible strange attractor.

`make_derivative(spec)` resolves the system's kind and constants once and
returns its field in one in-place form: `bind(y, out) -> rate(t)`, on
packed states y = [q | p], positions and momenta concatenated on the last
axis, (..., n_agents, d_q + d_p).  `bind` takes the views of y and out (and
any scratch) once; each `rate(t)` then writes dy/dt at y's current contents
into out through ufunc calls on arrays only, constants bound once as 0-d
arrays and outputs passed by position, for the reason `integrators` gives.
Leading batch axes broadcast through, so ensembles integrate in one pass.
Element-wise calls take the memory-order views `np.moveaxis(a, -1, 0)`,
C-contiguous on a packed state for any number of members, and `matmul` the
logical ones it needs.  A spring rate takes [deg q | gamma p] from one
product and the graph force as k (s - b), s = A q, with the reference bits
but for the sign of a force that underflows to zero (see `_spring_field`).
The pendulum keeps its intermediates in one slot buffer per bind and folds
one gather of stacked factors per product group by `np.multiply.reduce`.
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
        if self.adjacency.ndim > 2:
            raise ConfigurationError("a stacked graph has one edge list per member, not one")
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
        """(k, degrees, float adjacency), resolved once per spec for the
        force and potential to read at every evaluation; anchored systems pull
        each agent to the origin and have neither of the last two."""
        if self.n_agents == 1 or (
            self.kind == "damped_spring" and self.effective_damped_form == "anchored"
        ):
            return self.anchor_k, None, None
        adj = self.resolved_graph().adjacency.astype(np.float64)
        adj.flags.writeable = False
        return self.k, adj.sum(axis=-1), adj

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
    d, k1, omega = spec.d_q, spec.k1, spec.omega
    damped, forced = spec.kind == "damped_spring", spec.kind == "forced_spring"
    k, deg, adj = spec._spring_terms
    m, k, gamma, zero = (np.array(c) for c in (spec.m, k, spec.gamma, 0.0))
    divide, multiply, subtract, matmul = np.divide, np.multiply, np.subtract, np.matmul

    def bind(y, out):
        q, p, dq, dp = y[..., :d], y[..., d:], out[..., :d], out[..., d:]
        # y_m w = [b | g] = [deg q | gamma p] ([k q | gamma p] anchored; g only
        # when damped).  s - b is -(b - s), +0.0 at b == s, and s = A q, summed
        # from +0.0, is never -0.0, so k (s - b) has the bits of 0 - k (b - s)
        # but for -0.0 where k (b - s) underflows to zero from b > s.  A q runs
        # as (q^T A)^T on q's memory order (A symmetric; same bits) unless d = 1.
        s = np.empty_like(q)
        aq = (adj, q, s) if d == 1 else (q.swapaxes(-1, -2), adj, s.swapaxes(-1, -2))
        y_m, p_m, dq_m, dp_m, s_m = (np.moveaxis(a, -1, 0) for a in (y, p, dq, dp, s))
        y_w = y_m if damped else y_m[:d]
        w, bg = np.empty((2,) + y_w.shape)
        w[:d], w[d:] = k if deg is None else deg, gamma
        b, g = bg[:d], bg[d:]

        def rate(t):
            divide(p_m, m, dq_m)
            multiply(y_w, w, bg)
            if deg is None:
                subtract(zero, b, dp_m)  # not -b: a zero force is +0.0, as 0.0 - 0.0 is
            else:  # -k sum_{j in N_i} (q_i - q_j) = k ((A q)_i - deg_i q_i)
                matmul(*aq)
                multiply(k, subtract(s_m, b, dp_m), dp_m)
            if damped:
                subtract(dp_m, divide(g, m, g), dp_m)
            elif forced:
                subtract(dp, k1 * np.cos(omega * t), dp)  # t may vary by member

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


# The pendulum's rates as products of stacked factors.  Every product and
# sum takes the float operations of the per-term formula in its order, so
# each bit matches: x - c y is taken as x + (-c) y, 1 y as y, and a term with
# fewer factors is padded with 1s, all exact.  np.multiply.reduce and
# np.add.reduce over a leading axis fold left to right, but a sum starts from
# its identity +0.0 and so turns all -0.0 terms into +0.0; seeded with -0.0
# (-0.0 + x is x for every x) it keeps the per-term sign of zero too.  Only
# the angle-rate numerators need the seed: the denominator is never zero,
# cos is even, and the momentum sums are two np.add calls.
#
# The field's buffer has one slot per quantity, each as wide as the member
# stack: 0-2 2(th_i - th_j) for ij = 12, 13, 23; 3 zero; 4-6 th1 + th2 -
# 2 th3, th1 - 2 th2 + th3 and 2 th1 - th2 - th3; 7-9 th_i - th_j; 10-12
# theta; 13-15 p; 16-25 the cosines of slots 0-9 (19 is cos 0 = 1); 26-31
# the sines of slots 7-12; 32-34 the angular velocities w; 35-58 the
# constants: _PEND_NUM_COEF row by row, 3, -3, the gravity coefficients, l.
_PEND_TRI = np.array([[1.0, 1.0, -2.0], [1.0, -2.0, 1.0], [2.0, -1.0, -1.0]]).T
_PEND_NUM_COEF = np.array([
    [9.0, 27.0, -9.0, 21.0, -27.0, -23.0],
    [27.0, -9.0, 9.0, -27.0, 57.0, -47.0],
    [21.0, -27.0, -27.0, 57.0, 81.0, -143.0],
])
_PEND_DEN_COEF = np.array([81.0, -9.0, 45.0, -169.0])  # times cosine slots 16-19
# Slot tables, written with rate r in row r and stored factor first, then
# term and rate on one axis (a 2-D index gathers faster than a 3-D one).
# Angle-rate numerator r: sum over n of coef * p * cos.
_PEND_NUM = np.array([
    35 + np.arange(18).reshape(3, 6),  # coefficients
    [[13, 14, 14, 15, 15, 13], [13, 13, 14, 15, 15, 14], [13, 13, 14, 14, 15, 15]],  # p
    [[18, 23, 20, 24, 21, 19], [23, 20, 17, 22, 25, 19], [24, 21, 22, 25, 16, 19]],  # cosines
]).transpose(0, 2, 1).reshape(3, 18)
# Momentum rate r: prefactor * ((term 0 + term 1) + gravity term), the
# terms coef * w[a] * w[b] * l * sin(th_i - th_j), the gravity term its
# coefficient * sin(th_r) * 1 * 1 * 1.
_PEND_MOM = np.array([
    [[53, 19, 55], [54, 19, 56], [19, 19, 57]],  # 3, -3 or 1; gravity coefficient
    [[32, 32, 29], [32, 33, 30], [32, 33, 31]],  # w[a]; sin(th_r)
    [[33, 34, 19], [33, 34, 19], [34, 34, 19]],  # w[b]; 1
    [[58, 58, 19]] * 3,                          # l; 1
    [[26, 27, 19], [26, 28, 19], [27, 28, 19]],  # sin(th_i - th_j); 1
]).transpose(0, 2, 1).reshape(5, 9)


def _pendulum_field(spec: SystemSpec):
    """Angular velocities from the inverted mass matrix, and the momentum
    rates dL/dtheta, for states y = [theta | p] with any leading axes.  Bind
    allocates the slot buffer above, slot axis first, with its zero and its
    constants.  A rate copies [theta | p] in with one copyto, forms the trig
    arguments, and takes one np.cos over slots 0-9 and one np.sin over slots
    7-12.  One gather of (coef, p, cos) factors, folded by
    np.multiply.reduce, gives the numerator terms, summed from -0.0; the
    denominator reads its four cosines as one view; a second gather of
    (coef, w, w, l, sin) factors gives the momentum terms."""
    gravity, prefactor = spec._pendulum_terms
    ml2, two, six = (np.array(c) for c in (spec.m * spec.length**2, 2.0, 6.0))
    consts = np.concatenate([_PEND_NUM_COEF.ravel(), [3.0, -3.0], gravity, [spec.length]])
    add, subtract, multiply, divide, cos, sin = np.add, np.subtract, np.multiply, np.divide, np.cos, np.sin
    add_reduce, multiply_reduce, copyto = np.add.reduce, np.multiply.reduce, np.copyto

    def bind(y, out):
        w_out, dp = (np.moveaxis(out[..., i], -1, 0) for i in (0, 1))
        lead = dp.shape[1:]

        def first(c):  # a constant, term axes first, broadcast over the members
            return c.reshape(c.shape + (1,) * len(lead))

        tri_c, den_c, pre_c = first(_PEND_TRI), first(_PEND_DEN_COEF), first(prefactor)
        buf = np.zeros((59,) + lead)
        buf[35:] = first(consts)
        y_t, th_p = np.moveaxis(y, (-1, -2), (0, 1)), buf[10:16].reshape((2, 3) + lead)
        th1, th2, th3, th23, th_col = buf[10:11], buf[11:12], buf[12:13], buf[11:13], buf[10:13, None]
        doubled, tri, diff, diff12_13, diff23 = buf[:3], buf[4:7], buf[7:10], buf[7:9], buf[9:10]
        cos_arg, cos_v, sin_arg, sin_v = buf[:10], buf[16:26], buf[7:13], buf[26:32]
        den_cos, w = buf[16:20], buf[32:35]
        tri_terms, num_terms, mom_terms = (np.empty(s + lead) for s in ((3, 3), (18,), (9,)))
        den_terms, den, num = np.empty((4,) + lead), np.empty(lead), np.empty((3,) + lead)
        num_by_term, (mom_0, mom_1, mom_2) = (a.reshape((-1, 3) + lead) for a in (num_terms, mom_terms))

        def rate(t):
            copyto(th_p, y_t)
            subtract(th1, th23, diff12_13)
            subtract(th2, th3, diff23)
            multiply(two, diff, doubled)
            add_reduce(multiply(th_col, tri_c, tri_terms), 0, None, tri)
            cos(cos_arg, cos_v)
            sin(sin_arg, sin_v)

            multiply_reduce(buf[_PEND_NUM], 0, None, num_terms)
            add_reduce(num_by_term, 0, None, num, False, -0.0)
            multiply(ml2, add_reduce(multiply(den_c, den_cos, den_terms), 0, None, den), den)
            divide(multiply(six, num, num), den, w)
            copyto(w_out, w)

            multiply_reduce(buf[_PEND_MOM], 0, None, mom_terms)
            add(add(mom_0, mom_1, num), mom_2, num)
            multiply(pre_c, num, dp)

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
    a, b = np.empty(qx.shape), np.empty(qx.shape)
    one, two = np.array(1.0), np.array(2.0)
    add, multiply = np.add, np.multiply

    def rate(t):
        add(one, multiply(qy, qz, a), dx)
        multiply(np.negative(qx, b), qz, dy)
        add(multiply(qy, qy, a), multiply(multiply(two, qy, b), qz, b), dz)

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
    the field bound on the packed [q | p] that `integrate` marches and a
    fresh output of its layout, split back into row-major q and p rates."""
    d = state.q.shape[-1]
    y = state.packed()
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
    return "nonconservative_irreversible"  # damped_spring; SystemSpec admits no other kind


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
