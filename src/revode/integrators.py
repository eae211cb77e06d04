"""Fixed-step explicit integrators over packed phase-space states.

A state marches as one array y = [q | p]: positions (or angles) q of shape
(..., n_agents, d_q) and momenta p of shape (..., n_agents, d_p),
concatenated on the last axis.  A field is bound once on an input and an
output buffer, `bind(y, out) -> rate(t)` (`systems.make_derivative` builds
one per system), and `rate(t)` writes dy/dt into out.  `integrate` owns its
scheme's state, stage and slope buffers and marches them in place, in the
order of the out-of-place formulas, so every bit is theirs.  Each ufunc call
takes arrays only, its constants bound once as 0-d arrays and its output
passed by position: on small states a call's fixed cost is its whole price,
and a Python-float operand (a NumPy 2 "weak" scalar) or an `out=` keyword
costs more, while a 0-d array runs the same loop to the same bits.  Leading axes
broadcast through the field, so a whole ensemble of trajectories steps in
one call; a single start is an ensemble of one, and a member that leaves
the finite range turns NaN without stopping the others.  The schemes are
element-wise on y, so a packed step has the bits of the same step taken on
q and p apart, and on any view of its buffers.  The steps (and the spring
field) make their ufunc calls on memory-order views, `np.moveaxis(a, -1, 0)`,
C-contiguous on a packed state for any number of members, where the logical
views of two or more members are neither C- nor F-ordered (a slower path).

`StateVector` is the entry and exit container: `integrate` packs a start
(`StateVector.packed`) and unpacks the recorded states into a `Trajectory`.

All schemes are one-step explicit maps; reverse-time integration is done
by integrating the negated field, never by adaptive or implicit tricks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, IntegrationError

SCHEMES = ("euler", "heun", "rk4")


@dataclass
class StateVector:
    """Phase-space point: positions/angles q and momenta p, float64."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.p = np.asarray(self.p, dtype=np.float64)

    def packed(self) -> np.ndarray:
        """[q | p] on the last axis, stored with that axis first, so that q and
        p are each one block of memory rather than interleaved in runs of d."""
        halves = np.concatenate([np.moveaxis(self.q, -1, 0), np.moveaxis(self.p, -1, 0)])
        return np.moveaxis(np.ascontiguousarray(halves), 0, -1)

    def first_nonfinite(self):
        """Return ('q'|'p', flat index) of the first bad entry, or None."""
        for name, arr in (("q", self.q), ("p", self.p)):
            bad = ~np.isfinite(arr)
            if bad.any():
                return name, int(np.flatnonzero(bad)[0])
        return None


def reverse_state(state: StateVector) -> StateVector:
    """The reversing operator: flip momenta, keep positions. An involution."""
    return StateVector(state.q.copy(), -state.p)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k*dt for k = 0..n_steps."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:  # NaN fails too
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1, dtype=np.float64) * self.dt


Field = Callable[[np.ndarray, np.ndarray], Callable[[float], None]]


def _stepper(scheme: str, field: Field, y: np.ndarray, dt: float):
    """step(t), which advances `y` in place by one step of `scheme` of size
    `dt`; the field is bound once per (input, output) buffer pair, and each
    step calls the ufuncs of the out-of-place formula in its order."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    add, mul = np.add, np.multiply
    h, half, sixth, two = (np.array(c) for c in (dt, dt / 2.0, dt / 6.0, 2.0))
    k1 = np.empty_like(y)  # like y, so the field sees y's layout everywhere
    rate1 = field(y, k1)
    if scheme == "euler":
        y, k1 = np.moveaxis(y, -1, 0), np.moveaxis(k1, -1, 0)  # memory order
        def step(t):
            rate1(t)
            add(y, mul(h, k1, k1), y)
        return step
    stage, k2 = np.empty_like(y), np.empty_like(y)
    rate2 = field(stage, k2)
    if scheme == "heun":
        y, k1, stage, k2 = (np.moveaxis(a, -1, 0) for a in (y, k1, stage, k2))
        def step(t):
            rate1(t)
            add(y, mul(h, k1, stage), stage)
            rate2(t + dt)
            add(y, mul(half, add(k1, k2, k1), k1), y)
        return step
    k3, k4 = np.empty_like(y), np.empty_like(y)
    rate3, rate4 = field(stage, k3), field(stage, k4)
    y, k1, stage, k2, k3, k4 = (np.moveaxis(a, -1, 0) for a in (y, k1, stage, k2, k3, k4))
    t_half = dt / 2.0

    def step(t):
        rate1(t)
        add(y, mul(half, k1, stage), stage)
        rate2(t + t_half)
        add(y, mul(half, k2, stage), stage)
        rate3(t + t_half)
        add(y, mul(h, k3, stage), stage)
        rate4(t + dt)
        add(k1, mul(two, k2, k2), k1)
        add(add(k1, mul(two, k3, k3), k1), k4, k1)
        add(y, mul(sixth, k1, k1), y)
    return step


@dataclass
class Trajectory:
    """Recorded states on a uniform grid, plus dataset provenance fields.

    `q` has shape (n_points, ..., n_agents, d_q), likewise `p`; the leading
    axis is time.  `system`/`seed`/`scale` are filled in by the data
    pipeline and stay None/1.0 for raw integrator output.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    system: dict | None = None
    seed: int | None = None
    scale: float = 1.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if len(self.times) != self.q.shape[0] or len(self.times) != self.p.shape[0]:
            raise ConfigurationError(
                f"trajectory has {len(self.times)} timestamps but "
                f"{self.q.shape[0]}/{self.p.shape[0]} recorded states"
            )

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def n_agents(self) -> int:
        return self.q.shape[-2]

    def state(self, k: int) -> StateVector:
        return StateVector(self.q[k], self.p[k])

    def features(self) -> np.ndarray:
        """(n_points, ..., n_agents, d_q + d_p) observation matrix."""
        return np.concatenate([self.q, self.p], axis=-1)


def integrate(
    deriv: Field,
    state0: StateVector,
    grid: TimeGrid,
    scheme: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """March `state0` across `grid` under the packed field `deriv`, recording
    every `record_every`-th step: n_steps//record_every + 1 states including
    the initial one.  A non-finite start raises IntegrationError naming the
    offending entry; a field that raises ends the call.

    A start (..., n_agents, d) is an ensemble, and a single (n_agents, d)
    start is an ensemble of one.  The march runs unchecked, with NumPy's
    warnings silenced, and the escape rule applies once after it: a
    non-finite entry stays non-finite under `y + increment`, so a member
    escapes at the first recorded point where it is not finite and is NaN
    from there on.  Members never interact: the others keep the bits they
    have when integrated alone.
    """
    if record_every < 1 or grid.n_steps % record_every != 0:
        raise ConfigurationError(
            f"record_every={record_every} does not divide n_steps={grid.n_steps}"
        )
    d_q, t0, dt = state0.q.shape[-1], grid.t0, grid.dt
    y = state0.packed()  # marched in place; the buffers keep its layout
    step = _stepper(scheme, deriv, y, dt)
    bad = state0.first_nonfinite()
    if bad is not None:
        raise IntegrationError(
            f"non-finite value in {bad[0]}[{bad[1]}] after step -1 (t={t0:.6g})", step=-1, time=t0
        )
    ys = np.empty((grid.n_steps // record_every + 1,) + y.shape)
    ys[0] = y
    with np.errstate(all="ignore"):
        for i in range(1, len(ys)):
            for k in range((i - 1) * record_every, i * record_every):
                step(t0 + k * dt)
            ys[i] = y
    ys[np.logical_or.accumulate(~np.isfinite(ys).all(axis=(-2, -1)), axis=0)] = np.nan
    return Trajectory(  # row-major q and p, as reductions over them expect
        times=grid.times()[::record_every].copy(), q=ys[..., :d_q].copy(), p=ys[..., d_q:].copy()
    )
