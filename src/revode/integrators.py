"""Fixed-step explicit integrators over packed phase-space states.

A state marches as one array y = [q | p]: positions (or angles) q of shape
(..., n_agents, d_q) and momenta p of shape (..., n_agents, d_p),
concatenated on the last axis.  A field is bound once on an input and an
output buffer, `bind(y, out) -> rate(t)` (`systems.make_derivative` builds
one per system), and `rate(t)` writes dy/dt into out.  `integrate` owns its
scheme's state, stage and slope buffers and marches them in place, in the
order of the out-of-place formulas, so every bit is theirs.  Leading axes
broadcast through the field, so a whole ensemble of trajectories steps in
one call.  The schemes are element-wise on y, so a packed step has the
bits of the same step taken on q and p apart.

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

    def copy(self) -> "StateVector":
        return StateVector(self.q.copy(), self.p.copy())

    @property
    def n_agents(self) -> int:
        return self.q.shape[-2]

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


def _stepper(scheme: str, field: Field, y: np.ndarray):
    """step(t, dt), which advances `y` in place by one step of `scheme`; the
    field is bound once per (input, output) buffer pair, and each step calls
    the ufuncs of the out-of-place formula in its order."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    k1 = np.empty_like(y)  # like y, so the field sees y's layout everywhere
    rate1 = field(y, k1)
    if scheme == "euler":
        def step(t, dt):
            rate1(t)
            np.add(y, np.multiply(dt, k1, out=k1), out=y)
        return step
    stage, k2 = np.empty_like(y), np.empty_like(y)
    rate2 = field(stage, k2)
    if scheme == "heun":
        def step(t, dt):
            rate1(t)
            np.add(y, np.multiply(dt, k1, out=stage), out=stage)
            rate2(t + dt)
            np.add(y, np.multiply(dt / 2.0, np.add(k1, k2, out=k1), out=k1), out=y)
        return step
    k3, k4 = np.empty_like(y), np.empty_like(y)
    rate3, rate4 = field(stage, k3), field(stage, k4)

    def step(t, dt):
        half = dt / 2.0
        rate1(t)
        np.add(y, np.multiply(half, k1, out=stage), out=stage)
        rate2(t + half)
        np.add(y, np.multiply(half, k2, out=stage), out=stage)
        rate3(t + half)
        np.add(y, np.multiply(dt, k3, out=stage), out=stage)
        rate4(t + dt)
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(np.add(k1, np.multiply(2.0, k3, out=k3), out=k1), k4, out=k1)
        np.add(y, np.multiply(dt / 6.0, k1, out=k1), out=y)
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


def _march(step, y, grid: TimeGrid, start: int, stop: int, check=None):
    """Steps start..stop-1 of `grid` on `y`, with `check(y, k, t)` after each one."""
    t0, dt = grid.t0, grid.dt
    for k in range(start, stop):
        t = t0 + k * dt
        step(t, dt)
        if check is not None:
            check(y, k, t + dt)


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
    offending entry.

    Each recorded span is marched unchecked: a non-finite entry stays
    non-finite under `y + increment`, so a finite end had no bad step.
    A start of one trajectory, (n_agents, d), whose span ends non-finite, or
    whose field raises, has that span replayed from its recorded start with
    a check after every step, so the error names the first bad step and
    component, and NumPy's warnings come in step order.

    A stacked start, (..., n_agents, d), is an ensemble whose members escape
    one by one: a member non-finite at the end of a span is NaN from that
    recorded point on, and the other members keep the bits they have when
    integrated alone.  NumPy's warnings are silenced there; a field that
    raises still ends the whole call.
    """
    if record_every < 1 or grid.n_steps % record_every != 0:
        raise ConfigurationError(
            f"record_every={record_every} does not divide n_steps={grid.n_steps}"
        )
    d_q, single = state0.q.shape[-1], state0.q.ndim == 2

    def check(y, step, t):
        bad = StateVector(y[..., :d_q], y[..., d_q:]).first_nonfinite()
        if bad is not None:
            raise IntegrationError(
                f"non-finite value in {bad[0]}[{bad[1]}] after step {step} (t={t:.6g})",
                step=step, time=t,
            )

    y = state0.packed()  # marched in place; the buffers keep its layout
    step = _stepper(scheme, deriv, y)
    check(y, -1, grid.t0)
    ys = np.empty((grid.n_steps // record_every + 1,) + y.shape)
    ys[0] = y
    for i, start in enumerate(range(0, grid.n_steps, record_every), 1):
        stop = start + record_every
        try:
            with np.errstate(all="ignore"):  # the replay warns as each step would
                _march(step, y, grid, start, stop)
            finite = np.isfinite(y).all(axis=(-2, -1))
        except Exception:  # the replay raises it again, after any earlier bad step
            if not single:
                raise
            finite = np.False_
        if single and not finite:
            y[...] = ys[i - 1]
            _march(step, y, grid, start, stop, check)
        elif not single:
            y[~finite] = np.nan  # escape the bad members; the others keep their bits
        ys[i] = y
    return Trajectory(  # row-major q and p, as reductions over them expect
        times=grid.times()[::record_every].copy(), q=ys[..., :d_q].copy(), p=ys[..., d_q:].copy()
    )
