"""Fixed-step explicit integrators over packed phase-space states.

A state marches as one array y = [q | p]: positions (or angles) q of shape
(..., n_agents, d_q) and momenta p of shape (..., n_agents, d_p),
concatenated on the last axis.  A derivative is a callable f(y, t) ->
dy/dt on such arrays (`systems.make_derivative` builds one per system).
Leading axes broadcast through it, so a whole ensemble of trajectories
steps in one call by stacking initial states along a leading axis.  The
schemes are element-wise on y, so a packed step has the bits of the same
step taken on q and p apart.

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

    @property
    def span(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1, dtype=np.float64) * self.dt

    def reverse_times(self) -> np.ndarray:
        """Reverse-trajectory indices t'_j, with t'_{K-k} = T - t_k bitwise:
        bookkeeping indices, not physical times, derived from the forward
        grid so the pairing identity holds exactly in floating point."""
        fwd = self.times() - self.t0
        return (self.span - fwd)[::-1].copy()


Derivative = Callable[[np.ndarray, float], np.ndarray]


def euler_step(deriv: Derivative, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    return y + dt * deriv(y, t)


def heun_step(deriv: Derivative, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Explicit trapezoid: second order in both q and p."""
    k1 = deriv(y, t)
    k2 = deriv(y + dt * k1, t + dt)
    return y + (dt / 2.0) * (k1 + k2)


def rk4_step(deriv: Derivative, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = deriv(y, t)
    k2 = deriv(y + (dt / 2.0) * k1, t + dt / 2.0)
    k3 = deriv(y + (dt / 2.0) * k2, t + dt / 2.0)
    k4 = deriv(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEP_FNS = {"euler": euler_step, "heun": heun_step, "rk4": rk4_step}


def get_step_fn(scheme: str):
    try:
        return _STEP_FNS[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
        ) from None


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


def _march(step_fn, deriv, y, grid: TimeGrid, start: int, stop: int, check=None):
    """Steps start..stop-1 of `grid` from `y`, with `check(y, k, t)` after each one."""
    t0, dt = grid.t0, grid.dt
    for k in range(start, stop):
        t = t0 + k * dt
        y = step_fn(deriv, y, t, dt)
        if check is not None:
            check(y, k, t + dt)
    return y


def integrate(
    deriv: Derivative,
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
    whose derivative raises, has that span replayed with a check after every
    step, so the error names the first bad step and component, and NumPy's
    warnings come in step order.

    A stacked start, (..., n_agents, d), is an ensemble whose members escape
    one by one: a member non-finite at the end of a span is NaN from that
    recorded point on, and the other members keep the bits they have when
    integrated alone.  NumPy's warnings are silenced there; a derivative
    that raises still ends the whole call.
    """
    if record_every < 1 or grid.n_steps % record_every != 0:
        raise ConfigurationError(
            f"record_every={record_every} does not divide n_steps={grid.n_steps}"
        )
    step_fn = get_step_fn(scheme)
    d_q, single = state0.q.shape[-1], state0.q.ndim == 2

    def check(y, step, t):
        bad = StateVector(y[..., :d_q], y[..., d_q:]).first_nonfinite()
        if bad is not None:
            raise IntegrationError(
                f"non-finite value in {bad[0]}[{bad[1]}] after step {step} (t={t:.6g})",
                step=step, time=t,
            )

    y = state0.packed()  # the schemes' element-wise ops keep its layout
    check(y, -1, grid.t0)
    points = [y]
    for start in range(0, grid.n_steps, record_every):
        stop = start + record_every
        try:
            with np.errstate(all="ignore"):  # the replay warns as each step would
                end = _march(step_fn, deriv, y, grid, start, stop)
            finite = np.isfinite(end).all(axis=(-2, -1))
        except Exception:  # the replay raises it again, after any earlier bad step
            if not single:
                raise
            finite = np.False_
        if single and not finite:
            end = _march(step_fn, deriv, y, grid, start, stop, check)
        elif not single:
            end[~finite] = np.nan  # escape the bad members; the others keep their bits
        y = end
        points.append(y)
    ys = np.stack(points)
    return Trajectory(  # row-major q and p, as reductions over them expect
        times=grid.times()[::record_every].copy(), q=ys[..., :d_q].copy(), p=ys[..., d_q:].copy()
    )
