"""Fixed-step explicit integrators over (q, p) phase-space states.

The state container is deliberately dumb: `q` holds positions (or angles)
with shape (..., n_agents, d_q) and `p` holds momenta with shape
(..., n_agents, d_p).  Leading axes broadcast through every derivative
function in `systems`, so a whole ensemble of trajectories can be stepped
in one call by stacking initial states along a leading axis.

All schemes are one-step explicit maps; reverse-time integration is done
by integrating the negated field, never by adaptive or implicit tricks.
"""

from __future__ import annotations

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

    @classmethod
    def _of(cls, q: np.ndarray, p: np.ndarray) -> "StateVector":
        """Wrap float64 arrays as they are, without the constructor's coercion."""
        state = object.__new__(cls)
        state.q, state.p = q, p
        return state

    # minimal vector-space algebra so integrator schemes read like math
    def __add__(self, other: "StateVector") -> "StateVector":
        return StateVector._of(self.q + other.q, self.p + other.p)

    def __sub__(self, other: "StateVector") -> "StateVector":
        return StateVector._of(self.q - other.q, self.p - other.p)

    def scale(self, c: float) -> "StateVector":
        return StateVector._of(self.q * c, self.p * c)

    def __rmul__(self, c: float) -> "StateVector":
        return self.scale(c)

    def copy(self) -> "StateVector":
        return StateVector(self.q.copy(), self.p.copy())

    @property
    def n_agents(self) -> int:
        return self.q.shape[-2]

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
        if self.dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def span(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1, dtype=np.float64) * self.dt

    def reverse_times(self) -> np.ndarray:
        """Reverse-trajectory indices t'_j, with t'_{K-k} = T - t_k bitwise.

        The reverse timestamps are bookkeeping indices, not physical times;
        they are derived directly from the forward grid so the pairing
        identity holds exactly in floating point.
        """
        fwd = self.times() - self.t0
        return (self.span - fwd)[::-1].copy()


Derivative = Callable[[StateVector, float], StateVector]


def euler_step(deriv: Derivative, state: StateVector, t: float, dt: float) -> StateVector:
    return state + dt * deriv(state, t)


def heun_step(deriv: Derivative, state: StateVector, t: float, dt: float) -> StateVector:
    """Explicit trapezoid: second order in both q and p."""
    k1 = deriv(state, t)
    k2 = deriv(state + dt * k1, t + dt)
    return state + (dt / 2.0) * (k1 + k2)


def rk4_step(deriv: Derivative, state: StateVector, t: float, dt: float) -> StateVector:
    k1 = deriv(state, t)
    k2 = deriv(state + (dt / 2.0) * k1, t + dt / 2.0)
    k3 = deriv(state + (dt / 2.0) * k2, t + dt / 2.0)
    k4 = deriv(state + dt * k3, t + dt)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _check_finite(state: StateVector, step: int, t: float):
    bad = state.first_nonfinite()
    if bad is not None:
        name, idx = bad
        raise IntegrationError(
            f"non-finite value in {name}[{idx}] after step {step} (t={t:.6g})",
            step=step,
            time=t,
        )


def _march(step_fn, deriv, state, grid: TimeGrid, start: int, stop: int, check: bool):
    """Steps start..stop-1 of `grid` from `state`, with `check` after each one."""
    t0, dt = grid.t0, grid.dt
    for k in range(start, stop):
        t = t0 + k * dt
        state = step_fn(deriv, state, t, dt)
        if check:
            _check_finite(state, k, t + dt)
    return state


def _escape_nonfinite(state: StateVector) -> StateVector:
    """Set every member of a stacked state that has a non-finite entry to
    NaN, in place; the other members keep their bits."""
    bad = ~(
        np.isfinite(state.q).all(axis=(-2, -1)) & np.isfinite(state.p).all(axis=(-2, -1))
    )
    if bad.any():
        state.q[bad] = np.nan
        state.p[bad] = np.nan
    return state


def integrate(
    deriv: Derivative,
    state0: StateVector,
    grid: TimeGrid,
    scheme: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """March `state0` across `grid`, recording every `record_every`-th step.

    Returns n_steps//record_every + 1 states including the initial one.
    A non-finite start raises IntegrationError naming the offending entry.

    A start of one trajectory, (n_agents, d), raises IntegrationError naming
    the offending component and step when the state leaves the finite range.
    Finiteness is checked once per recorded state: a non-finite entry stays
    non-finite under `state + increment`.  A span that ends non-finite, or
    whose derivative raises, is replayed with a check after every step, so
    the first error, and NumPy's warnings, come in step order.

    A stacked start, (..., n_agents, d), is an ensemble whose members escape
    one by one.  A member non-finite at the end of a recorded span went bad
    at a step inside it; its points from that one on are NaN, and the other
    members keep the bits they have when integrated alone.  NumPy's
    floating-point warnings are silenced there; a derivative that raises
    still ends the whole call.
    """
    if record_every < 1 or grid.n_steps % record_every != 0:
        raise ConfigurationError(
            f"record_every={record_every} does not divide n_steps={grid.n_steps}"
        )
    step_fn = get_step_fn(scheme)
    _check_finite(state0, -1, grid.t0)

    batched = state0.q.ndim > 2
    state = state0.copy()
    rec_q = [state.q.copy()]
    rec_p = [state.p.copy()]
    for start in range(0, grid.n_steps, record_every):
        stop = start + record_every
        if batched:
            with np.errstate(all="ignore"):
                end = _march(step_fn, deriv, state, grid, start, stop, check=False)
            state = _escape_nonfinite(end)
        else:
            try:
                with np.errstate(all="ignore"):  # the replay warns as each step would
                    end = _march(step_fn, deriv, state, grid, start, stop, check=False)
                ok = end.first_nonfinite() is None
            except Exception:  # the replay raises it again, after any earlier bad step
                ok = False
            state = end if ok else _march(step_fn, deriv, state, grid, start, stop, check=True)
        rec_q.append(state.q.copy())
        rec_p.append(state.p.copy())
    return Trajectory(
        times=grid.times()[::record_every].copy(), q=np.stack(rec_q), p=np.stack(rec_p)
    )


def integrate_reversed(
    deriv: Derivative,
    state0: StateVector,
    grid: TimeGrid,
    scheme: str = "rk4",
    record_every: int = 1,
) -> Trajectory:
    """Integrate the negated field -F from `state0`; used for reverse legs.

    Timestamps in the result are the reverse bookkeeping indices of `grid`.
    """
    neg = lambda s, t: (-1.0) * deriv(s, t)
    traj = integrate(neg, state0, grid, scheme, record_every)
    rev_t = grid.reverse_times()
    if record_every != 1:
        rev_t = rev_t[::record_every]
    return Trajectory(times=rev_t, q=traj.q, p=traj.p)
