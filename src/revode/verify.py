"""Empirical checks of the reversibility/accuracy claims the package rests on.

Five probes, one behind each named suite:

* round trip (`lemma1`) -- integrate forward, flip momenta, integrate
  forward again, flip back; a reversible flow returns to the start up to
  solver error, a dissipative one does not return however small the step.
* order scaling (`theorem1`) -- on the 1-body oscillator with a closed-form
  solution, measure how prediction error and forward/reverse mismatch
  shrink with the internal step and grow with the horizon.
* worst-case construction (`lemma2`) -- a one-step scenario showing the
  maximum ground-truth deviation is max(a, b) when the reverse leg starts
  from the forward endpoint but a + b when it starts from the initial state.
* energy classification (`energy`) -- each spring system's energy is
  conserved, decays or follows the driven-work rate, as its class requires.
* chaos probe (`mle`) -- largest Lyapunov exponent estimated from pairs of
  nearby trajectories.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    PURPOSE_INIT,
    PURPOSE_NOISE,
    PURPOSE_PARAMS,
    SIM_DEFAULTS,
    build_trajectories,
    draw_initial_state,
    rng_stream,
)
from .errors import ConfigurationError, IntegrationError
from .integrators import StateVector, TimeGrid, integrate, reverse_state
from .systems import (
    SystemSpec,
    _spring_potential,
    analytic_solution_simple_spring_1d,
    classify_reversibility,
    eval_derivative,
    make_derivative,
    mechanical_energy,
    mechanical_energy_rate,
)


# ----------------------------------------------------------- round trips

def lemma1_roundtrip(
    spec: SystemSpec,
    state0: StateVector,
    scheme: str,
    dt: float,
    span: float,
) -> float:
    """Max-abs distance from the start after forward/flip/forward/flip.

    Both legs integrate the *forward* vector field; the momentum flip in
    between is what turns the second leg into a return journey for a
    reversible system.  A leg that leaves the finite range raises
    IntegrationError naming it.
    """
    if not (0.0 < dt < math.inf and 0.0 < span < math.inf):  # NaN fails too
        raise ConfigurationError(f"dt and span must be positive and finite, got {dt} and {span}")
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise ConfigurationError(f"span {span} is not an integer multiple of dt {dt}")
    deriv = make_derivative(spec)
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    state = state0
    for leg in ("outbound", "return"):
        end = integrate(deriv, state, grid, scheme=scheme, record_every=n_steps).state(-1)
        if end.first_nonfinite() is not None:
            raise IntegrationError(
                f"the {leg} leg of the {spec.kind} round trip left the finite range by t={span:.6g}",
                time=span,
            )
        state = reverse_state(end)
    return float(max(np.max(np.abs(state.q - state0.q)), np.max(np.abs(state.p - state0.p))))


# -------------------------------------------------------- order scaling

def _loglog_fit(xs, ys):
    """Least-squares slope of log(y) against log(x), with R^2."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass
class ScalingReport:
    scheme: str
    dt_list: tuple
    t_list: tuple
    eval_spacing: float
    l_pred: dict                 # (T, dt) -> summed squared prediction error
    l_rev: dict                  # (T, dt) -> summed squared fwd/rev mismatch
    fit_span: float              # horizon the headline dt-slopes are fitted at
    slopes_by_span: dict         # T -> dict with s_pred/s_rev and their R^2
    t_slope_pred: float          # trend of l_pred in T at the finest dt
    t_slope_rev: float
    ratio_growth_by_span: dict   # T -> max growth of l_rev / (T^5 dt^4) over the 3
                                 # finest dt above its value at the coarsest of them
                                 # (an upper bound is violated by growth, not decay)

    def to_jsonable(self) -> dict:
        """Fields as JSON: tuples become lists, (T, dt) keys read "T=..|dt=.."."""
        doc = asdict(self)
        for name, value in doc.items():
            if isinstance(value, tuple):
                doc[name] = list(value)
            elif isinstance(value, dict):
                doc[name] = {
                    f"T={k[0]}|dt={k[1]}" if isinstance(k, tuple) else str(k): v
                    for k, v in sorted(value.items())
                }
        return doc


# Four or more step sizes for the slope fits, each dividing the evaluation spacing.
DEFAULT_SCALING_DTS = (0.05, 0.025, 0.0125, 0.00625)
DEFAULT_SCALING_SPANS = (1.6, 3.2, 6.4)
# The 1-body anchored spring has a closed-form solution to measure against;
# losses are read on a grid of this spacing (a whole multiple of every dt).
SCALING_SPEC = SystemSpec(kind="simple_spring", n_agents=1, dim=1, k=0.1, m=1.0)
SCALING_EVAL_SPACING = 0.2
SCALING_Q0, SCALING_P0 = 1.0, 0.5


def theorem1_scaling(scheme: str = "euler") -> ScalingReport:
    """Step-size/horizon scaling of prediction and reversal error.

    The prediction error is measured against the closed-form solution on a
    fixed evaluation grid (spacing independent of dt); the reversal error
    compares the numeric forward pass against a second pass that integrates
    the negated field back from the forward endpoint, pairing index j with
    n - j.  Alignment across step sizes uses whole-multiple substepping; at
    one dt each span's forward pass is a bitwise prefix of the longest
    span's, so each dt takes one forward pass, and the spans' reverse
    passes march as one ensemble whose members keep their solo bits.
    """
    dt_list, t_list = DEFAULT_SCALING_DTS, DEFAULT_SCALING_SPANS
    spec, spacing = SCALING_SPEC, SCALING_EVAL_SPACING
    field = make_derivative(spec)

    def negated(y, out):  # -field, with the bits of -(dy/dt)
        rate = field(y, out)

        def negated_rate(t):
            rate(t)
            np.negative(out, out)

        return negated_rate

    state0 = StateVector(q=[[SCALING_Q0]], p=[[SCALING_P0]])
    n_evals = {span: int(round(span / spacing)) for span in t_list}

    l_pred: dict = {}
    l_rev: dict = {}
    for dt in dt_list:
        m_sub = int(round(spacing / dt))
        longest = TimeGrid(t0=0.0, dt=dt, n_steps=max(n_evals.values()) * m_sub)
        full = integrate(field, state0, longest, scheme=scheme, record_every=m_sub)
        ends = list(n_evals.values())  # every span's reverse leg, as one ensemble
        back = integrate(negated, StateVector(full.q[ends], full.p[ends]), longest,
                         scheme=scheme, record_every=m_sub)
        for j, (span, n) in enumerate(n_evals.items()):
            q, p = full.q[:n + 1, 0, 0], full.p[:n + 1, 0, 0]
            q_true, p_true = analytic_solution_simple_spring_1d(
                SCALING_Q0, SCALING_P0, spec.anchor_k, spec.m, full.times[:n + 1]
            )
            l_pred[(span, dt)] = float(np.sum((q - q_true)**2 + (p - p_true)**2))
            q_back, p_back = back.q[n::-1, j, 0, 0], back.p[n::-1, j, 0, 0]
            l_rev[(span, dt)] = float(np.sum((q_back - q)**2 + (p_back - p)**2))

    fit_span = max(t_list)
    slopes_by_span = {}
    for span in t_list:
        sp, _, rp = _loglog_fit(dt_list, [l_pred[(span, d)] for d in dt_list])
        sr, _, rr = _loglog_fit(dt_list, [l_rev[(span, d)] for d in dt_list])
        slopes_by_span[span] = {
            "s_pred": sp, "s_pred_r2": rp, "s_rev": sr, "s_rev_r2": rr,
        }

    fit_dt = min(dt_list)
    t_slope_pred, _, _ = _loglog_fit(t_list, [l_pred[(t, fit_dt)] for t in t_list])
    t_slope_rev, _, _ = _loglog_fit(t_list, [l_rev[(t, fit_dt)] for t in t_list])

    finest = sorted(dt_list)[:3]
    ratio_growth = {}
    for span in t_list:
        ratios = [l_rev[(span, d)] / (span**5 * d**4) for d in finest]
        ratio_growth[span] = float(max(ratios) / ratios[-1])

    return ScalingReport(
        scheme=scheme,
        dt_list=dt_list,
        t_list=t_list,
        eval_spacing=spacing,
        l_pred=l_pred,
        l_rev=l_rev,
        fit_span=fit_span,
        slopes_by_span=slopes_by_span,
        t_slope_pred=t_slope_pred,
        t_slope_rev=t_slope_rev,
        ratio_growth_by_span=ratio_growth,
    )


# ----------------------------------------------- worst-case construction

def lemma2_construction_check(a, b) -> tuple:
    """One-step worst case: reverse-from-endpoint vs reverse-from-start.

    Ground truth sits at 0 at both times.  The forward pass overshoots to
    `a`.  A reverse leg anchored at the forward endpoint carries error a at
    the far point and at worst b back at the start, so its maximum
    ground-truth deviation is max(a, b).  A reverse leg anchored at the
    true initial state is exact at the start but stacks its own defect b on
    top of the forward error a at the far point: a + b.

    `a` and `b` may be arrays of one shape, each entry one case; scalars
    give floats back.
    """
    a, b = (np.asarray(v, dtype=np.float64) for v in np.broadcast_arrays(a, b))
    if np.any(a < 0) or np.any(b < 0):
        raise ConfigurationError("error magnitudes must be nonnegative")
    zero = np.zeros_like(a)
    y_true = np.stack([zero, zero], axis=-1)
    y_fwd = np.stack([zero, a], axis=-1)

    # endpoint-anchored reversal: starts at y_fwd[1]; worst defect b at index 0
    y_rev_endpoint = np.stack([b, y_fwd[..., 1]], axis=-1)
    # start-anchored reversal: starts at y_true[0]; forward error and defect
    # stack with the same sign at index 1
    y_rev_start = np.stack([zero, a + b], axis=-1)

    max_err_endpoint = np.max(np.abs(y_rev_endpoint - y_true), axis=-1)
    max_err_start = np.max(np.abs(y_rev_start - y_true), axis=-1)
    if max_err_endpoint.ndim == 0:
        return float(max_err_endpoint), float(max_err_start)
    return max_err_endpoint, max_err_start


# ------------------------------------------------ energy classification

def _potential_gradient_fd(spec: SystemSpec, state: StateVector, h: float = 1e-5):
    """Central-difference gradient of the potential -- kept free of any
    closed-form force expression so it can cross-check one.  `state` may
    carry leading batch axes; the loop runs over the n_agents x d
    coordinates only."""
    grad = np.zeros_like(state.q)
    for i, j in np.ndindex(state.q.shape[-2:]):
        qp = state.q.copy()
        qm = state.q.copy()
        qp[..., i, j] += h
        qm[..., i, j] -= h
        grad[..., i, j] = (_spring_potential(spec, qp) - _spring_potential(spec, qm)) / (2 * h)
    return grad


def mechanical_energy_rate_chain_rule(
    spec: SystemSpec, state: StateVector, t=0.0, h: float = 1e-5
) -> np.ndarray:
    """dH/dt assembled from dV/dq (finite differences), dT/dp = p/m, and
    the actual equations of motion -- an independent route to the
    closed-form rate.  Stacked states take one time per state in `t`
    (shape state.q.shape[:-2]) and give one rate each."""
    t = np.asarray(t, dtype=np.float64)
    d = eval_derivative(spec, state, t[..., None, None])
    grad_v = _potential_gradient_fd(spec, state, h)
    kinetic_rate = np.sum((state.p / spec.m) * d.p, axis=(-2, -1))
    return np.sum(grad_v * d.q, axis=(-2, -1)) + kinetic_rate


@dataclass
class EnergyCheckReport:
    classification: str
    passed: bool
    checks: dict = field(default_factory=dict)


# Conservation is a property of the flow, not the solver, so the check
# integrates with RK4 regardless of the dataset protocol's cheaper scheme.
ENERGY_SCHEME = "rk4"
ENERGY_SPAN = 6.0
ENERGY_RATE_STATES = 1000  # states sampled for the rate identities
ENERGY_DRIFT_TOL = 1e-6
ENERGY_RATE_TOL = 1e-6
ENERGY_STEP_TOL = 1e-9
ENERGY_MIN_FALL = 1e-2  # least relative fall of a damped member's energy over the span


def energy_classification_check(
    spec: SystemSpec,
    n_trajectories: int = 3,
    tol: float = ENERGY_DRIFT_TOL,
    seed: int = 0,
    rate_tol: float = ENERGY_RATE_TOL,
) -> EnergyCheckReport:
    """Verify the energy behavior that defines each spring system's class.

    simple: relative drift of the conserved energy stays below tol.
    damped: mechanical energy never increases (per-step tolerance), each
        member's falls by at least ENERGY_MIN_FALL of its start over the
        span, and the closed-form decay rate matches the chain-rule rate at
        sampled states.
    forced: the chain-rule rate matches the closed-form driven-work rate at
        sampled states, and the energy genuinely moves.

    The members are items 0.. of `seed` from build_trajectories, integrated
    as one ensemble over ENERGY_SPAN; one that leaves the finite range raises
    IntegrationError for the whole check.
    """
    if not spec.is_spring:
        raise ConfigurationError("energy classification applies to spring systems")
    if n_trajectories < 1:
        raise ConfigurationError("energy classification needs at least one trajectory")
    dt = SIM_DEFAULTS[spec.kind][1]
    members = build_trajectories(spec, seed, range(n_trajectories), int(round(ENERGY_SPAN / dt)),
                                 scheme=ENERGY_SCHEME)
    states = StateVector(np.stack([m.q for m in members]), np.stack([m.p for m in members]))
    times = members[0].times
    energy = mechanical_energy(spec, states)  # member-major, (members, points)
    start = energy[:, :1]
    if spec.kind == "simple_spring":
        worst = float(np.max(np.abs(energy - start) / np.abs(start)))
        checks = {"max_relative_drift": worst}
        passed = worst < tol
    elif spec.kind == "damped_spring":
        worst_rise = float(np.max(np.diff(energy, axis=1)))
        rate_err = _max_rate_mismatch(spec, states, times, ENERGY_RATE_STATES)
        fall = float(np.min((start - energy[:, -1:]) / start))
        checks = {"max_energy_increase_per_step": worst_rise, "max_rate_mismatch": rate_err,
                  "min_relative_energy_fall": fall}
        passed = worst_rise <= ENERGY_STEP_TOL and rate_err < rate_tol and fall >= ENERGY_MIN_FALL
    else:  # forced_spring
        rate_err = _max_rate_mismatch(spec, states, times, ENERGY_RATE_STATES)
        moved = float(np.max(np.abs(energy - start)))
        checks = {"max_rate_mismatch": rate_err, "max_energy_change": moved}
        passed = rate_err < rate_tol and moved > 100 * tol
    return EnergyCheckReport(classify_reversibility(spec), passed, checks)


def _max_rate_mismatch(spec, states: StateVector, times, n_states: int) -> float:
    """Worst |closed-form rate - chain-rule rate| over sampled states.

    `states` are member-major, (members, points, n_agents, d), on `times`;
    they are taken member by member, in time order, every stride-th of them.
    """
    n_members = states.q.shape[0]
    q = states.q.reshape((-1,) + states.q.shape[2:])
    p = states.p.reshape((-1,) + states.p.shape[2:])
    stride = max(1, len(q) // n_states)
    pick = np.arange(0, len(q), stride)[:n_states]
    states = StateVector(q[pick], p[pick])
    t = np.tile(times, n_members)[pick]
    analytic = mechanical_energy_rate(spec, states, t)
    chain = mechanical_energy_rate_chain_rule(spec, states, t)
    return float(np.max(np.abs(analytic - chain)))


# ------------------------------------------------------------ chaos probe

@dataclass
class LyapunovReport:
    kind: str
    mle_mean: float
    mle_std: float
    n_pairs_used: int
    n_escaped: int
    per_pair: list = field(default_factory=list)


DEFAULT_MLE_HORIZONS = {
    "simple_spring": 6.0,
    "forced_spring": 6.0,
    "damped_spring": 6.0,
    "triple_pendulum": 0.6,
    "attractor": 6.0,
}
MLE_SIGMA = 1e-4  # spread of the cloud around the base state


def lyapunov_mle(
    spec: SystemSpec,
    n_pairs: int = 45,
    horizon: float | None = None,
    seed: int = 0,
) -> LyapunovReport:
    """Largest Lyapunov exponent from pairwise trajectory separation.

    A cloud of initial states is built by adding N(0, MLE_SIGMA) noise to one
    base state; for every pair, lambda = max over the sampled horizon of
    (1/t) ln(|delta(t)| / |delta(0)|).  Pairs whose trajectories blow up
    are excluded and counted.  The base state is the pendulum's horizontal
    rest pose, or the PURPOSE_INIT draw of item 0 of `seed` for other systems.

    The whole cloud integrates as one ensemble, in which a member that
    blows up escapes alone: its recorded points turn NaN from the span it
    left the finite range in, so every pair touching it has a non-finite
    separation and is counted as escaped, and each other pair keeps the
    exponent it has with both members integrated alone.
    """
    if n_pairs < 1:
        raise ConfigurationError(f"n_pairs must be >= 1, got {n_pairs}")
    if horizon is None:
        horizon = DEFAULT_MLE_HORIZONS[spec.kind]
    if not 0.0 < horizon < math.inf:  # NaN fails too
        raise ConfigurationError(f"horizon must be positive and finite, got {horizon}")
    scheme, dt, sub = SIM_DEFAULTS[spec.kind]
    n_steps = int(round(horizon / dt))
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)

    n_traj = 2
    while n_traj * (n_traj - 1) // 2 < n_pairs:
        n_traj += 1

    if spec.kind == "triple_pendulum":
        state0 = StateVector(q=np.full((3, 1), math.pi / 2), p=np.zeros((3, 1)))
    else:
        state0 = draw_initial_state(spec, rng_stream(seed, 0, PURPOSE_INIT))

    dq, dp = [], []
    for j in range(n_traj):
        rng = rng_stream(seed, j, PURPOSE_NOISE)
        dq.append(rng.normal(0.0, MLE_SIGMA, size=state0.q.shape))
        dp.append(rng.normal(0.0, MLE_SIGMA, size=state0.p.shape))
    cloud = StateVector(q=state0.q + np.stack(dq), p=state0.p + np.stack(dp))
    traj = integrate(make_derivative(spec), cloud, grid, scheme=scheme, record_every=sub)

    pairs = list(itertools.combinations(range(n_traj), 2))[:n_pairs]
    ia, ib = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    diff_q = (traj.q[:, ia] - traj.q[:, ib]).reshape(traj.n_points, len(pairs), state0.q.size)
    diff_p = (traj.p[:, ia] - traj.p[:, ib]).reshape(traj.n_points, len(pairs), state0.p.size)
    with np.errstate(over="ignore"):  # a member on its way out squares to inf, then escapes
        delta = np.sqrt(np.sum(diff_q**2, axis=-1) + np.sum(diff_p**2, axis=-1))  # (points, pairs)
    usable = delta[:, np.isfinite(delta).all(axis=0) & (delta[0] != 0.0)]
    lam = np.max(np.log(usable[1:] / usable[0]) / traj.times[1:, None], axis=0)
    if not lam.size:
        raise IntegrationError("every trajectory pair escaped; nothing to report")
    return LyapunovReport(
        kind=spec.kind,
        mle_mean=float(lam.mean()),
        mle_std=float(lam.std()),
        n_pairs_used=lam.size,
        n_escaped=len(pairs) - lam.size,
        per_pair=lam.tolist(),
    )


# ----------------------------------------------------------- named suites
#
# The CLI and the acceptance tests run the same frozen configurations, so
# a pass on the command line means exactly what a pass in CI means.

@dataclass
class Assertion:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    assertions: list
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "passed": self.passed}


_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _require(name: str, value: float, comparison: str, bound: float, detail=None) -> Assertion:
    """The assertion that `value <comparison> bound` holds; unless a detail
    is given, it reads as the requirement, e.g. "require >= 12.0"."""
    if detail is None:
        detail = f"require {comparison} {bound}"
    return Assertion(name, _COMPARISONS[comparison](value, bound), value, detail)


ROUNDTRIP_DTS = (1e-3, 5e-4, 2.5e-4)
ROUNDTRIP_SHRINK_MIN = 12.0
ROUNDTRIP_SPRING = dict(k=400.0, span=2.0, q0=1.0, p0=0.5)
ROUNDTRIP_PENDULUM = dict(span=1.0, theta=(0.8, -0.5, 0.3))
DAMPED_PLATEAU_FLOOR = 1e-3


def run_suite_lemma1() -> SuiteResult:
    """Round-trip convergence for reversible systems, plateau for damped."""
    spring, pend = ROUNDTRIP_SPRING, ROUNDTRIP_PENDULUM
    cases = {  # label -> (system, start, span)
        "spring": (
            SystemSpec(kind="simple_spring", k=spring["k"]),
            StateVector([[spring["q0"]]], [[spring["p0"]]]),
            spring["span"],
        ),
        "pendulum": (
            SystemSpec(kind="triple_pendulum", n_agents=3),
            StateVector([[a] for a in pend["theta"]], np.zeros((3, 1))),
            pend["span"],
        ),
        "damped": (SystemSpec(kind="damped_spring"), StateVector([[1.0]], [[0.5]]), 2.0),
    }
    sweeps = {
        label: [lemma1_roundtrip(spec, start, "rk4", dt, span) for dt in ROUNDTRIP_DTS]
        for label, (spec, start, span) in cases.items()
    }
    data = {
        f"{label}_roundtrip": {str(dt): v for dt, v in zip(ROUNDTRIP_DTS, vals)}
        for label, vals in sweeps.items()
    }
    damped = sweeps["damped"]
    assertions = [
        *(
            _require(f"{label}_shrink_dt_{dt0}_to_{dt1}", v0 / v1, ">=", ROUNDTRIP_SHRINK_MIN)
            for label in ("spring", "pendulum")
            for (dt0, v0), (dt1, v1) in itertools.pairwise(zip(ROUNDTRIP_DTS, sweeps[label]))
        ),
        _require("damped_plateau_floor", min(damped), ">", DAMPED_PLATEAU_FLOOR,
                 f"discrepancy must stay above {DAMPED_PLATEAU_FLOOR} as dt shrinks"),
        _require("damped_plateau_flat", damped[-1] / damped[0], ">", 0.5,
                 "no meaningful decay across dt halvings"),
    ]
    return SuiteResult(suite="lemma1", assertions=assertions, data=data)


SCALING_PRED_SLOPE = (1.7, 2.3)
SCALING_MIN_GAP = 1.5
SCALING_MIN_R2 = 0.98
SCALING_MAX_RATIO_GROWTH = 10.0


def run_suite_theorem1() -> SuiteResult:
    """Order scaling: first-order forward error, higher-order reversal gap."""
    rep_euler = theorem1_scaling(scheme="euler")
    rep_matched = theorem1_scaling(scheme="heun")
    euler = rep_euler.slopes_by_span[rep_euler.fit_span]
    matched = rep_matched.slopes_by_span[rep_matched.fit_span]
    lo, hi = SCALING_PRED_SLOPE
    assertions = [
        Assertion("euler_pred_slope_in_band", lo <= euler["s_pred"] <= hi, euler["s_pred"],
                  f"band {SCALING_PRED_SLOPE}"),
        _require("euler_pred_fit_r2", euler["s_pred_r2"], ">", SCALING_MIN_R2),
        _require("matched_rev_slope_gap", matched["s_rev"] - euler["s_pred"], ">=",
                 SCALING_MIN_GAP),
        _require("matched_rev_fit_r2", matched["s_rev_r2"], ">", SCALING_MIN_R2),
        *(
            _require(f"rev_envelope_growth_T_{span}", growth, "<=", SCALING_MAX_RATIO_GROWTH,
                     "normalized reversal loss must not outgrow its envelope")
            for span, growth in rep_matched.ratio_growth_by_span.items()
        ),
        Assertion("t_trend_positive", rep_matched.t_slope_rev > 0 and rep_euler.t_slope_pred > 0,
                  rep_matched.t_slope_rev, "losses nondecreasing in horizon at the finest step"),
    ]
    data = {"euler": rep_euler.to_jsonable(), "matched": rep_matched.to_jsonable()}
    return SuiteResult(suite="theorem1", assertions=assertions, data=data)


LEMMA2_N_RANDOM = 10_000


def run_suite_lemma2() -> SuiteResult:
    """Deterministic worst-case construction plus a randomized sweep."""
    det = lemma2_construction_check(0.3, 0.4)
    rng = rng_stream(0, 0, PURPOSE_PARAMS)
    a, b = rng.uniform(0.0, 10.0, size=(LEMMA2_N_RANDOM, 2)).T
    lo, hi = lemma2_construction_check(a, b)
    bad = (
        (lo > hi + 1e-12)
        | (np.abs(lo - np.maximum(a, b)) > 1e-12)
        | (np.abs(hi - (a + b)) > 1e-9)
    )
    assertions = [
        Assertion("deterministic_case", abs(det[0] - 0.4) < 1e-12 and abs(det[1] - 0.7) < 1e-12,
                  det[0], f"(0.3, 0.4) -> {det}"),
        Assertion("random_pairs_max_le_sum", not bad.any(), max(0.0, float(np.max(lo - hi))),
                  f"{LEMMA2_N_RANDOM} uniform pairs on [0, 10]^2"),
    ]
    data = {"deterministic": list(det)}
    return SuiteResult(suite="lemma2", assertions=assertions, data=data)


ENERGY_CASES = (
    ("simple_5body", SystemSpec(kind="simple_spring", n_agents=5, dim=2)),
    ("damped_5body", SystemSpec(kind="damped_spring", n_agents=5, dim=2)),
    ("damped_anchored", SystemSpec(kind="damped_spring", n_agents=1, dim=1)),
    ("forced_5body", SystemSpec(kind="forced_spring", n_agents=5, dim=2)),
)


def run_suite_energy() -> SuiteResult:
    """Conservation / monotone decay / driven-rate identity per system."""
    reports = {label: energy_classification_check(spec, n_trajectories=2)
               for label, spec in ENERGY_CASES}
    assertions = [
        Assertion(f"{label}_{rep.classification}", rep.passed,
                  float(next(iter(rep.checks.values()))), str(rep.checks))
        for label, rep in reports.items()
    ]
    data = {label: {"classification": rep.classification, **rep.checks}
            for label, rep in reports.items()}
    return SuiteResult(suite="energy", assertions=assertions, data=data)


MLE_ORDER_FACTOR = 10.0


def run_suite_mle() -> SuiteResult:
    """Chaos ordering: the stick pendulum against the spring lattice."""
    spring = lyapunov_mle(SystemSpec(kind="simple_spring", n_agents=5, dim=2))
    pend = lyapunov_mle(SystemSpec(kind="triple_pendulum", n_agents=3))
    assertions = [
        _require("pendulum_vs_spring_mle_ratio", pend.mle_mean / spring.mle_mean, ">",
                 MLE_ORDER_FACTOR, f"require > {MLE_ORDER_FACTOR}; "
                 f"spring={spring.mle_mean:.4f}, pendulum={pend.mle_mean:.4f}"),
        Assertion("all_pairs_usable", spring.n_escaped == 0 and pend.n_escaped == 0,
                  float(spring.n_escaped + pend.n_escaped),
                  "escaped pairs are excluded and counted"),
    ]
    data = {
        "spring": {"mean": spring.mle_mean, "std": spring.mle_std},
        "pendulum": {"mean": pend.mle_mean, "std": pend.mle_std},
    }
    return SuiteResult(suite="mle", assertions=assertions, data=data)


_SUITE_RUNNERS = {
    "lemma1": run_suite_lemma1,
    "theorem1": run_suite_theorem1,
    "lemma2": run_suite_lemma2,
    "energy": run_suite_energy,
    "mle": run_suite_mle,
}
SUITES = tuple(_SUITE_RUNNERS)


def run_suite(name: str) -> list:
    """Run one named suite, or all of them; returns a list of SuiteResult."""
    if name == "all":
        return [_SUITE_RUNNERS[s]() for s in SUITES]
    if name not in _SUITE_RUNNERS:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {SUITES + ('all',)}"
        )
    return [_SUITE_RUNNERS[name]()]
