"""Empirical checks of the reversibility/accuracy claims the package rests on.

Four harnesses:

* round-trip test -- integrate forward, flip momenta, integrate forward
  again, flip back; a reversible flow returns to the start up to solver
  error, a dissipative one does not return no matter how small the step.
* order-scaling test -- on the 1-body oscillator with a closed-form
  solution, measure how prediction error and forward/reverse mismatch
  shrink with the internal step and grow with the horizon.
* worst-case construction -- a one-step scenario showing the maximum
  ground-truth deviation is max(a, b) when the reverse leg starts from
  the forward endpoint but a + b when it starts from the initial state.
* chaos probe -- largest Lyapunov exponent estimated from pairs of
  nearby trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import PURPOSE_INIT, PURPOSE_NOISE, SIM_DEFAULTS, draw_initial_state, rng_stream
from .errors import ConfigurationError, IntegrationError
from .integrators import StateVector, TimeGrid, integrate, integrate_reversed, reverse_state
from .systems import (
    SystemSpec,
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
    reversible system.
    """
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, span):
        raise ConfigurationError(f"span {span} is not an integer multiple of dt {dt}")
    deriv = make_derivative(spec)
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    out = integrate(deriv, state0, grid, scheme=scheme, record_every=n_steps)
    mid = reverse_state(out.state(-1))
    back = integrate(deriv, mid, grid, scheme=scheme, record_every=n_steps)
    final = reverse_state(back.state(-1))
    return float(
        max(
            np.max(np.abs(final.q - state0.q)),
            np.max(np.abs(final.p - state0.p)),
        )
    )


def roundtrip_dt_sweep(
    spec: SystemSpec,
    state0: StateVector,
    scheme: str,
    dt_list,
    span: float,
) -> dict:
    """Round-trip discrepancy per step size, for convergence-rate checks."""
    return {
        float(dt): lemma1_roundtrip(spec, state0, scheme, dt, span) for dt in dt_list
    }


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
    s_pred: float
    s_pred_r2: float
    s_rev: float
    s_rev_r2: float
    slopes_by_span: dict         # T -> dict with s_pred/s_rev and their R^2
    t_slope_pred: float          # trend of l_pred in T at the finest dt
    t_slope_rev: float
    fit_dt: float
    rev_ratio: dict              # (T, dt) -> l_rev / (T^5 dt^4)
    ratio_spread_by_span: dict   # T -> max/min of rev_ratio over 3 finest dt
    ratio_growth_by_span: dict   # T -> max growth of rev_ratio above its value
                                 # at the coarsest of the 3 finest dt (envelope:
                                 # an upper bound is violated by growth, not decay)
    pred_fit_reliable: bool = True
    rev_fit_reliable: bool = True

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


DEFAULT_SCALING_DTS = (0.05, 0.025, 0.0125, 0.00625)
DEFAULT_SCALING_SPANS = (1.6, 3.2, 6.4)


def theorem1_scaling(
    spec: SystemSpec | None = None,
    scheme: str = "euler",
    dt_list=DEFAULT_SCALING_DTS,
    t_list=DEFAULT_SCALING_SPANS,
    eval_spacing: float = 0.2,
    q0: float = 1.0,
    p0: float = 0.5,
    r2_threshold: float = 0.98,
) -> ScalingReport:
    """Step-size/horizon scaling of prediction and reversal error.

    The prediction error is measured against the closed-form solution on a
    fixed evaluation grid (spacing independent of dt); the reversal error
    compares the numeric forward pass against a second pass that integrates
    the negated field back from the forward endpoint, pairing index j with
    n - j.  Alignment across step sizes uses whole-multiple substepping.
    """
    if spec is None:
        spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1, k=0.1, m=1.0)
    if spec.kind != "simple_spring" or spec.n_agents != 1 or spec.dim != 1:
        raise ConfigurationError(
            "scaling harness requires the 1-body simple spring (closed-form oracle)"
        )
    dt_list = tuple(float(d) for d in dt_list)
    t_list = tuple(float(t) for t in t_list)
    if len(dt_list) < 4:
        raise ConfigurationError("need at least 4 step sizes for a slope fit")
    deriv = make_derivative(spec)
    k_eff = spec.anchor_k
    state0 = StateVector(
        q=np.array([[q0]], dtype=np.float64), p=np.array([[p0]], dtype=np.float64)
    )

    l_pred: dict = {}
    l_rev: dict = {}
    rev_ratio: dict = {}
    for span, dt in itertools.product(t_list, dt_list):
        m_sub = int(round(eval_spacing / dt))
        n_eval = int(round(span / eval_spacing))
        if m_sub < 1 or abs(m_sub * dt - eval_spacing) > 1e-12:
            raise ConfigurationError(
                f"eval spacing {eval_spacing} is not a whole multiple of dt {dt}"
            )
        grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_eval * m_sub)
        fwd = integrate(deriv, state0, grid, scheme=scheme, record_every=m_sub)
        t_eval = fwd.times
        q_true, p_true = analytic_solution_simple_spring_1d(
            q0, p0, k_eff, spec.m, t_eval
        )
        dq = fwd.q[:, 0, 0] - q_true
        dp = fwd.p[:, 0, 0] - p_true
        l_pred[(span, dt)] = float(np.sum(dq**2 + dp**2))

        rev = integrate_reversed(
            deriv, fwd.state(-1), grid, scheme=scheme, record_every=m_sub
        )
        dq_r = rev.q[::-1, 0, 0] - fwd.q[:, 0, 0]
        dp_r = rev.p[::-1, 0, 0] - fwd.p[:, 0, 0]
        lr = float(np.sum(dq_r**2 + dp_r**2))
        l_rev[(span, dt)] = lr
        rev_ratio[(span, dt)] = lr / (span**5 * dt**4)

    fit_span = max(t_list)
    slopes_by_span = {}
    for span in t_list:
        sp, _, rp = _loglog_fit(dt_list, [l_pred[(span, d)] for d in dt_list])
        sr, _, rr = _loglog_fit(dt_list, [l_rev[(span, d)] for d in dt_list])
        slopes_by_span[span] = {
            "s_pred": sp, "s_pred_r2": rp, "s_rev": sr, "s_rev_r2": rr,
        }
    head = slopes_by_span[fit_span]

    fit_dt = min(dt_list)
    t_slope_pred, _, _ = _loglog_fit(t_list, [l_pred[(t, fit_dt)] for t in t_list])
    t_slope_rev, _, _ = _loglog_fit(t_list, [l_rev[(t, fit_dt)] for t in t_list])

    finest = sorted(dt_list)[:3]
    coarsest_of_finest = max(finest)
    ratio_spread = {}
    ratio_growth = {}
    for span in t_list:
        vals = [rev_ratio[(span, d)] for d in finest]
        ratio_spread[span] = float(max(vals) / min(vals))
        ratio_growth[span] = float(max(vals) / rev_ratio[(span, coarsest_of_finest)])

    return ScalingReport(
        scheme=scheme,
        dt_list=dt_list,
        t_list=t_list,
        eval_spacing=eval_spacing,
        l_pred=l_pred,
        l_rev=l_rev,
        fit_span=fit_span,
        s_pred=head["s_pred"],
        s_pred_r2=head["s_pred_r2"],
        s_rev=head["s_rev"],
        s_rev_r2=head["s_rev_r2"],
        slopes_by_span=slopes_by_span,
        t_slope_pred=t_slope_pred,
        t_slope_rev=t_slope_rev,
        fit_dt=fit_dt,
        rev_ratio=rev_ratio,
        ratio_spread_by_span=ratio_spread,
        ratio_growth_by_span=ratio_growth,
        pred_fit_reliable=head["s_pred_r2"] > r2_threshold,
        rev_fit_reliable=head["s_rev_r2"] > r2_threshold,
    )


# ----------------------------------------------- worst-case construction

def lemma2_construction_check(a: float, b: float) -> tuple:
    """One-step worst case: reverse-from-endpoint vs reverse-from-start.

    Ground truth sits at 0 at both times.  The forward pass overshoots to
    `a`.  A reverse leg anchored at the forward endpoint carries error a at
    the far point and at worst b back at the start, so its maximum
    ground-truth deviation is max(a, b).  A reverse leg anchored at the
    true initial state is exact at the start but stacks its own defect b on
    top of the forward error a at the far point: a + b.
    """
    if a < 0 or b < 0:
        raise ConfigurationError("error magnitudes must be nonnegative")
    y_true = np.array([0.0, 0.0])
    y_fwd = np.array([0.0, a])

    # endpoint-anchored reversal: starts at y_fwd[1]; worst defect b at index 0
    y_rev_endpoint = np.array([b, y_fwd[1]])
    # start-anchored reversal: starts at y_true[0]; forward error and defect
    # stack with the same sign at index 1
    y_rev_start = np.array([0.0, a + b])

    max_err_endpoint = float(np.max(np.abs(y_rev_endpoint - y_true)))
    max_err_start = float(np.max(np.abs(y_rev_start - y_true)))
    assert max_err_endpoint <= max_err_start + 1e-15
    return max_err_endpoint, max_err_start


# ------------------------------------------------ energy classification

def _potential_gradient_fd(spec: SystemSpec, state: StateVector, h: float = 1e-5):
    """Central-difference gradient of the potential -- kept free of any
    closed-form force expression so it can cross-check one."""
    from .systems import _spring_potential

    grad = np.zeros_like(state.q)
    it = np.nditer(state.q, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        qp = state.q.copy()
        qm = state.q.copy()
        qp[idx] += h
        qm[idx] -= h
        vp = _spring_potential(spec, qp)
        vm = _spring_potential(spec, qm)
        grad[idx] = (vp - vm) / (2 * h)
        it.iternext()
    return grad


def mechanical_energy_rate_chain_rule(
    spec: SystemSpec, state: StateVector, t: float = 0.0, h: float = 1e-5
) -> float:
    """dH/dt assembled from dV/dq (finite differences), dT/dp = p/m, and
    the actual equations of motion -- an independent route to the
    closed-form rate."""
    d = eval_derivative(spec, state, t)
    grad_v = _potential_gradient_fd(spec, state, h)
    return float(np.sum(grad_v * d.q) + np.sum((state.p / spec.m) * d.p))


@dataclass
class EnergyCheckReport:
    kind: str
    classification: str
    passed: bool
    checks: dict = field(default_factory=dict)


def energy_classification_check(
    spec: SystemSpec,
    n_trajectories: int = 3,
    tol: float = 1e-6,
    seed: int = 0,
    span: float = 6.0,
    rate_tol: float = 1e-6,
    n_rate_states: int = 1000,
    scheme: str = "rk4",
) -> EnergyCheckReport:
    """Verify the energy behavior that defines each spring system's class.

    simple: relative drift of the conserved energy stays below tol.
    damped: mechanical energy never increases (per-step tolerance), and the
        closed-form decay rate matches the chain-rule rate at sampled states.
    forced: the chain-rule rate matches the closed-form driven-work rate at
        sampled states, and the energy genuinely moves.
    """
    if not spec.is_spring:
        raise ConfigurationError("energy classification applies to spring systems")
    checks: dict = {}
    classification = classify_reversibility(spec)
    # Conservation is a property of the flow, not the solver, so the check
    # defaults to RK4 regardless of the dataset protocol's cheaper scheme.
    _, dt, sub = SIM_DEFAULTS[spec.kind]
    n_steps = int(round(span / dt))
    deriv = make_derivative(spec)
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)

    trajs = []
    for i in range(n_trajectories):
        rng = rng_stream(seed, i, PURPOSE_INIT)
        state0 = draw_initial_state(spec, rng)
        trajs.append(integrate(deriv, state0, grid, scheme=scheme, record_every=sub))

    energies = [mechanical_energy(spec, StateVector(t.q, t.p)) for t in trajs]
    if spec.kind == "simple_spring":
        worst = max(
            (float(np.max(np.abs(e - e[0]) / abs(e[0]))) for e in energies), default=0.0
        )
        checks["max_relative_drift"] = worst
        passed = worst < tol
    elif spec.kind == "damped_spring":
        worst_rise = max((float(np.max(np.diff(e))) for e in energies), default=-np.inf)
        checks["max_energy_increase_per_step"] = worst_rise
        rate_err = _max_rate_mismatch(spec, trajs, n_rate_states)
        checks["max_rate_mismatch"] = rate_err
        passed = worst_rise <= ENERGY_STEP_TOL and rate_err < rate_tol
    else:  # forced_spring
        rate_err = _max_rate_mismatch(spec, trajs, n_rate_states)
        checks["max_rate_mismatch"] = rate_err
        moved = max((float(np.max(np.abs(e - e[0]))) for e in energies), default=0.0)
        checks["max_energy_change"] = moved
        passed = rate_err < rate_tol and moved > 100 * tol

    return EnergyCheckReport(
        kind=spec.kind, classification=classification, passed=passed, checks=checks
    )


def _max_rate_mismatch(spec, trajs, n_states: int) -> float:
    """Worst |closed-form rate - chain-rule rate| over sampled states."""
    states = []
    for traj in trajs:
        for i in range(traj.n_points):
            states.append((traj.state(i), traj.times[i]))
    stride = max(1, len(states) // n_states)
    states = states[::stride][:n_states]
    worst = 0.0
    for state, t in states:
        analytic = mechanical_energy_rate(spec, state, t)
        chain = mechanical_energy_rate_chain_rule(spec, state, t)
        worst = max(worst, float(abs(analytic - chain)))
    return worst


# ------------------------------------------------------------ chaos probe

@dataclass
class LyapunovReport:
    kind: str
    mle_mean: float
    mle_std: float
    n_pairs_used: int
    n_escaped: int
    perturbation_sigma: float
    horizon: float
    per_pair: list = field(default_factory=list)


DEFAULT_MLE_HORIZONS = {
    "simple_spring": 6.0,
    "forced_spring": 6.0,
    "damped_spring": 6.0,
    "triple_pendulum": 0.6,
    "attractor": 6.0,
}


def lyapunov_mle(
    spec: SystemSpec,
    n_pairs: int = 45,
    perturbation_sigma: float = 1e-4,
    horizon: float | None = None,
    seed: int = 0,
    state0: StateVector | None = None,
) -> LyapunovReport:
    """Largest Lyapunov exponent from pairwise trajectory separation.

    A cloud of initial states is built by adding N(0, sigma) noise to one
    base state; for every pair, lambda = max over the sampled horizon of
    (1/t) ln(|delta(t)| / |delta(0)|).  Pairs whose trajectories blow up
    are excluded and counted.
    """
    if perturbation_sigma <= 0:
        raise ConfigurationError("perturbation_sigma must be positive")
    if horizon is None:
        horizon = DEFAULT_MLE_HORIZONS[spec.kind]
    scheme, dt, sub = SIM_DEFAULTS[spec.kind]
    n_steps = int(round(horizon / dt))
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=n_steps)
    deriv = make_derivative(spec)

    n_traj = 2
    while n_traj * (n_traj - 1) // 2 < n_pairs:
        n_traj += 1

    if state0 is None:
        if spec.kind == "triple_pendulum":
            state0 = StateVector(
                q=np.full((3, 1), math.pi / 2), p=np.zeros((3, 1))
            )
        else:
            state0 = draw_initial_state(spec, rng_stream(seed, 0, PURPOSE_INIT))

    trajs = []
    for j in range(n_traj):
        rng = rng_stream(seed, j, PURPOSE_NOISE)
        dq = rng.normal(0.0, perturbation_sigma, size=state0.q.shape)
        dp = rng.normal(0.0, perturbation_sigma, size=state0.p.shape)
        start = StateVector(q=state0.q + dq, p=state0.p + dp)
        try:
            traj = integrate(deriv, start, grid, scheme=scheme, record_every=sub)
        except IntegrationError:
            trajs.append(None)
            continue
        trajs.append(traj)

    per_pair = []
    escaped = 0
    pairs = list(itertools.combinations(range(n_traj), 2))[:n_pairs]
    for ia, ib in pairs:
        ta, tb = trajs[ia], trajs[ib]
        if ta is None or tb is None:
            escaped += 1
            continue
        diff_q = ta.q - tb.q
        diff_p = ta.p - tb.p
        delta = np.sqrt(
            np.sum(diff_q.reshape(ta.n_points, -1) ** 2, axis=1)
            + np.sum(diff_p.reshape(ta.n_points, -1) ** 2, axis=1)
        )
        if not np.all(np.isfinite(delta)) or delta[0] == 0.0:
            escaped += 1
            continue
        t = ta.times
        lam = float(np.max(np.log(delta[1:] / delta[0]) / t[1:]))
        per_pair.append(lam)

    if not per_pair:
        raise ConfigurationError("every trajectory pair escaped; nothing to report")
    arr = np.asarray(per_pair)
    return LyapunovReport(
        kind=spec.kind,
        mle_mean=float(arr.mean()),
        mle_std=float(arr.std()),
        n_pairs_used=len(per_pair),
        n_escaped=escaped,
        perturbation_sigma=perturbation_sigma,
        horizon=horizon,
        per_pair=per_pair,
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
    passed: bool
    assertions: list
    data: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return asdict(self)


ROUNDTRIP_DTS = (1e-3, 5e-4, 2.5e-4)
ROUNDTRIP_SHRINK_MIN = 12.0
ROUNDTRIP_SPRING = dict(k=400.0, span=2.0, q0=1.0, p0=0.5)
ROUNDTRIP_PENDULUM = dict(span=1.0, theta=(0.8, -0.5, 0.3))
DAMPED_PLATEAU_FLOOR = 1e-3


def run_suite_lemma1() -> SuiteResult:
    """Round-trip convergence for reversible systems, plateau for damped."""
    assertions = []
    data = {}

    spring = SystemSpec(
        kind="simple_spring", n_agents=1, dim=1, k=ROUNDTRIP_SPRING["k"], m=1.0
    )
    s0 = StateVector(
        q=np.array([[ROUNDTRIP_SPRING["q0"]]]), p=np.array([[ROUNDTRIP_SPRING["p0"]]])
    )
    sweep = roundtrip_dt_sweep(
        spring, s0, "rk4", ROUNDTRIP_DTS, ROUNDTRIP_SPRING["span"]
    )
    vals = [sweep[d] for d in ROUNDTRIP_DTS]
    data["spring_roundtrip"] = {str(d): sweep[d] for d in ROUNDTRIP_DTS}
    for i in range(len(vals) - 1):
        ratio = vals[i] / vals[i + 1]
        assertions.append(
            Assertion(
                name=f"spring_shrink_dt_{ROUNDTRIP_DTS[i]}_to_{ROUNDTRIP_DTS[i+1]}",
                passed=ratio >= ROUNDTRIP_SHRINK_MIN,
                value=ratio,
                detail=f"require >= {ROUNDTRIP_SHRINK_MIN}",
            )
        )

    pend = SystemSpec(kind="triple_pendulum", n_agents=3)
    p0 = StateVector(
        q=np.array([[a] for a in ROUNDTRIP_PENDULUM["theta"]]), p=np.zeros((3, 1))
    )
    sweep_p = roundtrip_dt_sweep(
        pend, p0, "rk4", ROUNDTRIP_DTS, ROUNDTRIP_PENDULUM["span"]
    )
    vals_p = [sweep_p[d] for d in ROUNDTRIP_DTS]
    data["pendulum_roundtrip"] = {str(d): sweep_p[d] for d in ROUNDTRIP_DTS}
    for i in range(len(vals_p) - 1):
        ratio = vals_p[i] / vals_p[i + 1]
        assertions.append(
            Assertion(
                name=f"pendulum_shrink_dt_{ROUNDTRIP_DTS[i]}_to_{ROUNDTRIP_DTS[i+1]}",
                passed=ratio >= ROUNDTRIP_SHRINK_MIN,
                value=ratio,
                detail=f"require >= {ROUNDTRIP_SHRINK_MIN}",
            )
        )

    damped = SystemSpec(kind="damped_spring", n_agents=1, dim=1)
    sweep_d = roundtrip_dt_sweep(
        damped, StateVector(q=np.array([[1.0]]), p=np.array([[0.5]])),
        "rk4", ROUNDTRIP_DTS, 2.0,
    )
    vals_d = [sweep_d[d] for d in ROUNDTRIP_DTS]
    data["damped_roundtrip"] = {str(d): sweep_d[d] for d in ROUNDTRIP_DTS}
    assertions.append(
        Assertion(
            name="damped_plateau_floor",
            passed=min(vals_d) > DAMPED_PLATEAU_FLOOR,
            value=min(vals_d),
            detail=f"discrepancy must stay above {DAMPED_PLATEAU_FLOOR} as dt shrinks",
        )
    )
    assertions.append(
        Assertion(
            name="damped_plateau_flat",
            passed=vals_d[-1] / vals_d[0] > 0.5,
            value=vals_d[-1] / vals_d[0],
            detail="no meaningful decay across dt halvings",
        )
    )
    return SuiteResult(
        suite="lemma1",
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        data=data,
    )


SCALING_PRED_SLOPE = (1.7, 2.3)
SCALING_MIN_GAP = 1.5
SCALING_MIN_R2 = 0.98
SCALING_MAX_RATIO_GROWTH = 10.0


def run_suite_theorem1() -> SuiteResult:
    """Order scaling: first-order forward error, higher-order reversal gap."""
    rep_euler = theorem1_scaling(scheme="euler")
    rep_matched = theorem1_scaling(scheme="heun")
    assertions = [
        Assertion(
            name="euler_pred_slope_in_band",
            passed=SCALING_PRED_SLOPE[0] <= rep_euler.s_pred <= SCALING_PRED_SLOPE[1],
            value=rep_euler.s_pred,
            detail=f"band {SCALING_PRED_SLOPE}",
        ),
        Assertion(
            name="euler_pred_fit_r2",
            passed=rep_euler.s_pred_r2 > SCALING_MIN_R2,
            value=rep_euler.s_pred_r2,
            detail=f"require > {SCALING_MIN_R2}",
        ),
        Assertion(
            name="matched_rev_slope_gap",
            passed=rep_matched.s_rev - rep_euler.s_pred >= SCALING_MIN_GAP,
            value=rep_matched.s_rev - rep_euler.s_pred,
            detail=f"require >= {SCALING_MIN_GAP}",
        ),
        Assertion(
            name="matched_rev_fit_r2",
            passed=rep_matched.s_rev_r2 > SCALING_MIN_R2,
            value=rep_matched.s_rev_r2,
            detail=f"require > {SCALING_MIN_R2}",
        ),
    ]
    for span, growth in rep_matched.ratio_growth_by_span.items():
        assertions.append(
            Assertion(
                name=f"rev_envelope_growth_T_{span}",
                passed=growth <= SCALING_MAX_RATIO_GROWTH,
                value=growth,
                detail="normalized reversal loss must not outgrow its envelope",
            )
        )
    assertions.append(
        Assertion(
            name="t_trend_positive",
            passed=rep_matched.t_slope_rev > 0 and rep_euler.t_slope_pred > 0,
            value=rep_matched.t_slope_rev,
            detail="losses nondecreasing in horizon at the finest step",
        )
    )
    return SuiteResult(
        suite="theorem1",
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        data={"euler": rep_euler.to_jsonable(), "matched": rep_matched.to_jsonable()},
    )


LEMMA2_N_RANDOM = 10_000


def run_suite_lemma2(seed: int = 0) -> SuiteResult:
    """Deterministic worst-case construction plus a randomized sweep."""
    from .data import PURPOSE_PARAMS, rng_stream as _stream

    det = lemma2_construction_check(0.3, 0.4)
    assertions = [
        Assertion(
            name="deterministic_case",
            passed=abs(det[0] - 0.4) < 1e-12 and abs(det[1] - 0.7) < 1e-12,
            value=det[0],
            detail=f"(0.3, 0.4) -> {det}",
        )
    ]
    rng = _stream(seed, 0, PURPOSE_PARAMS)
    pairs = rng.uniform(0.0, 10.0, size=(LEMMA2_N_RANDOM, 2))
    worst_violation = 0.0
    ok = True
    for a, b in pairs:
        lo, hi = lemma2_construction_check(float(a), float(b))
        gap = lo - hi
        worst_violation = max(worst_violation, gap)
        if lo > hi + 1e-12 or abs(lo - max(a, b)) > 1e-12 or abs(hi - (a + b)) > 1e-9:
            ok = False
    assertions.append(
        Assertion(
            name="random_pairs_max_le_sum",
            passed=ok,
            value=worst_violation,
            detail=f"{LEMMA2_N_RANDOM} uniform pairs on [0, 10]^2",
        )
    )
    return SuiteResult(
        suite="lemma2",
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        data={"deterministic": list(det)},
    )


ENERGY_DRIFT_TOL = 1e-6
ENERGY_RATE_TOL = 1e-6
ENERGY_STEP_TOL = 1e-9


def run_suite_energy(seed: int = 0) -> SuiteResult:
    """Conservation / monotone decay / driven-rate identity per system."""
    cases = [
        ("simple_5body", SystemSpec(kind="simple_spring", n_agents=5, dim=2)),
        ("damped_5body", SystemSpec(kind="damped_spring", n_agents=5, dim=2)),
        ("damped_anchored", SystemSpec(kind="damped_spring", n_agents=1, dim=1)),
        ("forced_5body", SystemSpec(kind="forced_spring", n_agents=5, dim=2)),
    ]
    assertions = []
    data = {}
    for label, spec in cases:
        rep = energy_classification_check(
            spec,
            n_trajectories=2,
            tol=ENERGY_DRIFT_TOL,
            seed=seed,
            rate_tol=ENERGY_RATE_TOL,
        )
        data[label] = {"classification": rep.classification, **rep.checks}
        value = next(iter(rep.checks.values()))
        assertions.append(
            Assertion(
                name=f"{label}_{rep.classification}",
                passed=rep.passed,
                value=float(value),
                detail=str(rep.checks),
            )
        )
    return SuiteResult(
        suite="energy",
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        data=data,
    )


MLE_ORDER_FACTOR = 10.0


def run_suite_mle(seed: int = 0) -> SuiteResult:
    """Chaos ordering: the stick pendulum against the spring lattice."""
    spring = lyapunov_mle(
        SystemSpec(kind="simple_spring", n_agents=5, dim=2), seed=seed
    )
    pend = lyapunov_mle(
        SystemSpec(kind="triple_pendulum", n_agents=3), seed=seed
    )
    ratio = pend.mle_mean / spring.mle_mean
    assertions = [
        Assertion(
            name="pendulum_vs_spring_mle_ratio",
            passed=ratio > MLE_ORDER_FACTOR,
            value=ratio,
            detail=f"require > {MLE_ORDER_FACTOR}; spring={spring.mle_mean:.4f}, "
            f"pendulum={pend.mle_mean:.4f}",
        ),
        Assertion(
            name="all_pairs_usable",
            passed=spring.n_escaped == 0 and pend.n_escaped == 0,
            value=float(spring.n_escaped + pend.n_escaped),
            detail="escaped pairs are excluded and counted",
        ),
    ]
    data = {
        "spring": {"mean": spring.mle_mean, "std": spring.mle_std},
        "pendulum": {"mean": pend.mle_mean, "std": pend.mle_std},
    }
    return SuiteResult(
        suite="mle",
        passed=all(a.passed for a in assertions),
        assertions=assertions,
        data=data,
    )


SUITES = ("lemma1", "theorem1", "lemma2", "energy", "mle")

_SUITE_RUNNERS = {
    "lemma1": run_suite_lemma1,
    "theorem1": run_suite_theorem1,
    "lemma2": run_suite_lemma2,
    "energy": run_suite_energy,
    "mle": run_suite_mle,
}


def run_suite(name: str) -> list:
    """Run one named suite, or all of them; returns a list of SuiteResult."""
    if name == "all":
        return [_SUITE_RUNNERS[s]() for s in SUITES]
    if name not in _SUITE_RUNNERS:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {SUITES + ('all',)}"
        )
    return [_SUITE_RUNNERS[name]()]
