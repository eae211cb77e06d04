"""Verification-suite unit tests.

The heavyweight frozen-configuration suites run in test_acceptance; here
each probe is exercised on small cases where the expected behavior can be
derived independently (closed forms, hand constructions, synthetic power
laws).
"""

import itertools

import numpy as np
import pytest

import revode.data
import revode.verify
from out_of_place import negated
from revode.data import PURPOSE_INIT, PURPOSE_NOISE, SIM_DEFAULTS, draw_initial_state, rng_stream
from revode.errors import ConfigurationError, IntegrationError
from revode.integrators import StateVector, TimeGrid, integrate
from revode.systems import (
    SystemSpec,
    analytic_solution_simple_spring_1d,
    make_derivative,
    mechanical_energy,
    mechanical_energy_rate,
)
from revode.verify import (
    ENERGY_CASES,
    ENERGY_SCHEME,
    SCALING_EVAL_SPACING,
    SCALING_MIN_R2,
    SCALING_P0,
    SCALING_Q0,
    SCALING_SPEC,
    SUITES,
    Assertion,
    SuiteResult,
    _loglog_fit,
    _max_rate_mismatch,
    _require,
    energy_classification_check,
    lemma1_roundtrip,
    lemma2_construction_check,
    lyapunov_mle,
    mechanical_energy_rate_chain_rule,
    run_suite,
    run_suite_lemma2,
    run_suite_theorem1,
    theorem1_scaling,
)


def one_ball(k=400.0):
    return SystemSpec(kind="simple_spring", n_agents=1, dim=1, k=k)


def one_ball_state(q=1.0, p=0.5):
    return StateVector(np.array([[q]]), np.array([[p]]))


# ------------------------------------------------------------- round trip

def test_roundtrip_vanishes_for_reversible_flow():
    gap = lemma1_roundtrip(one_ball(), one_ball_state(), "rk4", dt=1e-3, span=2.0)
    assert gap < 1e-8


def test_roundtrip_order_for_reversible_flow():
    coarse, fine = (
        lemma1_roundtrip(one_ball(), one_ball_state(), "rk4", dt, span=2.0)
        for dt in (1e-3, 5e-4)
    )
    assert coarse / fine >= 12.0  # at least the solver's nominal order


def test_roundtrip_plateaus_for_damped_flow():
    """Friction is odd under momentum flip, so the gap cannot vanish with dt."""
    spec = SystemSpec(kind="damped_spring", n_agents=1, dim=1, k=1.0, gamma=1.0)
    vals = [
        lemma1_roundtrip(spec, one_ball_state(), "rk4", dt, span=2.0)
        for dt in (1e-2, 5e-3, 2.5e-3)
    ]
    assert min(vals) > 1e-3
    # flat, not shrinking: the finest dt keeps most of the coarsest gap
    assert vals[-1] / vals[0] > 0.5


@pytest.mark.parametrize("k, leg", [(1e8, "outbound"), (1e6, "return")])
def test_roundtrip_names_the_leg_that_escapes(k, leg):
    """Euler grows a spring's amplitude by sqrt(1 + k dt^2) a step: at
    k = 1e8 the outbound leg overflows, at k = 1e6 it ends near 1e200 and
    the return leg overflows.  Either way the round trip raises (exit 3) and
    never returns a NaN distance."""
    with pytest.raises(IntegrationError) as exc:
        lemma1_roundtrip(one_ball(k=k), one_ball_state(), "euler", dt=0.01, span=2.0)
    assert str(exc.value) == f"the {leg} leg of the simple_spring round trip left the finite range by t=2"
    assert (exc.value.exit_code, exc.value.time) == (3, 2.0)


def test_roundtrip_span_must_be_multiple_of_dt():
    with pytest.raises(ConfigurationError):
        lemma1_roundtrip(one_ball(), one_ball_state(), "rk4", dt=0.3, span=1.0)


def integrate_must_not_run(*args, **kwargs):
    raise AssertionError("integrated before the inputs were checked")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("dt, span", [(NAN, 1.0), (INF, 1.0), (0.1, NAN), (0.1, INF), (0.1, -INF)],
                         ids=["dt_nan", "dt_inf", "span_nan", "span_inf", "span_minus_inf"])
def test_roundtrip_rejects_non_finite_dt_and_span(monkeypatch, dt, span):
    monkeypatch.setattr(revode.verify, "integrate", integrate_must_not_run)
    with pytest.raises(ConfigurationError, match="positive and finite"):
        lemma1_roundtrip(one_ball(), one_ball_state(), "rk4", dt=dt, span=span)


# ------------------------------------------------------------ log-log fit

def test_loglog_fit_recovers_exact_power_law():
    xs = np.array([0.1, 0.05, 0.025, 0.0125])
    ys = 3.7 * xs**2.5
    slope, intercept, r2 = _loglog_fit(xs, ys)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.7)
    assert r2 == pytest.approx(1.0)


# -------------------------------------------------------------- scaling

def test_theorem1_scaling_first_order_solver():
    """Euler's prediction loss scales as dt^2 (squared first-order error)."""
    report = theorem1_scaling(scheme="euler")
    assert report.scheme == "euler"
    head = report.slopes_by_span[report.fit_span]
    assert 1.7 < head["s_pred"] < 2.3
    assert head["s_pred_r2"] > SCALING_MIN_R2
    # losses recorded for every (span, dt) cell
    assert set(report.l_pred) == {
        (T, dt) for T in report.t_list for dt in report.dt_list
    }


def test_theorem1_scaling_reverse_slope_outruns_prediction_slope():
    """The reverse-trajectory loss gains at least dt^1.5 on the prediction
    loss once the solver order supports the dt^4 envelope."""
    report = theorem1_scaling(scheme="heun")
    head = report.slopes_by_span[report.fit_span]
    assert head["s_rev"] - head["s_pred"] >= 1.0
    assert head["s_rev_r2"] > SCALING_MIN_R2


def test_theorem1_reverse_leg_is_the_negated_field_from_the_forward_endpoint(monkeypatch):
    """Each (span, dt) cell's losses are those of its own forward pass (the
    report slices one pass per dt) and of the negated field run back from
    that pass's endpoint, point j paired with point n - j."""
    monkeypatch.setattr(revode.verify, "DEFAULT_SCALING_SPANS", (1.6, 3.2))
    report = theorem1_scaling(scheme="euler")
    field = make_derivative(SCALING_SPEC)
    start = StateVector([[SCALING_Q0]], [[SCALING_P0]])
    for (span, dt), l_rev in report.l_rev.items():
        m_sub = round(SCALING_EVAL_SPACING / dt)
        grid = TimeGrid(0.0, dt, round(span / SCALING_EVAL_SPACING) * m_sub)
        fwd = integrate(field, start, grid, "euler", m_sub)
        rev = integrate(negated(field), fwd.state(-1), grid, "euler", m_sub)
        q_true, p_true = analytic_solution_simple_spring_1d(
            SCALING_Q0, SCALING_P0, SCALING_SPEC.anchor_k, SCALING_SPEC.m, fwd.times)
        pred = np.sum((fwd.q[:, 0, 0] - q_true) ** 2 + (fwd.p[:, 0, 0] - p_true) ** 2)
        gap = np.sum((rev.q[::-1, 0, 0] - fwd.q[:, 0, 0]) ** 2 + (rev.p[::-1, 0, 0] - fwd.p[:, 0, 0]) ** 2)
        assert (report.l_pred[(span, dt)], l_rev) == (float(pred), float(gap))


def test_scaling_report_is_jsonable(monkeypatch):
    import json

    monkeypatch.setattr(revode.verify, "DEFAULT_SCALING_SPANS", (1.6, 3.2))
    report = theorem1_scaling(scheme="euler")
    doc = report.to_jsonable()
    json.dumps(doc)  # must not choke on tuple keys or numpy scalars
    assert doc["scheme"] == "euler"


# ---------------------------------------------------------- construction

def test_lemma2_deterministic_case():
    lower, upper = lemma2_construction_check(0.3, 0.4)
    assert lower == pytest.approx(0.4, abs=1e-12)
    assert upper == pytest.approx(0.7, abs=1e-12)


def test_lemma2_bound_over_random_pairs():
    rng = np.random.default_rng(123)
    for _ in range(300):
        a, b = rng.uniform(0.0, 10.0, size=2)
        lower, upper = lemma2_construction_check(a, b)
        assert lower <= upper + 1e-12
        assert lower == pytest.approx(max(a, b), abs=1e-9)
        assert upper == pytest.approx(a + b, abs=1e-9)


def test_lemma2_arrays_match_scalar_calls():
    a, b = np.random.default_rng(7).uniform(0.0, 10.0, size=(2, 50))
    lower, upper = lemma2_construction_check(a, b)
    assert lower.shape == upper.shape == (50,)
    for i in range(50):
        assert (lower[i], upper[i]) == lemma2_construction_check(a[i], b[i])
    with pytest.raises(ConfigurationError):
        lemma2_construction_check(a, -b)


# ------------------------------------------------------------ energy rate

def test_chain_rule_rate_agrees_with_closed_form():
    rng = np.random.default_rng(5)
    for kind, kwargs in (
        ("damped_spring", dict(gamma=2.0)),
        ("forced_spring", dict(k1=5.0, omega=1.3)),
        ("simple_spring", {}),
    ):
        spec = SystemSpec(kind=kind, n_agents=3, dim=2, k=0.7, **kwargs)
        state = StateVector(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        analytic = mechanical_energy_rate(spec, state, t=0.37)
        chain = mechanical_energy_rate_chain_rule(spec, state, t=0.37)
        assert abs(analytic - chain) < 1e-7, kind


@pytest.mark.parametrize("kind, kwargs", [
    ("simple_spring", {}),
    ("damped_spring", dict(gamma=2.0)),
    ("forced_spring", dict(k1=5.0, omega=1.3)),
])
def test_chain_rule_rate_on_stacked_states_matches_each_state(kind, kwargs):
    rng = np.random.default_rng(11)
    spec = SystemSpec(kind=kind, n_agents=4, dim=2, k=0.7, **kwargs)
    stacked = StateVector(rng.standard_normal((6, 4, 2)), rng.standard_normal((6, 4, 2)))
    t = rng.uniform(0.0, 5.0, size=6)
    rates = mechanical_energy_rate_chain_rule(spec, stacked, t)
    assert rates.shape == (6,)
    for i in range(6):
        one = StateVector(stacked.q[i], stacked.p[i])
        assert rates[i] == mechanical_energy_rate_chain_rule(spec, one, t[i])


def test_energy_classification_simple_spring(monkeypatch):
    monkeypatch.setattr(revode.verify, "ENERGY_SPAN", 2.0)
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1, k=0.5)
    report = energy_classification_check(spec, n_trajectories=1)
    assert report.passed
    assert report.classification == "conservative_reversible"
    assert report.checks["max_relative_drift"] < 1e-6


def test_energy_classification_damped_spring(monkeypatch):
    monkeypatch.setattr(revode.verify, "ENERGY_SPAN", 2.0)
    monkeypatch.setattr(revode.verify, "ENERGY_RATE_STATES", 50)
    spec = SystemSpec(kind="damped_spring", n_agents=1, dim=1, k=1.0, gamma=2.0)
    report = energy_classification_check(spec, n_trajectories=1)
    assert report.passed
    assert report.checks["max_energy_increase_per_step"] <= 1e-9


def test_energy_classification_rejects_non_spring():
    with pytest.raises(ConfigurationError):
        energy_classification_check(SystemSpec(kind="triple_pendulum", n_agents=3))


@pytest.mark.parametrize("kind", ["simple_spring", "damped_spring"])
def test_energy_classification_needs_a_trajectory_and_a_rate_state(monkeypatch, kind):
    """With nothing integrated there is nothing to pass on; the rate states
    are ENERGY_RATE_STATES, so only the trajectory count can be zero."""
    monkeypatch.setattr(revode.verify, "build_trajectories", integrate_must_not_run)
    spec = SystemSpec(kind=kind, n_agents=2, dim=1)
    with pytest.raises(ConfigurationError, match="at least one trajectory"):
        energy_classification_check(spec, n_trajectories=0)
    assert revode.verify.ENERGY_RATE_STATES >= 1


def rate_mismatch_by_state(spec, trajs, n_states):
    """Reference for _max_rate_mismatch: one rate pair per state, members
    one after another."""
    states = [(t.state(i), t.times[i]) for t in trajs for i in range(t.n_points)]
    stride = max(1, len(states) // n_states)
    return max(
        float(abs(
            mechanical_energy_rate(spec, s, t) - mechanical_energy_rate_chain_rule(spec, s, t)
        ))
        for s, t in states[::stride][:n_states]
    )


@pytest.mark.parametrize("label, spec", ENERGY_CASES, ids=[c[0] for c in ENERGY_CASES])
def test_energy_ensemble_matches_members_integrated_alone(monkeypatch, label, spec):
    """The check's one ensemble call gives every member bitwise the
    trajectory and energy trace it has when integrated alone, and its rate
    mismatch is the per-state loop's."""
    seen = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = out = fn(*args, **kwargs)
            return out
        return wrapper

    monkeypatch.setattr(revode.data, "integrate", record("traj", integrate))
    monkeypatch.setattr(revode.verify, "mechanical_energy", record("energy", mechanical_energy))
    span, members = 0.5, 3
    monkeypatch.setattr(revode.verify, "ENERGY_SPAN", span)
    energy_classification_check(spec, n_trajectories=members, seed=4)
    ensemble, energy = seen["traj"], seen["energy"]  # energy is member-major
    assert ensemble.q.shape[1] == members and energy.shape == (members, ensemble.n_points)

    _, dt, sub = SIM_DEFAULTS[spec.kind]
    grid = TimeGrid(0.0, dt, int(round(span / dt)))
    alone = []
    for i in range(members):
        start = draw_initial_state(spec, rng_stream(4, i, PURPOSE_INIT))
        traj = integrate(make_derivative(spec), start, grid, ENERGY_SCHEME, sub)
        assert np.array_equal(ensemble.q[:, i], traj.q)
        assert np.array_equal(ensemble.p[:, i], traj.p)
        assert np.array_equal(energy[i], mechanical_energy(spec, StateVector(traj.q, traj.p)))
        alone.append(traj)
    if spec.kind != "simple_spring":
        by_member = StateVector(np.swapaxes(ensemble.q, 0, 1), np.swapaxes(ensemble.p, 0, 1))
        for n_states in (7, 1000):
            assert _max_rate_mismatch(spec, by_member, ensemble.times, n_states) == (
                rate_mismatch_by_state(spec, alone, n_states)
            )


# ------------------------------------------------------------ chaos probe

def test_lyapunov_mle_spring_is_tame():
    report = lyapunov_mle(one_ball(k=0.1), n_pairs=6, horizon=3.0)
    assert report.n_escaped == 0
    assert report.n_pairs_used == 6
    assert np.isfinite(report.mle_mean)
    # a harmonic oscillator does not stretch phase-space volumes much
    assert report.mle_mean < 1.0


@pytest.mark.parametrize("kwargs, match", [
    ({"n_pairs": 0}, "n_pairs"),
    ({"n_pairs": -3}, "n_pairs"),
    ({"horizon": NAN}, "horizon"),
    ({"horizon": INF}, "horizon"),
    ({"horizon": -1.0}, "horizon"),
], ids=["pairs_0", "pairs_negative", "horizon_nan", "horizon_inf", "horizon_negative"])
def test_lyapunov_mle_rejects_bad_inputs_before_integrating(monkeypatch, kwargs, match):
    """A bad input is a configuration error, never read as divergence."""
    monkeypatch.setattr(revode.verify, "integrate", integrate_must_not_run)
    with pytest.raises(ConfigurationError, match=match):
        lyapunov_mle(one_ball(), **kwargs)


def test_lyapunov_mle_deterministic():
    a = lyapunov_mle(one_ball(k=0.1), n_pairs=4, horizon=2.0, seed=9)
    b = lyapunov_mle(one_ball(k=0.1), n_pairs=4, horizon=2.0, seed=9)
    assert a.per_pair == b.per_pair


def reference_pair_exponents(spec, n_traj, n_pairs, sigma, horizon, seed):
    """The probe as first written: each member integrated alone, a member
    whose trajectory leaves the finite range escapes, and every pair
    touching it is skipped."""
    scheme, dt, sub = SIM_DEFAULTS[spec.kind]
    grid = TimeGrid(0.0, dt, int(round(horizon / dt)))
    base = draw_initial_state(spec, rng_stream(seed, 0, PURPOSE_INIT))
    trajs = []
    for j in range(n_traj):
        rng = rng_stream(seed, j, PURPOSE_NOISE)
        dq = rng.normal(0.0, sigma, size=base.q.shape)
        dp = rng.normal(0.0, sigma, size=base.p.shape)
        traj = integrate(make_derivative(spec), StateVector(base.q + dq, base.p + dp), grid, scheme, sub)
        trajs.append(traj if np.isfinite(traj.q).all() and np.isfinite(traj.p).all() else None)
    per_pair, escaped = [], 0
    for ia, ib in list(itertools.combinations(range(n_traj), 2))[:n_pairs]:
        ta, tb = trajs[ia], trajs[ib]
        if ta is None or tb is None:
            escaped += 1
            continue
        delta = np.sqrt(
            np.sum((ta.q - tb.q).reshape(ta.n_points, -1) ** 2, axis=1)
            + np.sum((ta.p - tb.p).reshape(ta.n_points, -1) ** 2, axis=1)
        )
        per_pair.append(float(np.max(np.log(delta[1:] / delta[0]) / ta.times[1:])))
    return per_pair, escaped


def test_lyapunov_mle_counts_escaped_pairs(monkeypatch):
    """A wide cloud around the attractor's start sends members 4 and 5 of six
    to infinity within the horizon: the nine pairs touching them are counted
    as escaped, and the other six pairs keep the exponents they have with
    each member integrated alone."""
    spec = SystemSpec(kind="attractor")
    monkeypatch.setattr(revode.verify, "MLE_SIGMA", 10.0)
    report = lyapunov_mle(spec, n_pairs=15, horizon=6.0, seed=0)
    want, want_escaped = reference_pair_exponents(spec, 6, 15, 10.0, 6.0, 0)
    assert (report.n_escaped, report.n_pairs_used) == (9, 6) == (want_escaped, len(want))
    assert report.per_pair == want
    assert report.per_pair == pytest.approx(
        [0.7641317304932068, 0.11293130740265514, 0.8328279004754039,
         3.255082343168327, 0.2110627893476245, 0.3225373440648331], rel=1e-12)


# ----------------------------------------------------------------- suites

def test_run_suite_lemma2_passes_and_reports():
    result = run_suite_lemma2()
    assert isinstance(result, SuiteResult)
    assert result.passed
    assert all(a.passed for a in result.assertions)
    names = {a.name for a in result.assertions}
    assert any("deterministic" in n for n in names)


def test_run_suite_lemma2_report_is_pinned():
    """`revode verify --json` writes this document; its bytes are a release gate."""
    import json

    doc = run_suite_lemma2().to_jsonable()
    want = {
        "suite": "lemma2",
        "assertions": [
            {"name": "deterministic_case", "passed": True, "value": 0.4,
             "detail": "(0.3, 0.4) -> (0.4, 0.7)"},
            {"name": "random_pairs_max_le_sum", "passed": True, "value": 0.0,
             "detail": "10000 uniform pairs on [0, 10]^2"},
        ],
        "data": {"deterministic": [0.4, 0.7]},
        "passed": True,
    }
    assert doc == want
    assert json.dumps(doc) == json.dumps(want)  # also pins bool and float types, and key order


def test_run_suite_theorem1_names_and_details_are_pinned():
    envelope = "normalized reversal loss must not outgrow its envelope"
    assert [(a.name, a.detail) for a in run_suite_theorem1().assertions] == [
        ("euler_pred_slope_in_band", "band (1.7, 2.3)"),
        ("euler_pred_fit_r2", "require > 0.98"),
        ("matched_rev_slope_gap", "require >= 1.5"),
        ("matched_rev_fit_r2", "require > 0.98"),
        ("rev_envelope_growth_T_1.6", envelope),
        ("rev_envelope_growth_T_3.2", envelope),
        ("rev_envelope_growth_T_6.4", envelope),
        ("t_trend_positive", "losses nondecreasing in horizon at the finest step"),
    ]


@pytest.mark.parametrize("comparison, passed, detail", [
    (">=", True, "require >= 12.0"),
    ("<=", True, "require <= 12.0"),
    (">", False, "require > 12.0"),
])
def test_require_at_the_bound(comparison, passed, detail):
    """A value equal to its bound passes an inclusive comparison only, and
    the default detail states the requirement."""
    check = _require("at_bound", 12.0, comparison, 12.0)
    assert check == Assertion("at_bound", passed, 12.0, detail)
    assert check.passed is passed
    assert _require("at_bound", 12.0, comparison, 12.0, "custom").detail == "custom"


def test_run_suite_dispatch():
    results = run_suite("lemma2")
    assert len(results) == 1 and results[0].suite == "lemma2"
    with pytest.raises(ConfigurationError):
        run_suite("lemma7")
    assert set(SUITES) == {"lemma1", "theorem1", "lemma2", "energy", "mle"}


def test_suite_result_jsonable():
    import json

    result = run_suite_lemma2()
    json.dumps(result.to_jsonable())


def test_suite_result_passes_only_when_every_assertion_does():
    result = SuiteResult("s", [Assertion("a", True, 1.0), Assertion("b", True, 2.0)])
    assert result.passed and result.to_jsonable()["passed"] is True
    result.assertions.append(Assertion("c", False, 3.0))
    assert not result.passed and result.to_jsonable()["passed"] is False


def test_lyapunov_mle_pairs_of_one_ensemble_match_members_integrated_alone():
    spec = SystemSpec(kind="simple_spring", n_agents=5, dim=2)
    report = lyapunov_mle(spec, n_pairs=6, horizon=1.0, seed=2)
    want, want_escaped = reference_pair_exponents(spec, 4, 6, 1e-4, 1.0, 2)
    assert (report.n_escaped, want_escaped) == (0, 0)
    assert report.per_pair == want


def test_energy_check_raises_when_a_member_blows_up(monkeypatch):
    """A spring far too stiff for the protocol's step sends the ensemble to
    infinity; the check stops with IntegrationError (exit 3 on the CLI)."""
    monkeypatch.setattr(revode.verify, "ENERGY_SPAN", 1.0)
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1, k=1e9)
    with pytest.raises(IntegrationError):
        energy_classification_check(spec, n_trajectories=2)
