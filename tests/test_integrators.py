"""Fixed-step integrator tests against the closed-form oscillator.

The oracle throughout is q'' = -q with q(0)=1, p(0)=0, i.e.
q(t) = cos t, p(t) = -sin t, computed inline so the integrators are
checked against trigonometry rather than against themselves.
"""

import warnings

import numpy as np
import pytest

from out_of_place import STEP_FNS, call, negated
from revode.data import sample_graph_with_rng
from revode.errors import ConfigurationError, IntegrationError
from revode.integrators import (
    StateVector,
    TimeGrid,
    Trajectory,
    integrate,
    reverse_state,
)
from revode.systems import SystemSpec, eval_derivative, make_derivative


def sho_deriv(y, out):
    """Unit oscillator on a packed [q | p] state: q' = p, p' = -q."""
    h = y.shape[-1] // 2
    q, p, dq, dp = y[..., :h], y[..., h:], out[..., :h], out[..., h:]

    def rate(t):
        np.copyto(dq, p)
        np.negative(q, out=dp)

    return rate


def sho_exact(t):
    return np.cos(t), -np.sin(t)


def unit_state():
    return StateVector(np.array([[1.0]]), np.array([[0.0]]))


# ----------------------------------------------------------- StateVector

def test_packed_state_is_q_then_p_on_the_last_axis():
    """Each half of the packed state is one contiguous block of memory."""
    rng = np.random.default_rng(1)
    sv = StateVector(rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 1)))
    y = sv.packed()
    assert y.shape == (4, 3, 3)
    assert np.array_equal(y, np.concatenate([sv.q, sv.p], axis=-1))
    assert np.moveaxis(y[..., :2], -1, 0).flags.c_contiguous
    assert np.moveaxis(y[..., 2:], -1, 0).flags.c_contiguous


def test_first_nonfinite_locates_bad_entry():
    sv = StateVector(np.array([[0.0, np.nan]]), np.array([[1.0, 2.0]]))
    assert sv.first_nonfinite() == ("q", 1)
    sv_ok = unit_state()
    assert sv_ok.first_nonfinite() is None


def test_reverse_state_flips_momenta_and_is_involutive():
    rng = np.random.default_rng(0)
    sv = StateVector(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    rev = reverse_state(sv)
    assert rev.n_agents == sv.n_agents == 3
    assert np.array_equal(rev.q, sv.q)
    assert np.array_equal(rev.p, -sv.p)
    twice = reverse_state(rev)
    assert np.array_equal(twice.q, sv.q)
    assert np.array_equal(twice.p, sv.p)


# -------------------------------------------------------------- TimeGrid

def test_time_grid_validation():
    with pytest.raises(ConfigurationError):
        TimeGrid(0.0, -0.1, 10)
    with pytest.raises(ConfigurationError):
        TimeGrid(0.0, 0.1, 0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_time_grid_rejects_non_finite_dt(dt):
    with pytest.raises(ConfigurationError, match="finite"):
        TimeGrid(0.0, dt, 10)


def test_time_grid_times_endpoints():
    grid = TimeGrid(1.0, 0.25, 4)
    t = grid.times()
    assert t[0] == 1.0
    assert t[-1] == pytest.approx(2.0)
    assert len(t) == 5


# ------------------------------------------------------ stepping schemes

def one_step(scheme, dt):
    """[q | p] after one step of `scheme` from q = 1, p = 0."""
    traj = integrate(sho_deriv, unit_state(), TimeGrid(0.0, dt, 1), scheme=scheme)
    return np.concatenate([traj.q[-1], traj.p[-1]], axis=-1)


def test_single_steps_match_hand_calculation():
    """One explicit step of each scheme on the oscillator, by hand."""
    dt = 0.1
    e = one_step("euler", dt)
    # Euler: q1 = q0 + dt*p0 = 1, p1 = p0 - dt*q0 = -0.1
    assert np.allclose(e, [[1.0, -0.1]])
    h = one_step("heun", dt)
    # Heun averages the endpoint slope: p' at predictor is -1
    assert np.allclose(h, [[1.0 + 0.5 * dt * (0.0 - 0.1), 0.0 - 0.5 * dt * (1.0 + 1.0)]])
    r = one_step("rk4", dt)
    # one RK4 step carries a local error of order dt^5/5! ~ 8e-8 here
    assert abs(r[0, 0] - np.cos(dt)) < 2e-7
    assert abs(r[0, 1] + np.sin(dt)) < 2e-7


def test_integrate_rejects_unknown_scheme():
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        integrate(sho_deriv, unit_state(), TimeGrid(0.0, 0.1, 3), scheme="rk45")


def test_convergence_orders():
    """Halving dt shrinks the endpoint error by ~2/4/16 per scheme."""
    expected = {"euler": 2.0, "heun": 4.0, "rk4": 16.0}
    for scheme, factor in expected.items():
        errs = []
        for n in (100, 200):
            grid = TimeGrid(0.0, 1.0 / n, n)
            traj = integrate(sho_deriv, unit_state(), grid, scheme=scheme)
            q_ex, p_ex = sho_exact(1.0)
            err = max(abs(traj.q[-1].item() - q_ex), abs(traj.p[-1].item() - p_ex))
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 0.7 * factor < ratio < 1.4 * factor, (scheme, ratio)


def test_rk4_absolute_accuracy():
    grid = TimeGrid(0.0, 1e-3, 1000)
    traj = integrate(sho_deriv, unit_state(), grid, scheme="rk4")
    q_ex, p_ex = sho_exact(grid.times())
    assert np.max(np.abs(traj.q[:, 0, 0] - q_ex)) < 1e-10
    assert np.max(np.abs(traj.p[:, 0, 0] - p_ex)) < 1e-10


# ------------------------------------------------------------- recording

def test_record_every_subsamples_grid():
    grid = TimeGrid(0.0, 0.01, 100)
    traj = integrate(sho_deriv, unit_state(), grid, scheme="rk4", record_every=10)
    assert traj.n_points == 11
    assert np.allclose(traj.times, np.arange(11) * 0.1)
    dense = integrate(sho_deriv, unit_state(), grid, scheme="rk4")
    assert np.array_equal(traj.q, dense.q[::10])


def test_record_every_must_divide_n_steps():
    grid = TimeGrid(0.0, 0.01, 100)
    with pytest.raises(ConfigurationError):
        integrate(sho_deriv, unit_state(), grid, record_every=7)


@pytest.mark.parametrize("record_every", [0, -4])
def test_record_every_must_be_positive(record_every):
    """-4 divides 100, but there is no span of -4 steps to record after."""
    with pytest.raises(ConfigurationError):
        integrate(sho_deriv, unit_state(), TimeGrid(0.0, 0.01, 100), record_every=record_every)


def test_trajectory_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        Trajectory(times=np.zeros(3), q=np.zeros((2, 1, 1)), p=np.zeros((2, 1, 1)))


def test_trajectory_state_supports_negative_index():
    grid = TimeGrid(0.0, 0.1, 5)
    traj = integrate(sho_deriv, unit_state(), grid)
    last = traj.state(-1)
    assert np.array_equal(last.q, traj.q[5])
    assert np.array_equal(last.p, traj.p[5])


# ------------------------------------------------------- reverse rollout

def test_negated_field_retraces_forward_leg():
    """Running -F from the forward endpoint lands back at the start."""
    grid = TimeGrid(0.0, 1e-3, 2000)
    fwd = integrate(sho_deriv, unit_state(), grid, scheme="rk4")
    rev = integrate(negated(sho_deriv), fwd.state(-1), grid, scheme="rk4")
    gap_q = np.max(np.abs(rev.q[-1] - fwd.q[0]))
    gap_p = np.max(np.abs(rev.p[-1] - fwd.p[0]))
    assert gap_q < 1e-10 and gap_p < 1e-10
    # interior points should pair up under k <-> K-k as well
    assert np.max(np.abs(rev.q[::-1] - fwd.q)) < 1e-9


def test_integration_error_reports_step():
    def exploding(y, out):
        return lambda t: np.multiply(y, 1e160, out=out)

    grid = TimeGrid(0.0, 1.0, 10)
    with np.errstate(over="ignore"), pytest.raises(IntegrationError) as exc:
        integrate(exploding, unit_state(), grid, scheme="euler")
    assert exc.value.step is not None


def test_integration_rejects_nonfinite_start():
    bad = StateVector(np.array([[0.0, 1.0]]), np.array([[0.0, np.inf]]))
    with pytest.raises(IntegrationError) as exc:
        integrate(sho_deriv, bad, TimeGrid(0.5, 0.1, 14), record_every=7)
    assert (exc.value.step, exc.value.time) == (-1, 0.5)
    assert str(exc.value) == "non-finite value in p[1] after step -1 (t=0.5)"


# --------------------------------------- one finite check per recorded state

def reference_integrate(deriv, state0, grid, scheme, record_every):
    """The integration loop as first written: the out-of-place schemes, and
    a finiteness check after every step.  `integrate` marches in place,
    checks once per recorded state, and must give the same bits, and raise
    the same error at the same step."""
    d_q = state0.q.shape[-1]

    def check(y, step, t):
        bad = StateVector(y[..., :d_q], y[..., d_q:]).first_nonfinite()
        if bad is not None:
            raise IntegrationError(
                f"non-finite value in {bad[0]}[{bad[1]}] after step {step} (t={t:.6g})",
                step=step, time=t,
            )

    step_fn, deriv = STEP_FNS[scheme], call(deriv)
    y = np.concatenate([state0.q, state0.p], axis=-1)
    check(y, -1, grid.t0)
    rec, times = [y], [grid.t0]
    for k in range(grid.n_steps):
        t = grid.t0 + k * grid.dt
        y = step_fn(deriv, y, t, grid.dt)
        check(y, k, t + grid.dt)
        if (k + 1) % record_every == 0:
            rec.append(y)
            times.append(grid.t0 + (k + 1) * grid.dt)
    ys = np.stack(rec)
    return Trajectory(times=np.array(times), q=ys[..., :d_q], p=ys[..., d_q:])


LOOP_SPECS = {
    "simple_anchored": SystemSpec(kind="simple_spring", n_agents=1, dim=2),
    "damped_anchored": SystemSpec(kind="damped_spring", n_agents=3, dim=2, damped_form="anchored"),
    "damped_pairwise": SystemSpec(kind="damped_spring", n_agents=4, dim=2),
    "forced": SystemSpec(kind="forced_spring", n_agents=3, dim=1),
    "sampled_graph": SystemSpec(
        kind="damped_spring", n_agents=5, dim=2,
        graph=sample_graph_with_rng(5, 0.5, np.random.default_rng(2)),
    ),
    "pendulum": SystemSpec(kind="triple_pendulum", n_agents=3),
    "attractor": SystemSpec(kind="attractor"),
}


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("label", sorted(LOOP_SPECS))
def test_integrate_is_bitwise_the_per_step_loop(label, scheme):
    spec = LOOP_SPECS[label]
    rng = np.random.default_rng(7)
    q = rng.uniform(0.2, 1.5, (3, spec.n_agents, spec.d_q))
    p = rng.standard_normal((3, spec.n_agents, spec.d_p))
    q[0, 0, 0] = 0.0  # signed zeros must come out the same too
    q[1, 0, 0] = -0.0
    grid = TimeGrid(0.25, 0.02, 21)
    for start in (StateVector(q[1], p[1]), StateVector(q, p)):  # single, stacked
        for record_every in (1, 7, grid.n_steps):
            got = integrate(make_derivative(spec), start, grid, scheme, record_every)
            want = reference_integrate(make_derivative(spec), start, grid, scheme, record_every)
            for name in ("times", "q", "p"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (record_every, name)
            assert got.q.shape == want.q.shape and got.p.shape == want.p.shape


def separate_q_p_integrate(spec, state0, grid, scheme, record_every):
    """Each scheme's arithmetic written out on q and p separately, with the
    rates from eval_derivative: the march on the packed [q | p] state must
    give these bits, since element-wise ops on [q | p] are the same ops on
    q and p."""

    def rate(q, p, t):
        d = eval_derivative(spec, StateVector(q, p), t)
        return d.q, d.p

    dt, half = grid.dt, grid.dt / 2.0
    q, p = state0.q.copy(), state0.p.copy()
    rec_q, rec_p = [q], [p]
    for k in range(grid.n_steps):
        t = grid.t0 + k * dt
        k1q, k1p = rate(q, p, t)
        if scheme == "euler":
            q, p = q + dt * k1q, p + dt * k1p
        elif scheme == "heun":
            k2q, k2p = rate(q + dt * k1q, p + dt * k1p, t + dt)
            q, p = q + half * (k1q + k2q), p + half * (k1p + k2p)
        else:
            k2q, k2p = rate(q + half * k1q, p + half * k1p, t + half)
            k3q, k3p = rate(q + half * k2q, p + half * k2p, t + half)
            k4q, k4p = rate(q + dt * k3q, p + dt * k3p, t + dt)
            q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if (k + 1) % record_every == 0:
            rec_q.append(q)
            rec_p.append(p)
    return np.stack(rec_q), np.stack(rec_p)


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("label", sorted(LOOP_SPECS))
def test_packed_march_is_bitwise_separate_q_and_p_steps(label, scheme):
    spec = LOOP_SPECS[label]
    rng = np.random.default_rng(9)
    q = rng.uniform(0.2, 1.5, (3, spec.n_agents, spec.d_q))
    p = rng.standard_normal((3, spec.n_agents, spec.d_p))
    q[1, 0, 0] = -0.0
    grid = TimeGrid(0.25, 0.02, 21)
    for start in (StateVector(q[0], p[0]), StateVector(q, p)):  # single, stacked
        for record_every in (1, 7):
            got = integrate(make_derivative(spec), start, grid, scheme, record_every)
            want_q, want_p = separate_q_p_integrate(spec, start, grid, scheme, record_every)
            assert got.q.tobytes() == want_q.tobytes() and got.q.shape == want_q.shape
            assert got.p.tobytes() == want_p.tobytes() and got.p.shape == want_p.shape


def goes_nonfinite_from(t_bad):
    """The unit oscillator until time `t_bad`, then an infinite q rate."""

    def field(y, out):
        rate = sho_deriv(y, out)

        def bad_rate(t):
            rate(t)
            if t >= t_bad:
                out[..., :1] += np.inf

        return bad_rate

    return field


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("t_bad", [0.0, 0.3, 0.95, 2.0])
def test_nonfinite_step_inside_a_recorded_span_is_named_like_the_loop(scheme, t_bad):
    """The first bad step, inside a span of 7 or at its edge, raises the
    loop's error: same step, time and message."""
    grid = TimeGrid(0.0, 0.1, 21)
    deriv = goes_nonfinite_from(t_bad)
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationError) as want:
            reference_integrate(deriv, unit_state(), grid, scheme, 7)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        with pytest.raises(IntegrationError) as got:
            integrate(deriv, unit_state(), grid, scheme, record_every=7)
    assert (got.value.step, got.value.time) == (want.value.step, want.value.time)
    assert str(got.value) == str(want.value)
    # steps past the bad one warn nothing: the warnings are the loop's
    assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]


class DerivativeFailed(Exception):
    pass


def fails_from(t_fail):
    """The unit oscillator, whose rate raises from time `t_fail` on."""

    def field(y, out):
        rate = sho_deriv(y, out)

        def failing_rate(t):
            if t >= t_fail:
                raise DerivativeFailed(f"no rate at t={t}")
            rate(t)

        return failing_rate

    return field


def test_derivative_error_inside_a_recorded_span_propagates():
    with pytest.raises(DerivativeFailed, match="no rate at t=1.0"):
        integrate(fails_from(0.95), unit_state(), TimeGrid(0.0, 0.1, 21), "euler", record_every=7)


def test_bad_step_before_a_derivative_error_is_reported_first():
    """A derivative that fails on the non-finite state an earlier step left
    must not hide that step: the loop stops at the bad step first."""

    def deriv(y, out):
        rate = goes_nonfinite_from(0.75)(y, out)

        def checked_rate(t):
            if not np.isfinite(y).all():
                raise DerivativeFailed("rate of a non-finite state")
            rate(t)

        return checked_rate

    grid = TimeGrid(0.0, 0.1, 21)
    with pytest.raises(IntegrationError) as want:
        reference_integrate(deriv, unit_state(), grid, "euler", 7)
    with pytest.raises(IntegrationError) as got:
        integrate(deriv, unit_state(), grid, "euler", record_every=7)
    assert want.value.step == 8
    assert (got.value.step, str(got.value)) == (want.value.step, str(want.value))


# ------------------------------------------------ ensembles, member by member

@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("label", sorted(LOOP_SPECS))
def test_ensemble_members_are_bitwise_their_own_integration(label, scheme):
    spec = LOOP_SPECS[label]
    rng = np.random.default_rng(8)
    q = rng.uniform(0.2, 1.5, (2, 3, spec.n_agents, spec.d_q))
    p = rng.standard_normal((2, 3, spec.n_agents, spec.d_p))
    grid = TimeGrid(0.25, 0.02, 21)
    got = integrate(make_derivative(spec), StateVector(q, p), grid, scheme, 7)
    assert got.q.shape == (4, 2, 3, spec.n_agents, spec.d_q)
    for i, j in np.ndindex(2, 3):
        alone = integrate(make_derivative(spec), StateVector(q[i, j], p[i, j]), grid, scheme, 7)
        assert got.q[:, i, j].tobytes() == alone.q.tobytes(), (i, j)
        assert got.p[:, i, j].tobytes() == alone.p.tobytes(), (i, j)


def member_goes_nonfinite_from(t_bad, member):
    """The unit oscillator on a stack of starts, with member `member`'s q
    rate infinite from time `t_bad` on."""

    def field(y, out):
        rate = sho_deriv(y, out)

        def bad_rate(t):
            rate(t)
            if t >= t_bad:
                out[member, ..., :1] = np.inf

        return bad_rate

    return field


def check_escaped_member(got, alone_deriv, start, grid, scheme, record_every, member):
    """The escaped member of `got` is its own trajectory up to the recorded
    point before its first bad step, and NaN from the first point after it."""
    with np.errstate(all="ignore"), pytest.raises(IntegrationError) as exc:
        reference_integrate(alone_deriv, start, grid, scheme, record_every)
    first_nan = exc.value.step // record_every + 1  # the point that holds the bad step
    assert np.isnan(got.q[first_nan:, member]).all() and np.isnan(got.p[first_nan:, member]).all()
    assert np.isfinite(got.q[:first_nan, member]).all()
    if first_nan > 1:
        short = TimeGrid(grid.t0, grid.dt, (first_nan - 1) * record_every)
        before = integrate(alone_deriv, start, short, scheme, record_every)
        assert got.q[:first_nan, member].tobytes() == before.q.tobytes()
        assert got.p[:first_nan, member].tobytes() == before.p.tobytes()
    return first_nan


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("t_bad", [0.0, 0.3, 0.95, 2.0])
def test_ensemble_member_that_goes_nonfinite_escapes_alone(scheme, t_bad):
    """No error for the stack: the bad member turns NaN from the recorded
    point after its first bad step, the others keep every bit, and nothing
    warns."""
    q = np.array([[[1.0]], [[0.5]], [[-0.8]]])
    p = np.array([[[0.0]], [[0.3]], [[0.2]]])
    grid = TimeGrid(0.0, 0.1, 21)
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = integrate(member_goes_nonfinite_from(t_bad, 1), StateVector(q, p), grid, scheme, 7)
    assert warned == []
    for i in (0, 2):
        alone = integrate(sho_deriv, StateVector(q[i], p[i]), grid, scheme, 7)
        assert got.q[:, i].tobytes() == alone.q.tobytes()
        assert got.p[:, i].tobytes() == alone.p.tobytes()
    first_nan = check_escaped_member(
        got, goes_nonfinite_from(t_bad), StateVector(q[1], p[1]), grid, scheme, 7, 1
    )
    assert first_nan == {0.0: 1, 0.3: 1, 0.95: 2, 2.0: 3}[t_bad]


def test_attractor_members_that_blow_up_escape_alone():
    """Real dynamics: two of six wide starts around the attractor's base
    state leave the finite range within the horizon."""
    spec = SystemSpec(kind="attractor")
    rng = np.random.default_rng(0)
    q = np.array([0.0, 0.0, 1.6]) + rng.normal(0.0, 10.0, (6, 1, 3))
    p = np.zeros((6, 1, 0))
    grid = TimeGrid(0.0, 0.03, 200)
    deriv = make_derivative(spec)
    got = integrate(deriv, StateVector(q, p), grid, "rk4", 10)
    escaped = []
    for i in range(6):
        start = StateVector(q[i], p[i])
        try:
            with np.errstate(all="ignore"):
                alone = integrate(deriv, start, grid, "rk4", 10)
        except IntegrationError:
            check_escaped_member(got, deriv, start, grid, "rk4", 10, i)
            escaped.append(i)
            continue
        assert got.q[:, i].tobytes() == alone.q.tobytes()
    assert 0 < len(escaped) < 6


def test_ensemble_derivative_error_ends_the_whole_call():
    stack = StateVector(np.ones((2, 1, 1)), np.zeros((2, 1, 1)))
    with pytest.raises(DerivativeFailed, match="no rate at t=1.0"):
        integrate(fails_from(0.95), stack, TimeGrid(0.0, 0.1, 21), "euler", record_every=7)


def test_ensemble_with_a_nonfinite_start_raises():
    stack = StateVector(np.ones((2, 1, 2)), np.zeros((2, 1, 2)))
    stack.p[1, 0, 1] = np.nan
    with pytest.raises(IntegrationError) as exc:
        integrate(sho_deriv, stack, TimeGrid(0.0, 0.1, 7))
    assert exc.value.step == -1


# ------------------------------------------------ one bind per buffer pair

def counting_binds(field):
    """`field` with a list that gains an entry at every bind."""
    binds = []

    def bind(y, out):
        binds.append(y.shape)
        return field(y, out)

    return bind, binds


@pytest.mark.parametrize("scheme, n_binds", [("euler", 1), ("heun", 2), ("rk4", 4)])
def test_integrate_binds_the_field_once_per_buffer_pair(scheme, n_binds):
    """The state, stage and slope buffers are bound once per call, however
    many steps it takes and whether or not a span is replayed."""
    spec = LOOP_SPECS["sampled_graph"]
    rng = np.random.default_rng(3)
    stack = StateVector(rng.standard_normal((4, 5, 2)), rng.standard_normal((4, 5, 2)))
    for n_steps, record_every in ((1, 1), (21, 7), (300, 10)):
        field, binds = counting_binds(make_derivative(spec))
        integrate(field, stack, TimeGrid(0.0, 0.01, n_steps), scheme, record_every)
        assert binds == [(4, 5, 4)] * n_binds, (n_steps, record_every)
    field, binds = counting_binds(goes_nonfinite_from(0.95))
    with np.errstate(all="ignore"), pytest.raises(IntegrationError):
        integrate(field, unit_state(), TimeGrid(0.0, 0.1, 21), scheme, record_every=7)
    assert len(binds) == n_binds
