"""Benchmark-system tests.

Forces, potentials, and energies are checked against hand-computed values
for tiny configurations, and against finite differences of independently
integrated trajectories where a closed form would just repeat the code
under test.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from out_of_place import STEP_FNS, reference_spring_deriv, reference_spring_force
from revode.errors import ConfigurationError, UnsupportedSystemError
from revode.integrators import StateVector, TimeGrid, integrate
from revode.systems import (
    PENDULUM_SINGULARITY_EPS,
    SYSTEM_KINDS,
    InteractionGraph,
    SystemSpec,
    analytic_solution_simple_spring_1d,
    classify_reversibility,
    eval_derivative,
    make_derivative,
    mechanical_energy,
    mechanical_energy_rate,
    pendulum_mass_matrix,
)


# ----------------------------------------------------------------- specs

def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        SystemSpec(kind="double_pendulum")


def test_pendulum_agent_count_enforced():
    with pytest.raises(ConfigurationError):
        SystemSpec(kind="triple_pendulum", n_agents=2)
    spec = SystemSpec(kind="triple_pendulum", n_agents=3)
    assert spec.d_q == 1 and spec.d_p == 1


def test_attractor_is_single_agent():
    with pytest.raises(ConfigurationError):
        SystemSpec(kind="attractor", n_agents=2)
    spec = SystemSpec(kind="attractor", n_agents=1)
    assert spec.d_q == 3 and spec.d_p == 0


@pytest.mark.parametrize("kind", ["simple_spring", "damped_spring", "attractor"])
def test_spec_rejects_dim_below_one(kind):
    for dim in (0, -1):
        with pytest.raises(ConfigurationError, match="dim"):
            SystemSpec(kind=kind, dim=dim)


@pytest.mark.parametrize("name, value", [
    ("m", 0.0), ("m", -1.0), ("k", 0.0), ("k", -1.0), ("k", float("nan")),
    ("k0", 0.0), ("k0", float("nan")), ("length", -0.5), ("gamma", -1.0),
    ("gamma", float("nan")),
])
def test_spec_rejects_non_physical_constants(name, value):
    """Masses, stiffnesses and lengths are positive and damping is not
    negative; a NaN is neither."""
    with pytest.raises(ConfigurationError, match=name):
        SystemSpec(kind="damped_spring", n_agents=2, **{name: value})


@pytest.mark.parametrize("name", ["m", "k", "k0", "gamma", "k1", "omega", "length", "g"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_spec_requires_finite_constants(name, value):
    """Every constant is finite, whatever its kind uses: an infinite
    damping would integrate, and would be written to JSONL as Infinity."""
    for kind in ("damped_spring", "forced_spring"):
        with pytest.raises(ConfigurationError, match=f"^{name} must be "):
            SystemSpec(kind=kind, n_agents=2, **{name: value})


def test_spec_accepts_zero_damping_and_an_unset_anchor():
    spec = SystemSpec(kind="damped_spring", n_agents=2, gamma=0.0)
    assert (spec.gamma, spec.k0) == (0.0, None)


def test_damped_form_validated():
    with pytest.raises(ConfigurationError):
        SystemSpec(kind="damped_spring", damped_form="frictional")
    assert SystemSpec(kind="damped_spring", n_agents=1).effective_damped_form == "anchored"
    assert SystemSpec(kind="damped_spring", n_agents=4).effective_damped_form == "pairwise"


def test_graph_size_must_match_agents():
    with pytest.raises(ConfigurationError):
        SystemSpec(kind="simple_spring", n_agents=3, graph=InteractionGraph.complete(2))


def test_params_dict_roundtrip():
    spec = SystemSpec(
        kind="damped_spring", n_agents=3, dim=2, k=0.7, gamma=2.0,
        graph=InteractionGraph.chain(3),
    )
    back = SystemSpec.from_params_dict(spec.params_dict())
    assert back.kind == spec.kind
    assert back.k == spec.k
    assert back.gamma == spec.gamma
    assert back.resolved_graph().edges() == spec.resolved_graph().edges()


def test_anchor_k_defaults_to_k():
    assert SystemSpec(kind="simple_spring", k=0.3).anchor_k == 0.3
    assert SystemSpec(kind="simple_spring", k=0.3, k0=2.0).anchor_k == 2.0


# ----------------------------------------------------------------- graphs

def test_graph_constructors():
    assert len(InteractionGraph.complete(4).edges()) == 6
    assert InteractionGraph.chain(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert InteractionGraph.from_edges(4, []).edges() == []
    g = InteractionGraph.from_edges(3, [(0, 2)])
    assert g.edges() == [(0, 2)]


def test_graph_rejects_malformed_adjacency():
    eye = np.eye(3, dtype=bool)
    with pytest.raises(ConfigurationError):
        InteractionGraph(3, eye)  # self-loops
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ConfigurationError):
        InteractionGraph(3, asym)
    with pytest.raises(ConfigurationError):
        InteractionGraph.from_edges(3, [(0, 3)])


def at_rest(q):
    """The packed state [q | +0.0], C-ordered."""
    return np.concatenate([q, np.zeros_like(q)], axis=-1)


def spring_force(spec, y):
    """The net spring force on each agent of states y = [q | +0.0], in y's
    own memory layout: the bound field's momentum rate with the drive off,
    since the damping term gamma p / m is then +0.0 and x - 0.0 is x."""
    out = np.empty_like(y)
    make_derivative(replace(spec, k1=0.0))(y, out)(0.0)
    return out[..., spec.d_q:]


def test_stacked_graphs_drive_each_members_springs():
    """Adjacencies stacked along a leading axis give each member of a stacked
    state its own graph's force, bit for bit; each layer is checked."""
    graphs = [InteractionGraph.chain(4), InteractionGraph.from_edges(4, [(0, 3), (1, 2)])]
    stacked = InteractionGraph(4, np.stack([g.adjacency for g in graphs]))
    spec = SystemSpec(kind="simple_spring", n_agents=4, dim=2, graph=stacked)
    q = np.random.default_rng(5).standard_normal((2, 4, 2))
    force = spring_force(spec, at_rest(q))
    for b, graph in enumerate(graphs):
        alone = SystemSpec(kind="simple_spring", n_agents=4, dim=2, graph=graph)
        assert force[b].tobytes() == spring_force(alone, at_rest(q[b])).tobytes()
    bad = np.stack([graphs[0].adjacency, np.eye(4, dtype=bool)])
    with pytest.raises(ConfigurationError, match="self-loops"):
        InteractionGraph(4, bad)


# ----------------------------------------------------------- spring force

def test_two_body_spring_force_by_hand():
    """F_0 = -k (q_0 - q_1) for a connected pair."""
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1, k=0.1)
    state = StateVector(np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
    dstate = eval_derivative(spec, state)
    assert np.allclose(dstate.p, [[-0.2], [0.2]])
    assert np.allclose(dstate.q, [[0.0], [0.0]])  # dq = p/m with p = 0


def test_complete_graph_is_resolved_once_per_spec(monkeypatch):
    """Every force and potential evaluation of one spec reads one cached
    adjacency; building the complete graph per call was the waste."""
    built = []
    complete = InteractionGraph.complete
    monkeypatch.setattr(
        InteractionGraph, "complete", staticmethod(lambda n: built.append(n) or complete(n))
    )
    spec = SystemSpec(kind="damped_spring", n_agents=5, dim=2)
    rng = np.random.default_rng(0)
    state0 = StateVector(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)))
    traj = integrate(make_derivative(spec), state0, TimeGrid(0.0, 1e-3, 50), scheme="rk4")
    mechanical_energy(spec, StateVector(traj.q, traj.p))
    assert built == [5]


@pytest.mark.parametrize("spec", [
    SystemSpec(kind="simple_spring", n_agents=1, dim=2, k0=0.3),
    SystemSpec(kind="damped_spring", n_agents=1, dim=1),
    SystemSpec(kind="damped_spring", n_agents=4, dim=2, damped_form="anchored", k0=2.0),
    SystemSpec(kind="damped_spring", n_agents=5, dim=2),
    SystemSpec(kind="forced_spring", n_agents=3, dim=3),
    SystemSpec(kind="simple_spring", n_agents=5, dim=2,
               graph=InteractionGraph.from_edges(5, [(0, 1), (1, 3), (2, 4)])),
], ids=["anchored", "damped_one", "damped_anchored", "pairwise", "forced", "sampled_graph"])
def test_spring_force_resolved_once_is_bitwise_the_per_call_force(spec):
    """The force from terms resolved once per spec equals the per-call
    derivation bit for bit, signed zeros included, on a batch of states."""
    rng = np.random.default_rng(11)
    q = rng.standard_normal((6, spec.n_agents, spec.dim))
    q[0] = 0.0
    q[1, 0] = -0.0
    for _ in range(2):  # the second call reads the cached terms
        assert spring_force(spec, at_rest(q)).tobytes() == reference_spring_force(spec, q).tobytes()
    # and in the layout integrate marches, q's last axis first in memory
    packed = StateVector(q, np.zeros_like(q)).packed()
    assert spring_force(spec, packed).tobytes() == reference_spring_force(spec, q).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spring_force_on_sampled_graphs_is_bitwise_in_every_layout(dim):
    """The neighbour sum gives the bits of the row-major matrix product
    whatever the layout of q, on stacks of sampled graphs and states whose
    entries span sixteen decades, signed zeros included."""
    rng = np.random.default_rng(dim)
    for n, members in [(2, 1), (5, 1), (5, 64), (7, 9)]:
        upper = np.triu(rng.random((members, n, n)) < 0.5, 1)
        adjacency = upper | np.swapaxes(upper, -1, -2)
        spec = SystemSpec(kind="simple_spring", n_agents=n, dim=dim,
                          graph=InteractionGraph(n, adjacency))
        q = rng.standard_normal((members, n, dim)) * 10.0 ** rng.integers(-8, 8, (members, n, dim))
        q[0, 0] = -0.0
        want = np.stack([
            reference_spring_force(replace(spec, graph=InteractionGraph(n, adj)), q_b)
            for adj, q_b in zip(adjacency, q)
        ]).tobytes()
        y = at_rest(q)
        for layout in (y, StateVector(q, np.zeros_like(q)).packed(), np.asfortranarray(y)):
            assert spring_force(spec, layout).tobytes() == want, (n, members)


def draw_with_signed_zeros(rng, shape):
    """Normal draws spread over sixteen decades, a fifth of them +0.0 and
    a fifth -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["simple_spring", "damped_spring", "forced_spring"]),
    damped_form=st.sampled_from([None, "anchored", "pairwise"]),
    n=st.integers(1, 6),
    dim=st.integers(1, 3),
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    graphs=st.sampled_from(["complete", "sampled", "stacked"]),
    scheme=st.sampled_from(["euler", "rk4"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_bound_step_is_bitwise_the_out_of_place_step(
    kind, damped_form, n, dim, lead, graphs, scheme, seed
):
    """One Euler or RK4 step of `integrate`, which marches the bound field
    in place on the packed layout, has the bits of the out-of-place step on
    the out-of-place field, for any leading axes, agent count, dimension
    and graph (one for all members, or one per member)."""
    rng = np.random.default_rng(seed)
    graph = None
    if graphs != "complete" and n > 1:
        upper = np.triu(rng.random((lead if graphs == "stacked" else ()) + (n, n)) < 0.5, 1)
        graph = InteractionGraph(n, upper | np.swapaxes(upper, -1, -2))
    spec = SystemSpec(
        kind=kind, n_agents=n, dim=dim, graph=graph, m=rng.uniform(0.5, 2.0),
        k=rng.uniform(0.05, 2.0), gamma=rng.uniform(0.0, 3.0), k1=rng.uniform(0.0, 10.0),
        omega=rng.uniform(0.1, 3.0), damped_form=damped_form if kind == "damped_spring" else None,
    )
    q, p = draw_with_signed_zeros(rng, lead + (n, dim)), draw_with_signed_zeros(rng, lead + (n, dim))
    t0, dt = rng.uniform(-2.0, 2.0), rng.uniform(1e-3, 0.1)
    got = integrate(make_derivative(spec), StateVector(q, p), TimeGrid(t0, dt, 1), scheme)
    want = STEP_FNS[scheme](reference_spring_deriv(spec), np.concatenate([q, p], axis=-1), t0, dt)
    assert got.q[-1].tobytes() == want[..., :dim].tobytes()
    assert got.p[-1].tobytes() == want[..., dim:].tobytes()


def test_anchored_single_ball_force():
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=2, k=0.5)
    state = StateVector(np.array([[2.0, -1.0]]), np.array([[0.3, 0.4]]))
    d = eval_derivative(spec, state)
    assert np.allclose(d.q, [[0.3, 0.4]])     # m = 1
    assert np.allclose(d.p, [[-1.0, 0.5]])    # -k q


def test_disconnected_agents_feel_no_coupling():
    spec = SystemSpec(
        kind="simple_spring", n_agents=3, dim=1, k=1.0,
        graph=InteractionGraph.from_edges(3, [(0, 1)]),
    )
    state = StateVector(np.array([[1.0], [0.0], [5.0]]), np.zeros((3, 1)))
    d = eval_derivative(spec, state)
    assert d.p[2, 0] == 0.0  # agent 2 has no neighbours
    assert d.p[0, 0] == pytest.approx(-1.0)


def test_damped_anchored_derivative_by_hand():
    spec = SystemSpec(kind="damped_spring", n_agents=1, dim=1, k=2.0, gamma=3.0, m=2.0)
    state = StateVector(np.array([[1.0]]), np.array([[4.0]]))
    d = eval_derivative(spec, state)
    assert d.q.item() == pytest.approx(2.0)          # p/m
    assert d.p.item() == pytest.approx(-2.0 - 6.0)   # -k q - gamma p/m


def test_forced_spring_drive_term():
    spec = SystemSpec(kind="forced_spring", n_agents=1, dim=1, k=1.0, k1=10.0, omega=2.0)
    state = StateVector(np.array([[0.0]]), np.array([[0.0]]))
    d0 = eval_derivative(spec, state, t=0.0)
    assert d0.p.item() == pytest.approx(-10.0)       # -k1 cos(0)
    d_quarter = eval_derivative(spec, state, t=np.pi / 4)
    assert d_quarter.p.item() == pytest.approx(-10.0 * np.cos(np.pi / 2))


# --------------------------------------------------------------- energies

def test_mechanical_energy_by_hand():
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1, k=0.4, m=2.0)
    state = StateVector(np.array([[1.0], [-1.0]]), np.array([[2.0], [0.0]]))
    # kinetic = (4 + 0)/(2*2) = 1; potential = 0.5 * 0.4 * (2)^2 = 0.8
    assert mechanical_energy(spec, state).item() == pytest.approx(1.8)


def test_hamiltonian_spring_only():
    """The energy-rate bookkeeping is defined for spring systems only."""
    pend = SystemSpec(kind="triple_pendulum", n_agents=3)
    state = StateVector(np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(UnsupportedSystemError):
        mechanical_energy_rate(pend, state)


def test_simple_spring_energy_conserved_under_rk4():
    spec = SystemSpec(kind="simple_spring", n_agents=3, dim=2, k=0.5)
    rng = np.random.default_rng(11)
    state0 = StateVector(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
    traj = integrate(make_derivative(spec), state0, TimeGrid(0.0, 1e-3, 4000), scheme="rk4")
    energies = np.array(
        [mechanical_energy(spec, traj.state(k)) for k in range(traj.n_points)]
    )
    assert np.max(np.abs(energies - energies[0])) < 1e-10


def test_energy_rate_matches_finite_difference():
    """Closed-form dE/dt vs centred differences of E along a real orbit."""
    for kind, kwargs in (
        ("simple_spring", {}),
        ("damped_spring", dict(gamma=1.5)),
        ("forced_spring", dict(k1=3.0, omega=2.0)),
    ):
        spec = SystemSpec(kind=kind, n_agents=2, dim=1, k=0.8, **kwargs)
        rng = np.random.default_rng(5)
        state0 = StateVector(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)))
        dt = 1e-4
        traj = integrate(make_derivative(spec), state0, TimeGrid(0.0, dt, 200), scheme="rk4")
        E = np.array([mechanical_energy(spec, traj.state(k)) for k in range(traj.n_points)])
        for k in (50, 100, 150):
            fd = (E[k + 1] - E[k - 1]) / (2 * dt)
            pred = mechanical_energy_rate(spec, traj.state(k), t=traj.times[k])
            assert abs(fd - pred) < 1e-5, kind


def test_damped_energy_monotone_nonincreasing():
    spec = SystemSpec(kind="damped_spring", n_agents=2, dim=1, k=0.8, gamma=2.0)
    rng = np.random.default_rng(9)
    state0 = StateVector(rng.standard_normal((2, 1)), rng.standard_normal((2, 1)))
    traj = integrate(make_derivative(spec), state0, TimeGrid(0.0, 1e-3, 3000), scheme="rk4")
    E = np.array([mechanical_energy(spec, traj.state(k)) for k in range(traj.n_points)])
    assert np.all(np.diff(E) <= 1e-12)


# --------------------------------------------------------------- pendulum

def test_pendulum_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, 3)
        M = pendulum_mass_matrix(theta, m=1.0, length=1.0)
        assert np.allclose(M, M.T)
        assert np.all(np.linalg.eigvalsh(M) > 0)


def test_pendulum_spec_rejects_a_near_singular_mass_matrix():
    """The solve's denominator is m l^2 times a bracket of magnitude at
    least 81 + 9 + 45 - 169 = 34 for any angles, so only the constants can
    bring it near zero: a pendulum whose 34 m l^2 is below
    PENDULUM_SINGULARITY_EPS is refused, one twice that is accepted, and a
    spring, which has no sticks, is not checked."""
    theta = np.random.default_rng(3).uniform(-np.pi, np.pi, (100_000, 3))
    th1, th2, th3 = theta.T
    bracket = (81.0 * np.cos(2.0 * (th1 - th2)) - 9.0 * np.cos(2.0 * (th1 - th3))
               + 45.0 * np.cos(2.0 * (th2 - th3)) - 169.0)
    assert np.abs(bracket).min() >= 34.0
    boundary = PENDULUM_SINGULARITY_EPS / 34.0
    for constants in ({"m": boundary / 2}, {"length": np.sqrt(boundary / 2)}):
        with pytest.raises(ConfigurationError, match=r"m \* length\*\*2 must be"):
            SystemSpec(kind="triple_pendulum", n_agents=3, **constants)
    SystemSpec(kind="triple_pendulum", n_agents=3, m=2 * boundary)
    SystemSpec(kind="simple_spring", m=boundary / 2)


def test_pendulum_hangs_still_at_stable_equilibrium():
    spec = SystemSpec(kind="triple_pendulum", n_agents=3)
    state = StateVector(np.zeros((3, 1)), np.zeros((3, 1)))
    d = eval_derivative(spec, state)
    assert np.allclose(d.q, 0.0)
    assert np.allclose(d.p, 0.0)


def test_pendulum_energy_conserved_under_rk4():
    spec = SystemSpec(kind="triple_pendulum", n_agents=3)
    state0 = StateVector(np.array([[0.7], [-0.4], [0.2]]), np.zeros((3, 1)))
    traj = integrate(make_derivative(spec), state0, TimeGrid(0.0, 1e-4, 5000), scheme="rk4")
    E = np.array([mechanical_energy(spec, traj.state(k)) for k in range(traj.n_points)])
    assert np.max(np.abs(E - E[0])) < 1e-8


def reference_pendulum_angle_rates(spec, state):
    """The angular velocities as first written, each cosine computed in
    every rate that uses it."""
    th1, th2, th3 = (state.q[..., i, 0] for i in range(3))
    p1, p2, p3 = (state.p[..., i, 0] for i in range(3))
    den = spec.m * spec.length**2 * (
        81.0 * np.cos(2.0 * (th1 - th2)) - 9.0 * np.cos(2.0 * (th1 - th3))
        + 45.0 * np.cos(2.0 * (th2 - th3)) - 169.0
    )
    th1d = 6.0 * (
        9.0 * p1 * np.cos(2.0 * (th2 - th3)) + 27.0 * p2 * np.cos(th1 - th2)
        - 9.0 * p2 * np.cos(th1 + th2 - 2.0 * th3) + 21.0 * p3 * np.cos(th1 - th3)
        - 27.0 * p3 * np.cos(th1 - 2.0 * th2 + th3) - 23.0 * p1
    ) / den
    th2d = 6.0 * (
        27.0 * p1 * np.cos(th1 - th2) - 9.0 * p1 * np.cos(th1 + th2 - 2.0 * th3)
        + 9.0 * p2 * np.cos(2.0 * (th1 - th3)) - 27.0 * p3 * np.cos(2.0 * th1 - th2 - th3)
        + 57.0 * p3 * np.cos(th2 - th3) - 47.0 * p2
    ) / den
    th3d = 6.0 * (
        21.0 * p1 * np.cos(th1 - th3) - 27.0 * p1 * np.cos(th1 - 2.0 * th2 + th3)
        - 27.0 * p2 * np.cos(2.0 * th1 - th2 - th3) + 57.0 * p2 * np.cos(th2 - th3)
        + 81.0 * p3 * np.cos(2.0 * (th1 - th2)) - 143.0 * p3
    ) / den
    return np.stack([th1d, th2d, th3d], axis=-1)[..., None]


def test_pendulum_angle_rates_bitwise_match_per_term_cosines():
    """Sharing each distinct cosine between the rates changes no bit."""
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.3, length=0.7)
    rng = np.random.default_rng(4)
    state = StateVector(rng.uniform(-3.0, 3.0, (4, 5, 3, 1)), rng.standard_normal((4, 5, 3, 1)))
    rates = eval_derivative(spec, state).q
    assert rates.shape == (4, 5, 3, 1)
    assert rates.tobytes() == reference_pendulum_angle_rates(spec, state).tobytes()


def reference_pendulum_momentum_rates(spec, state):
    """The momentum rates as first written, one term at a time on top of the
    reference angular velocities."""
    th1, th2, th3 = (state.q[..., i, 0] for i in range(3))
    th1d, th2d, th3d = (reference_pendulum_angle_rates(spec, state)[..., i, 0] for i in range(3))
    m, length, g = spec.m, spec.length, spec.g
    half_ml = 0.5 * m * length
    pd1 = -half_ml * (
        3.0 * th1d * th2d * length * np.sin(th1 - th2)
        + th1d * th3d * length * np.sin(th1 - th3) + 5.0 * g * np.sin(th1)
    )
    pd2 = -half_ml * (
        -3.0 * th1d * th2d * length * np.sin(th1 - th2)
        + th2d * th3d * length * np.sin(th2 - th3) + 3.0 * g * np.sin(th2)
    )
    pd3 = +half_ml * (
        th1d * th3d * length * np.sin(th1 - th3)
        + th2d * th3d * length * np.sin(th2 - th3) - g * np.sin(th3)
    )
    return np.stack([pd1, pd2, pd3], axis=-1)[..., None]


def test_pendulum_momentum_rates_bitwise_match_per_term_formula():
    """Batched states, m and length off one, and poses where angles coincide
    (zero differences, of either sign) keep every bit of the momentum rates."""
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.3, length=0.7, g=9.81)
    rng = np.random.default_rng(5)
    q = rng.uniform(-3.0, 3.0, (6, 4, 3, 1))
    p = rng.standard_normal((6, 4, 3, 1))
    q[0, :, 1] = q[0, :, 0]          # th1 == th2
    q[1, :, 2] = q[1, :, 1]          # th2 == th3
    q[2, :, :] = q[2, :, :1]         # all three equal
    q[3, 0] = [[0.0], [-0.0], [0.0]]  # signed zeros
    p[3, 1] = 0.0                    # at rest
    d = eval_derivative(spec, StateVector(q, p))
    assert d.p.shape == (6, 4, 3, 1)
    assert d.p.tobytes() == reference_pendulum_momentum_rates(spec, StateVector(q, p)).tobytes()
    one = StateVector(q[4, 2], p[4, 2])
    assert eval_derivative(spec, one).p.tobytes() == reference_pendulum_momentum_rates(spec, one).tobytes()


def test_pendulum_momentum_rate_is_minus_gravity_torque_at_rest():
    """With p = 0 the momentum rates reduce to the gravity torques.

    For uniform sticks the torques at rest are -(g/2)(5 sin th1, 3 sin th2,
    sin th3) with m = L = 1; checked at a generic non-equilibrium pose.
    """
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.0, length=1.0, g=9.8)
    theta = np.array([[0.5], [-0.3], [0.9]])
    d = eval_derivative(spec, StateVector(theta, np.zeros((3, 1))))
    expected = -0.5 * 9.8 * np.array(
        [5 * np.sin(0.5), 3 * np.sin(-0.3), np.sin(0.9)]
    )
    assert np.allclose(d.p[:, 0], expected, atol=1e-12)


# -------------------------------------------------------------- attractor

def test_attractor_derivative_by_hand():
    spec = SystemSpec(kind="attractor", n_agents=1)
    state = StateVector(np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 0)))
    d = eval_derivative(spec, state)
    assert np.allclose(d.q, [[1.0 + 6.0, -3.0, 4.0 + 12.0]])


def test_attractor_has_no_mechanical_energy():
    spec = SystemSpec(kind="attractor", n_agents=1)
    state = StateVector(np.array([[0.0, 0.0, 2.0]]), np.zeros((1, 0)))
    with pytest.raises(UnsupportedSystemError):
        mechanical_energy(spec, state)


# ----------------------------------------------------- one field protocol

@pytest.mark.parametrize("spec", [
    SystemSpec(kind="simple_spring", n_agents=1, dim=2),
    SystemSpec(kind="damped_spring", n_agents=3, dim=2, damped_form="anchored"),
    SystemSpec(kind="damped_spring", n_agents=4, dim=1),
    SystemSpec(kind="forced_spring", n_agents=3, dim=3),
    SystemSpec(kind="triple_pendulum", n_agents=3),
    SystemSpec(kind="attractor"),
], ids=lambda spec: f"{spec.kind}-{spec.n_agents}x{spec.d_q}")
def test_eval_derivative_is_bitwise_the_bound_rate(spec):
    """eval_derivative, bound on a fresh row-major output, has the bits of
    the rate bound once on the packed layout integrate marches, at every
    time the bound rate is called."""
    rng = np.random.default_rng(4)
    q = rng.uniform(0.2, 1.5, (3, spec.n_agents, spec.d_q))
    p = rng.standard_normal((3, spec.n_agents, spec.d_p))
    q[0, 0, 0] = -0.0
    state = StateVector(q, p)
    y = state.packed()
    out = np.empty_like(y)
    rate = make_derivative(spec)(y, out)
    for t in (0.0, 0.7, -2.5):
        rate(t)
        d = eval_derivative(spec, state, t)
        assert d.q.tobytes() == out[..., :spec.d_q].tobytes(), t
        assert d.p.tobytes() == out[..., spec.d_q:].tobytes(), t


def test_eval_derivative_takes_one_time_per_state_on_the_forced_spring():
    """The chain-rule rate's path: an array of times, one per stacked
    state, gives each state the bits of its own bound rate at its time."""
    spec = SystemSpec(kind="forced_spring", n_agents=3, dim=2)
    rng = np.random.default_rng(6)
    q, p = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 2))
    t = np.array([0.0, 0.4, 1.3, -0.9])
    d = eval_derivative(spec, StateVector(q, p), t[:, None, None])
    for b in range(4):
        y = StateVector(q[b], p[b]).packed()
        out = np.empty_like(y)
        make_derivative(spec)(y, out)(float(t[b]))
        assert d.q[b].tobytes() == out[..., :2].tobytes()
        assert d.p[b].tobytes() == out[..., 2:].tobytes()


# ------------------------------------------------------------ classifiers

def test_reversibility_classification():
    expected = {
        "simple_spring": "conservative_reversible",
        "triple_pendulum": "conservative_reversible",
        "forced_spring": "nonconservative_reversible",
        "attractor": "nonconservative_reversible",
        "damped_spring": "nonconservative_irreversible",
    }
    for kind, label in expected.items():
        n = 3 if kind == "triple_pendulum" else 1
        assert classify_reversibility(SystemSpec(kind=kind, n_agents=n)) == label
    assert set(expected) == set(SYSTEM_KINDS)


# ------------------------------------------------------------ closed form

def test_analytic_oscillator_matches_integration():
    k, m, q0, p0 = 0.1, 1.0, 1.0, 0.5
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1, k=k, m=m)
    state0 = StateVector(np.array([[q0]]), np.array([[p0]]))
    grid = TimeGrid(0.0, 1e-3, 6000)
    traj = integrate(make_derivative(spec), state0, grid, scheme="rk4")
    q_ex, p_ex = analytic_solution_simple_spring_1d(q0, p0, k, m, traj.times)
    assert np.max(np.abs(traj.q[:, 0, 0] - q_ex)) < 1e-10
    assert np.max(np.abs(traj.p[:, 0, 0] - p_ex)) < 1e-10


def test_analytic_oscillator_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        analytic_solution_simple_spring_1d(1.0, 0.0, -0.1, 1.0, 0.0)
