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

from out_of_place import (
    STEP_FNS,
    reference_deriv,
    reference_pendulum_angle_rates,
    reference_pendulum_momentum_rates,
    reference_spring_deriv,
    reference_spring_force,
)
from revode.errors import ConfigurationError, UnsupportedSystemError
from revode.integrators import StateVector, TimeGrid, integrate
from revode.systems import (
    FIXED_AGENTS,
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


def test_stacked_graph_has_no_single_edge_list():
    """A stacked adjacency holds one graph per member, so neither its edges
    nor the params_dict of an ensemble spec (as build_trajectories stacks
    it) are one list: both raise ConfigurationError, not an unpacking error."""
    chain, complete = InteractionGraph.chain(3).adjacency, InteractionGraph.complete(3).adjacency
    for adjacency in (np.stack([chain, complete]), chain[None]):
        stacked = InteractionGraph(3, adjacency)
        with pytest.raises(ConfigurationError, match="one edge list per member"):
            stacked.edges()
        spec = SystemSpec(kind="damped_spring", n_agents=3, dim=2, graph=stacked)
        with pytest.raises(ConfigurationError, match="one edge list per member"):
            spec.params_dict()


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


@pytest.mark.parametrize("spec, q", [
    (SystemSpec(kind="simple_spring", n_agents=3, dim=2, graph=InteractionGraph.from_edges(3, [])),
     [[0.0, -0.0], [-0.0, 0.0], [1.5, -2.0]]),
    (SystemSpec(kind="simple_spring", n_agents=3, dim=2, graph=InteractionGraph.from_edges(3, [(0, 1)])),
     [[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]]),
    (SystemSpec(kind="damped_spring", n_agents=3, dim=2, graph=InteractionGraph.chain(3)),
     [[0.7, -0.0], [0.7, -0.0], [0.7, -0.0]]),
    (SystemSpec(kind="simple_spring", n_agents=4, dim=2), [[-3.25, 0.0]] * 4),
    (SystemSpec(kind="damped_spring", n_agents=4, dim=1,
                graph=InteractionGraph.from_edges(4, [(0, 1), (2, 3)])),
     [[-0.0], [0.0], [2.5], [2.5]]),
    (SystemSpec(kind="simple_spring", n_agents=3, dim=1), [[0.0], [-0.0], [-0.0]]),
], ids=["isolated", "isolated_and_paired_zeros", "coinciding", "coinciding_complete",
        "d1_coinciding_pair", "d1_signed_zeros"])
@pytest.mark.parametrize("stack", [False, True], ids=["one_graph", "one_member_stack"])
def test_zero_graph_forces_have_the_reference_bits(spec, q, stack):
    """Where the graph force is zero, k (s - b) with b = deg q and s = A q
    has the bits of 0 - k (b - s): isolated agents (deg 0) at q = +-0.0,
    coinciding neighbours (b == s, for d = 1 on the matmul(adj, q) branch
    too), and the one-member (1, n, n) stack that build_trajectory passes."""
    q = np.array(q)
    if stack:
        spec = replace(spec, graph=InteractionGraph(spec.n_agents, spec.resolved_graph().adjacency[None]))
        q = q[None]
    want = reference_spring_force(spec, q)
    assert not want.any()
    for y in (at_rest(q), StateVector(q, np.zeros_like(q)).packed()):
        assert spring_force(spec, y).tobytes() == want.tobytes()
    # and the whole rate at p = -0.0, where a damping term is -0.0
    y = StateVector(q, np.full_like(q, -0.0)).packed()
    out = np.empty_like(y)
    make_derivative(spec)(y, out)(0.0)
    assert out.tobytes() == reference_spring_deriv(spec)(y, 0.0).tobytes()


def test_underflowed_graph_force_keeps_its_sign():
    """The one state where k (s - b) parts from 0 - k (b - s): positions one
    subnormal apart, where k (b - s) underflows to zero from b > s.  The
    field keeps the true force's sign, -0.0, on the leading agent; the
    reference's 0 - (+0.0) gives +0.0."""
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1, k=0.1)
    q = np.array([[5e-324], [0.0]])
    assert spring_force(spec, at_rest(q)).tobytes() == np.array([[-0.0], [0.0]]).tobytes()
    assert reference_spring_force(spec, q).tobytes() == np.array([[0.0], [0.0]]).tobytes()


@pytest.mark.parametrize("spec, count", [
    (SystemSpec(kind="simple_spring", n_agents=1, dim=2, k0=0.3), 3),
    (SystemSpec(kind="damped_spring", n_agents=4, dim=2, damped_form="anchored", k0=2.0), 5),
    (SystemSpec(kind="simple_spring", n_agents=5, dim=2), 5),
    (SystemSpec(kind="damped_spring", n_agents=5, dim=2), 7),
    (SystemSpec(kind="damped_spring", n_agents=5, dim=1), 7),
], ids=["anchored_simple", "anchored_damped", "graph_simple", "graph_damped", "graph_damped_d1"])
@pytest.mark.parametrize("lead, per_member", [((), False), ((1,), False), ((3,), False), ((3,), True)],
                         ids=["lead0", "lead1", "lead2", "lead2_own_graphs"])
def test_one_spring_rate_makes_its_numpy_calls(monkeypatch, spec, count, lead, per_member):
    """One spring rate takes [deg q | gamma p] (or [k q | gamma p]) from one
    product and the graph force as k (s - b): 3, 5, 5 and 7 calls of the
    ufuncs it binds for the anchored and graph forms, simple and damped;
    a separate product per term or a sign flip would raise the count.  The
    neighbour sum is one np.dot when every member shares the graph (d > 1)
    and one batched np.matmul when each member has its own, or d = 1."""
    calls = []

    def counted(ufunc):
        return lambda *operands: calls.append(ufunc.__name__) or ufunc(*operands)

    for name in ("add", "subtract", "multiply", "divide", "matmul", "dot"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    rng = np.random.default_rng(9)
    if per_member:  # three differing graphs: a chain, a star and the complete graph
        chain, star = InteractionGraph.chain(spec.n_agents), InteractionGraph.from_edges(
            spec.n_agents, [(0, j) for j in range(1, spec.n_agents)])
        adjacency = [g.adjacency for g in (chain, star, InteractionGraph.complete(spec.n_agents))]
        spec = replace(spec, graph=InteractionGraph(spec.n_agents, np.stack(adjacency)))
    shape = lead + (spec.n_agents, spec.dim)
    y = StateVector(rng.standard_normal(shape), rng.standard_normal(shape)).packed()
    out = np.empty_like(y)
    rate = make_derivative(spec)(y, out)
    calls.clear()
    rate(0.0)
    assert len(calls) == count, calls
    graph_force = spec._spring_terms[2] is not None
    shared = graph_force and not per_member and spec.dim > 1
    assert calls.count("dot") == shared and calls.count("matmul") == (graph_force and not shared)
    assert out.tobytes() == reference_spring_deriv(spec)(y, 0.0).tobytes()


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["simple_spring", "damped_spring", "forced_spring"]),
    members=st.integers(1, 4),
    shared=st.booleans(),
    n=st.integers(2, 8),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_shared_graph_keeps_the_reference_bits_in_the_rate_and_the_march(
    kind, members, shared, n, dim, seed
):
    """Members that share one graph take A q as one np.dot of q's
    memory-order rows, and members with their own graphs one batched matmul:
    either way the rate, bound once and called on states rewritten in place,
    and three Euler or RK4 steps of `integrate` have the reference bits.
    Bound on a row-major y, whose q rows are not one block (a reshape would
    copy them), the rate still reads y's contents at every call."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random(((1,) if shared else (members,)) + (n, n)) < 0.5, 1)
    adjacency = np.repeat(upper | np.swapaxes(upper, -1, -2), members if shared else 1, axis=0)
    spec = SystemSpec(
        kind=kind, n_agents=n, dim=dim, graph=InteractionGraph(n, adjacency),
        m=rng.uniform(0.5, 2.0), k=rng.uniform(0.05, 2.0), gamma=rng.uniform(0.0, 3.0),
        k1=rng.uniform(0.0, 10.0), omega=rng.uniform(0.1, 3.0),
    )
    assert spec._spring_terms[2].ndim == (2 if (adjacency == adjacency[0]).all() else 3)
    shape, reference = (members, n, dim), reference_spring_deriv(spec)
    ys = [StateVector(np.zeros(shape), np.zeros(shape)).packed(), np.zeros(shape[:-1] + (2 * dim,))]
    outs = [np.empty_like(y) for y in ys]
    rates = [make_derivative(spec)(y, out) for y, out in zip(ys, outs)]
    for _ in range(3):
        y_new = np.concatenate([draw_with_signed_zeros(rng, shape) for _ in "qp"], axis=-1)
        t = float(rng.uniform(-2.0, 2.0))
        for layout, y, out, rate in zip(("packed", "row-major"), ys, outs, rates):
            y[...] = y_new
            rate(t)
            assert out.tobytes() == reference(y_new, t).tobytes(), layout
    q, p = draw_with_signed_zeros(rng, shape), draw_with_signed_zeros(rng, shape)
    t0, dt = rng.uniform(-2.0, 2.0), rng.uniform(1e-3, 0.1)
    for scheme in ("euler", "rk4"):
        got = integrate(make_derivative(spec), StateVector(q, p), TimeGrid(t0, dt, 3), scheme)
        want = np.concatenate([q, p], axis=-1)
        for i in range(3):
            want = STEP_FNS[scheme](reference, want, t0 + i * dt, dt)
        assert got.q[-1].tobytes() == want[..., :dim].tobytes(), scheme
        assert got.p[-1].tobytes() == want[..., dim:].tobytes(), scheme


def test_spring_terms_resolve_one_adjacency_for_members_that_share_a_graph():
    """An identical stack collapses to one (n, n) adjacency and (n,) degrees,
    whatever its leading axes; a stack of differing graphs keeps its own
    adjacency per member."""
    chain, complete = InteractionGraph.chain(4).adjacency, InteractionGraph.complete(4).adjacency
    for stack, shape in [
        (chain[None], (4, 4)), (np.stack([chain] * 3), (4, 4)),
        (np.broadcast_to(complete, (2, 3, 4, 4)), (4, 4)),
        (np.stack([chain, complete, chain]), (3, 4, 4)),
    ]:
        spec = SystemSpec(kind="damped_spring", n_agents=4, dim=2, graph=InteractionGraph(4, stack))
        k, deg, adj = spec._spring_terms
        assert adj.shape == shape and deg.shape == shape[:-1] and not adj.flags.writeable
        assert np.array_equal(np.broadcast_to(adj, stack.shape), stack)


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


def test_pendulum_angle_rates_bitwise_match_per_term_cosines():
    """Sharing each distinct cosine between the rates changes no bit."""
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.3, length=0.7)
    rng = np.random.default_rng(4)
    state = StateVector(rng.uniform(-3.0, 3.0, (4, 5, 3, 1)), rng.standard_normal((4, 5, 3, 1)))
    rates = eval_derivative(spec, state).q
    assert rates.shape == (4, 5, 3, 1)
    assert rates.tobytes() == reference_pendulum_angle_rates(spec, state).tobytes()


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


@pytest.mark.parametrize("lead", [(), (1,), (2,)], ids=str)
def test_zero_momenta_give_the_reference_sign_of_zero_angular_velocity(lead):
    """At p = ±0 every angle-rate numerator term is a signed zero, and the
    per-term formula sums them from its first term.  A sum that starts from
    +0.0 turns an all -0.0 numerator into +0.0 and flips the sign of the
    zero angular velocity.  Checked bitwise on 3000 angle triples, some with
    coinciding angles, times the 8 sign patterns of p = ±0."""
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.3, length=0.7, g=9.81)
    rng = np.random.default_rng(31)
    theta = rng.uniform(-3.0, 3.0, (3000, 3))
    theta[::7, 1] = theta[::7, 0]     # th1 == th2
    theta[1::7, 2] = theta[1::7, 1]   # th2 == th3
    theta[2::7, :] = theta[2::7, :1]  # all three equal
    signs = np.where((np.arange(8)[:, None] >> np.arange(3)) & 1, -0.0, 0.0)
    q = np.repeat(theta, 8, axis=0)[..., None]
    p = np.tile(signs, (3000, 1))[..., None]
    expected = reference_pendulum_angle_rates(spec, StateVector(q, p))
    assert (expected == 0.0).all() and 0 < np.signbit(expected).sum() < expected.size
    y = StateVector(np.zeros(lead + (3, 1)), np.zeros(lead + (3, 1))).packed()
    out = np.empty_like(y)
    rate = make_derivative(spec)(y, out)
    states = np.concatenate([q, p], axis=-1).reshape((-1,) + lead + (3, 2))
    w = np.empty(states.shape[:-1] + (1,))
    for k, state in enumerate(states):
        y[...] = state
        rate(0.0)
        w[k] = out[..., :1]
    assert w.reshape((-1, 3, 1)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("lead", [(), (2,)], ids=str)
def test_one_pendulum_rate_makes_twenty_numpy_calls(monkeypatch, lead):
    """One pendulum rate folds its stacked factors in 20 calls of the ufuncs
    it binds (reductions included) and np.copyto; a call per product stage
    would raise the count.  The gathers are not counted."""
    calls = []

    class Counted:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __call__(self, *operands):
            calls.append(self.ufunc.__name__)
            return self.ufunc(*operands)

        def reduce(self, *args):
            calls.append(self.ufunc.__name__ + ".reduce")
            return self.ufunc.reduce(*args)

    for name in ("add", "subtract", "multiply", "divide", "cos", "sin"):
        monkeypatch.setattr(np, name, Counted(getattr(np, name)))
    copyto = np.copyto
    monkeypatch.setattr(np, "copyto", lambda *args: calls.append("copyto") or copyto(*args))
    spec = SystemSpec(kind="triple_pendulum", n_agents=3, m=1.3, length=0.7, g=9.81)
    rng = np.random.default_rng(8)
    state = StateVector(rng.uniform(-3.0, 3.0, lead + (3, 1)), rng.standard_normal(lead + (3, 1)))
    y = state.packed()
    out = np.empty_like(y)
    rate = make_derivative(spec)(y, out)
    calls.clear()
    rate(0.0)
    assert len(calls) == 20, calls
    assert out.tobytes() == reference_deriv(spec)(y, 0.0).tobytes()


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


FIELD_KINDS = [("simple_spring", None), ("forced_spring", None), ("damped_spring", "anchored"),
               ("damped_spring", "pairwise"), ("triple_pendulum", None), ("attractor", None)]


def draw_field_spec(rng, kind, damped_form, lead):
    """A spec of `kind` with every constant drawn away from one; springs get
    a complete graph, one sampled graph, or one sampled graph per member."""
    if kind in FIXED_AGENTS:
        return SystemSpec(kind=kind, n_agents=FIXED_AGENTS[kind], m=rng.uniform(0.5, 2.0),
                          length=rng.uniform(0.5, 2.0), g=rng.uniform(5.0, 15.0))
    n, graph = int(rng.integers(1, 6)), None
    if n > 1 and rng.random() < 0.7:
        upper = np.triu(rng.random((lead if rng.random() < 0.5 else ()) + (n, n)) < 0.5, 1)
        graph = InteractionGraph(n, upper | np.swapaxes(upper, -1, -2))
    return SystemSpec(
        kind=kind, n_agents=n, dim=int(rng.integers(1, 4)), graph=graph, damped_form=damped_form,
        m=rng.uniform(0.5, 2.0), k=rng.uniform(0.05, 2.0), k0=rng.uniform(0.05, 2.0),
        gamma=rng.uniform(0.1, 3.0), k1=rng.uniform(0.5, 10.0), omega=rng.uniform(0.1, 3.0),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(FIELD_KINDS),
    lead=st.sampled_from([(), (1,), (2,), (3,), (2, 3), (45,)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_field_bound_once_keeps_the_reference_bits_on_every_call(kind, lead, seed):
    """A field bound once on the packed layout integrate marches, with y
    rewritten in place between calls as integrate does, gives the per-term
    reference's bits on every call: nothing its bind-time buffers keep from
    one call leaks into the next.  The same holds bound on a row-major
    concatenation and on a Fortran-ordered copy, so the layout sets only the
    speed.  States hold signed zeros, and pendulum angles coincide."""
    rng = np.random.default_rng(seed)
    spec = draw_field_spec(rng, *kind, lead)
    shape = lead + (spec.n_agents,)
    q0, p0 = np.zeros(shape + (spec.d_q,)), np.zeros(shape + (spec.d_p,))
    packed = StateVector(q0, p0).packed()
    ys = [packed, np.concatenate([q0, p0], axis=-1), np.asfortranarray(packed)]
    assert ys[1].flags.c_contiguous and ys[2].flags.f_contiguous
    outs = [np.empty_like(y) for y in ys]
    rates, reference = [make_derivative(spec)(y, out) for y, out in zip(ys, outs)], reference_deriv(spec)
    for _ in range(4):
        q, p = draw_with_signed_zeros(rng, shape + (spec.d_q,)), draw_with_signed_zeros(rng, shape + (spec.d_p,))
        if spec.kind == "triple_pendulum":
            i, j = rng.choice(3, 2, replace=False)
            q[..., i, :] = q[..., j, :]  # two angles coincide
        t = float(rng.uniform(-2.0, 2.0))
        expected = reference(np.concatenate([q, p], axis=-1), t).tobytes()
        for layout, y, out, rate in zip(("packed", "row-major", "Fortran"), ys, outs, rates):
            y[...] = np.concatenate([q, p], axis=-1)
            rate(t)
            assert out.tobytes() == expected, layout


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
