"""Model-component tests: encoder, latent rollout machinery, decoder,
and checkpoint persistence.

The latent solver steps are verified against a linear field z' = A z
whose unrolled update has a closed matrix form, and the one-node rollout
legs against the stage-by-stage tape of `stagewise_rollout`.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_ops as ops
import stagewise_rollout as stagewise
from reference_ops import grad_check, leaf_grads, leaves_of
from revode import model

from revode import autodiff as ad
from revode.autodiff import Tape
from revode.data import ObservationSet, directed_edges
from revode.errors import (
    ArtifactMismatchError, ConfigurationError, EncodingError, RevodeError,
    RolloutDivergedError, ShapeError,
)
from revode.model import (
    ModelConfig,
    decode,
    encode_agent,
    encode_initial_states,
    init_params,
    load_checkpoint,
    make_ode_func,
    param_shapes,
    param_views,
    rollout_forward,
    rollout_reverse,
    save_checkpoint,
    temporal_encoding,
)
from revode.integrators import SCHEMES
from revode.systems import InteractionGraph
from revode.training import build_batch

TINY = ModelConfig(d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8)


def tiny_obs(seed=0, n_agents=2, K=4, d=2, n_cond=4, graph=None):
    """n_cond condition observations per agent: an int, or one per agent."""
    rng = np.random.default_rng(seed)
    counts = [n_cond] * n_agents if np.isscalar(n_cond) else n_cond
    cond_times, cond_feats, pred_idx, pred_feats = [], [], [], []
    for m in counts:
        ct = np.sort(rng.uniform(-1.0, -0.01, m - 1))
        cond_times.append(np.append(ct, 0.0))
        cond_feats.append(rng.standard_normal((m, d)))
        pred_idx.append(np.arange(1, K + 1, dtype=np.int64))
        pred_feats.append(rng.standard_normal((K, d)))
    return ObservationSet(
        n_agents=n_agents, d=d, t0=0.0, dt=0.1, n_rollout_steps=K,
        cond_times=cond_times, cond_feats=cond_feats,
        pred_idx=pred_idx, pred_feats=pred_feats,
        graph=InteractionGraph.complete(n_agents) if graph is None else graph,
    )


# ------------------------------------------------------------------ config

def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(d_obs=2, d_model=7)  # odd width breaks the sin/cos pairs
    with pytest.raises(ConfigurationError):
        ModelConfig(d_obs=2, scheme="leapfrog")
    with pytest.raises(ConfigurationError):
        ModelConfig(d_obs=0)
    for bad in (dict(d_model=8.0), dict(d_enc="4")):
        with pytest.raises(ConfigurationError):
            ModelConfig(d_obs=2, **bad)
    cfg = ModelConfig(d_obs=2, d_enc=4, d_aug=0)
    assert cfg.d_z == 4


def test_model_config_dict_roundtrip():
    cfg = ModelConfig(d_obs=4, d_enc=8, d_aug=8, d_model=16, scheme="euler")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------- encoding

def test_temporal_encoding_zero_offset():
    enc = temporal_encoding(np.array([0.0]), d=6)
    assert np.allclose(enc[0, 0::2], 0.0)
    assert np.allclose(enc[0, 1::2], 1.0)


def test_temporal_encoding_hand_values():
    t = 0.5
    enc = temporal_encoding(np.array([t]), d=4)
    # scales are TE_BASE^(0/4)=1 and TE_BASE^(2/4)=100, for TE_BASE = 10000
    expected = [np.sin(t), np.cos(t), np.sin(t / 100), np.cos(t / 100)]
    assert np.allclose(enc[0], expected)


def test_temporal_encoding_rejects_odd_dim():
    with pytest.raises(ConfigurationError):
        temporal_encoding(np.zeros(1), d=5)


def test_init_params_deterministic_and_seed_sensitive():
    a = init_params(TINY, seed=3)
    b = init_params(TINY, seed=3)
    c = init_params(TINY, seed=4)
    assert set(a) == set(b) == set(c)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_params_shapes_compose():
    p = init_params(TINY, seed=0)
    assert {k: v.shape for k, v in p.items()} == param_shapes(TINY)
    assert p["enc.embed.W"].shape == (TINY.d_obs, TINY.d_model)
    assert p["ode.msg.W"].shape == (2 * TINY.d_z, TINY.ode_hidden)
    assert p["ode.upd2.W"].shape == (TINY.ode_hidden, TINY.d_z)
    assert p["dec.W2"].shape == (TINY.dec_hidden, TINY.d_obs)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(d_obs=st.integers(1, 4), d_enc=st.integers(1, 4), d_aug=st.integers(0, 4),
       half_model=st.integers(1, 4), ode_hidden=st.integers(1, 6),
       dec_hidden=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_param_views_lay_out_one_flat_vector(
        d_obs, d_enc, d_aug, half_model, ode_hidden, dec_hidden, seed):
    """Each parameter is a view into one flat vector, the views cover every
    element once in param_shapes' order, writes go through both ways, and
    viewing packed init_params gives back its bits."""
    config = ModelConfig(d_obs=d_obs, d_enc=d_enc, d_aug=d_aug, d_model=2 * half_model,
                         ode_hidden=ode_hidden, dec_hidden=dec_hidden)
    shapes = param_shapes(config)
    theta = np.arange(float(sum(math.prod(shape) for shape in shapes.values())))
    views = param_views(theta, config)
    assert {name: view.shape for name, view in views.items()} == shapes
    assert list(views) == list(shapes)
    assert all(view.base is theta for view in views.values())
    assert np.array_equal(np.concatenate([view.ravel() for view in views.values()]), theta)

    views["dec.b2"][0, -1] = -1.0
    assert theta[-1] == -1.0
    theta[0] = -2.0
    assert views["enc.embed.W"][0, 0] == -2.0

    params = init_params(config, seed)
    packed = np.concatenate([p.ravel() for p in params.values()])
    for name, view in param_views(packed, config).items():
        assert view.tobytes() == params[name].tobytes(), name


def test_encode_initial_states_shape_and_determinism():
    obs = tiny_obs(seed=5)
    params = init_params(TINY, seed=0)

    def run():
        tape = Tape()
        return encode_initial_states(tape, leaves_of(tape, params), TINY, [obs]).value

    z0_a, z0_b = run(), run()
    assert z0_a.shape == (2, TINY.d_z)
    assert np.array_equal(z0_a, z0_b)
    # augmented tail starts at exactly zero
    assert np.all(z0_a[:, TINY.d_enc:] == 0.0)


def test_encoder_gradients_reach_attention_weights():
    obs = tiny_obs(seed=6)
    params = init_params(TINY, seed=1)
    tape = Tape()
    leaves = leaves_of(tape, params)
    z0 = encode_initial_states(tape, leaves, TINY, [obs])
    grads = leaf_grads(tape, ad.l2_norm_sq(z0), leaves)
    for key in ("enc.embed.W", "enc.attn.Wq", "enc.attn.Wk", "enc.attn.Wv", "enc.out.W"):
        assert key in grads and np.any(grads[key] != 0.0), key


def test_padded_encoder_pass_matches_each_agent_alone():
    """Agents with 1, 5 and 3 observations in one masked pass encode as
    they do on their own, and so do samples batched with others."""
    params = init_params(TINY, seed=2)
    rng = np.random.default_rng(11)
    counts = np.array([1, 5, 3])
    m = counts.max()
    times = np.zeros((3, m))
    feats = np.zeros((3, m, TINY.d_obs))
    alone = []
    for a, n in enumerate(counts):
        times[a, :n] = np.append(np.sort(rng.uniform(-1.0, -0.01, n - 1)), 0.0)
        feats[a, :n] = rng.standard_normal((n, TINY.d_obs))
        tape = Tape()
        alone.append(encode_agent(tape, leaves_of(tape, params), TINY,
                                  times[a:a + 1, :n], feats[a:a + 1, :n], [n]).value[0])
    tape = Tape()
    padded = encode_agent(tape, leaves_of(tape, params), TINY, times, feats, counts).value
    assert padded.shape == (3, TINY.d_model)
    assert np.allclose(padded, np.stack(alone), rtol=1e-12, atol=1e-12)

    samples = [tiny_obs(seed=s, n_cond=c) for s, c in ((7, [2, 6]), (8, [4, 1]))]
    tape = Tape()
    batched = encode_initial_states(tape, leaves_of(tape, params), TINY, samples).value
    for b, obs in enumerate(samples):
        tape = Tape()
        own = encode_initial_states(tape, leaves_of(tape, params), TINY, [obs]).value
        assert np.allclose(batched[2 * b:2 * b + 2], own, rtol=1e-12, atol=1e-12)


def test_encoder_rejects_agent_without_observations():
    params = init_params(TINY, seed=0)
    tape = Tape()
    with pytest.raises(EncodingError):
        encode_agent(tape, leaves_of(tape, params), TINY,
                     np.zeros((2, 3)), np.zeros((2, 3, TINY.d_obs)), [3, 0])


def encoder_bits(encoder, monkeypatch, config, samples, params):
    """Nodes, z0 and parameter gradients of encode_initial_states with
    `encoder` as model.encode_agent; the loss weights every entry of z0."""
    monkeypatch.setattr(model, "encode_agent", encoder)
    tape = Tape()
    leaves = leaves_of(tape, params)
    before = len(tape)
    z0 = encode_initial_states(tape, leaves, config, samples)
    nodes = len(tape) - before
    weight = np.linspace(0.5, 1.5, z0.value.size).reshape(z0.shape)
    return nodes, z0.value, leaf_grads(tape, ad.l2_norm_sq(ops.mul(z0, weight)), leaves)


def assert_encoder_matches_the_chain(monkeypatch, config, samples, params):
    (n_fused, fused, fused_grads), (n_ref, ref, ref_grads) = (
        encoder_bits(enc, monkeypatch, config, samples, params)
        for enc in (encode_agent, stagewise.encode_agent))
    padded = len({len(t) for obs in samples for t in obs.cond_times}) > 1
    assert n_fused == n_ref - (32 if padded else 30)
    assert fused.tobytes() == ref.tobytes()
    assert set(fused_grads) == set(ref_grads) == {k for k in params if k.startswith("enc.")}
    for name, grad in ref_grads.items():
        assert fused_grads[name].tobytes() == grad.tobytes(), name


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("config", [TINY, replace(TINY, d_aug=0)], ids=["plain", "no_aug"])
def test_encoder_is_one_node_with_the_composite_bits(monkeypatch, config, padded):
    """The one-node encode's value and gradients equal the chain of
    primitives' bit for bit, with or without padding, and with or without
    the zero augmentation columns after the encoding."""
    params = init_params(config, seed=4)
    counts = ([3, 6], [1, 4]) if padded else ([5, 5], [5, 5])
    samples = [tiny_obs(seed=20 + b, n_cond=c) for b, c in enumerate(counts)]
    assert_encoder_matches_the_chain(monkeypatch, config, samples, params)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.lists(st.integers(1, 6), min_size=1, max_size=5), seed=st.integers(0, 99))
def test_encoder_bits_hold_for_any_observation_counts(monkeypatch, counts, seed):
    """Any pattern of per-agent observation counts, one-observation agents
    included, in one sample: the one node keeps the chain's bits."""
    params = init_params(TINY, seed=seed)
    sample = tiny_obs(seed=seed, n_agents=len(counts), n_cond=counts)
    assert_encoder_matches_the_chain(monkeypatch, TINY, [sample], params)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d_obs=st.integers(1, 4), d_model=st.sampled_from((2, 4, 6)), d_enc=st.integers(1, 4),
       d_aug=st.integers(0, 2), n_agents=st.integers(1, 3),
       counts=st.lists(st.lists(st.integers(1, 5), min_size=3, max_size=3), min_size=1, max_size=3),
       seed=st.integers(0, 2**16), share=st.sampled_from((0.0, 0.3, 1.0)))
def test_encoder_bits_hold_for_any_widths_and_samples(
        monkeypatch, d_obs, d_model, d_enc, d_aug, n_agents, counts, seed, share):
    """Any feature, model and encoding widths, one to three samples in one
    pass, any observation counts, and signed zeros among the features: the
    one node keeps the chain's bits."""
    config = ModelConfig(d_obs=d_obs, d_enc=d_enc, d_aug=d_aug, d_model=d_model,
                         ode_hidden=2, dec_hidden=2)
    rng = np.random.default_rng(seed)
    samples = []
    for b, sample_counts in enumerate(counts):
        obs = tiny_obs(seed=seed + b, n_agents=n_agents, d=d_obs, n_cond=sample_counts[:n_agents])
        signed = [with_signed_zeros(rng, f.shape, share) for f in obs.cond_feats]
        samples.append(replace(obs, cond_feats=signed))
    assert_encoder_matches_the_chain(monkeypatch, config, samples, init_params(config, seed))


def test_encoder_grad_check():
    """The one-node encode's gradients against central differences, on a
    padded pass (1, 5 and 3 observations)."""
    rng = np.random.default_rng(8)
    counts = np.array([1, 5, 3])
    times = np.where(np.arange(5) < counts[:, None], rng.uniform(-1.0, 0.0, (3, 5)), 0.0)
    feats = rng.standard_normal((3, 5, TINY.d_obs))
    params = {k: v for k, v in init_params(TINY, seed=5).items() if k in model.ENCODE_PARAMS}
    params["enc.embed.b"] = 0.3 * rng.standard_normal(params["enc.embed.b"].shape)
    readout = rng.standard_normal((3, TINY.d_model))

    def f(tape, params):
        leaves = leaves_of(tape, params)
        u = encode_agent(tape, leaves, TINY, times, feats, counts)
        return ad.l2_norm_sq(ops.mul(u, readout))

    report = grad_check(f, params, tol=1e-5)
    assert report.passed, report.per_param


def test_encoder_rejects_features_of_the_wrong_width():
    """Features that do not fit the embedding raise ShapeError, as the
    chain's first matmul did."""
    params = init_params(TINY, seed=0)
    for encoder, match in ((encode_agent, "encode"), (stagewise.encode_agent, "matmul")):
        tape = Tape()
        with pytest.raises(ShapeError, match=match):
            encoder(tape, leaves_of(tape, params), TINY,
                    np.zeros((2, 3)), np.ones((2, 3, TINY.d_obs + 1)), [3, 2])


def test_encoder_rejects_weights_of_another_tape():
    """Leaves recorded on one tape cannot parent an encode node on another:
    their indices would name whatever nodes sit there."""
    params = init_params(TINY, seed=0)
    tape = Tape()
    leaves = leaves_of(Tape(), params)
    with pytest.raises(ShapeError, match="different tapes"):
        encode_agent(tape, leaves, TINY, np.zeros((2, 3)), np.ones((2, 3, TINY.d_obs)), [3, 2])
    assert len(tape) == 0


# ------------------------------------------------------------------- edges

def test_directed_edges_doubles_undirected_pairs():
    g = InteractionGraph.from_edges(3, [(0, 1), (1, 2)])
    edges = directed_edges(g, 3)
    assert sorted(edges) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_directed_edges_offset_for_batching():
    """A batch shifts each sample's edges by its first node; a sample
    derives its edge list once, however many batches it joins."""
    samples = [tiny_obs(seed=s, graph=InteractionGraph.complete(2)) for s in range(3)]
    assert samples[0].edges is samples[0].edges
    batch = build_batch(samples)
    assert batch.edges.tolist() == [[0, 1], [1, 0], [2, 3], [3, 2], [4, 5], [5, 4]]


def test_lone_agent_gets_self_loop():
    g = InteractionGraph.from_edges(1, [])
    assert directed_edges(g, 1) == [(0, 0)]
    assert directed_edges(None, 1) == [(0, 0)]


# ----------------------------------------------------------------- rollout

def linear_field(A):
    """z -> z @ A^T as an array-level field like make_ode_func's g, with
    no weights of its own."""

    def g(z):
        return z @ A.T, lambda go: ((go @ A,), ())

    g.params = ()
    return g


def blocks(states, n):
    """A leg's stacked states as (K+1, n, d)."""
    return states.value.reshape(-1, n, states.value.shape[1])


def test_euler_rollout_matches_matrix_power():
    rng = np.random.default_rng(8)
    A = 0.3 * rng.standard_normal((3, 3))
    z0_val = rng.standard_normal((2, 3))
    dt, K = 0.1, 5

    tape = Tape()
    z0 = tape.const(z0_val)
    states = blocks(rollout_forward(z0, linear_field(A), K, dt, scheme="euler"), 2)
    assert len(states) == K + 1

    M = np.eye(3) + dt * A.T  # right-multiplication update
    expected = z0_val.copy()
    for k in range(1, K + 1):
        expected = expected @ M
        assert np.allclose(states[k], expected, atol=1e-12)


def test_rk4_rollout_approximates_matrix_exponential():
    """On a linear field one RK4 step reproduces the degree-4 Taylor
    polynomial of expm(dt A); check against a high-accuracy reference."""
    rng = np.random.default_rng(2)
    A = 0.5 * rng.standard_normal((3, 3))
    z0_val = rng.standard_normal((1, 3))
    dt = 0.05

    tape = Tape()
    states = blocks(rollout_forward(tape.const(z0_val), linear_field(A), 1, dt, scheme="rk4"), 1)
    taylor = np.eye(3)
    term = np.eye(3)
    for n in range(1, 5):
        term = term @ (dt * A) / n
        taylor = taylor + term
    assert np.allclose(states[1], z0_val @ taylor.T, atol=1e-14)


def test_reverse_rollout_negates_field():
    rng = np.random.default_rng(3)
    A = 0.4 * rng.standard_normal((2, 2))
    z_end = rng.standard_normal((1, 2))
    dt = 0.1

    tape = Tape()
    states = blocks(rollout_reverse(tape.const(z_end), linear_field(A), 1, dt, scheme="euler"), 1)
    assert np.allclose(states[1], z_end - dt * z_end @ A.T)


def test_reverse_rollout_retraces_forward_under_euler():
    """Euler is exactly reversible on a linear field only up to O(dt^2);
    the defect must shrink quadratically as dt drops."""
    rng = np.random.default_rng(4)
    A = 0.3 * rng.standard_normal((3, 3))
    z0_val = rng.standard_normal((1, 3))

    defects = []
    for dt in (0.1, 0.05):
        tape = Tape()
        g = linear_field(A)
        fwd = rollout_forward(tape.const(z0_val), g, 4, dt, scheme="euler")
        rev = rollout_reverse(ad.row_blocks(fwd, 1, [4]), g, 4, dt, scheme="euler")
        defects.append(float(np.max(np.abs(blocks(rev, 1)[-1] - z0_val))))
    assert defects[0] > 0
    assert 3.0 < defects[0] / defects[1] < 5.5


def test_rollout_diverged_error():
    """z' = 1e200 z leaves the float range on the second Euler step, and
    either leg names itself and that step."""
    def blow_up(z):
        return z * 1e200, None

    blow_up.params = ()
    for leg, tag in [(rollout_forward, "forward"), (rollout_reverse, "reverse")]:
        with np.errstate(over="ignore"), pytest.raises(
            RolloutDivergedError, match=f"^{tag} rollout diverged at step 2$"
        ) as caught:
            leg(Tape().const(np.ones((1, 2))), blow_up, 3, 1.0, scheme="euler")
        assert caught.value.step == 2


def test_message_passing_respects_graph_structure():
    """With no edge between two batched samples, one sample's latent must
    not influence the other's field."""
    params = init_params(TINY, seed=2)
    edges = [(0, 1), (1, 0)]  # nodes 2,3 are isolated from 0,1
    rng = np.random.default_rng(0)
    z_base = rng.standard_normal((4, TINY.d_z))
    z_pert = z_base.copy()
    z_pert[3] += 1.0  # perturb an isolated node

    def field(z_val):
        tape = Tape()
        leaves = leaves_of(tape, params)
        g = make_ode_func(tape, leaves, TINY, edges, n_nodes=4)
        return g(z_val)[0]

    f_base, f_pert = field(z_base), field(z_pert)
    assert np.array_equal(f_base[:2], f_pert[:2])   # coupled pair untouched
    assert not np.array_equal(f_base[3], f_pert[3])  # self-term still moves


def composite_field(tape, leaves, config, edges, n_nodes):
    """The field as a chain of twelve tape ops: the reference that
    make_ode_func's single node must reproduce."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pair_rows = ad.RowIndex(pairs[:, ::-1].reshape(-1), n_nodes)
    targets = ad.RowIndex(pairs[:, 1], n_nodes)

    def linear(x, name):
        return ad.add_bias(ad.matmul(x, leaves[f"ode.{name}.W"]), leaves[f"ode.{name}.b"])

    def g(z):
        pair = ops.reshape(ad.gather_rows(z, pair_rows), (len(pairs), 2 * config.d_z))
        msg = ops.relu(linear(pair, "msg"))
        upd_in = ad.concat([z, ops.scatter_rows(msg, targets, n_nodes)], axis=1)
        return linear(ops.relu(linear(upd_in, "upd1")), "upd2")

    return g


# (edges, n_nodes): node 2 is the target of three edges and node 3 has
# none; two chained pairs; a lone agent's self-loop
FIELD_GRAPHS = {
    "repeated_targets_isolated_agent": ([(0, 2), (1, 2), (3, 2), (2, 0)], 5),
    "chain": ([(0, 1), (1, 0), (1, 2), (2, 1)], 3),
    "self_loop": ([(0, 0)], 1),
}


def field_params(seed):
    """TINY's field weights with non-zero biases, so that both ReLUs see
    positive and negative inputs."""
    rng = np.random.default_rng(seed)
    params = {k: v for k, v in init_params(TINY, seed).items() if k.startswith("ode.")}
    for name in ("ode.msg.b", "ode.upd1.b", "ode.upd2.b"):
        params[name] = 0.3 * rng.standard_normal(params[name].shape)
    return params


@pytest.mark.parametrize("graph", sorted(FIELD_GRAPHS))
def test_fused_field_matches_composite(graph):
    """Field values, and the gradients of two RK4 steps through it with
    respect to z and all six weights, equal the composite's bit for bit."""
    edges, n = FIELD_GRAPHS[graph]
    params = field_params(seed=5)
    z0 = np.random.default_rng(6).standard_normal((n, TINY.d_z))
    results = []
    tape = Tape()
    leaves = leaves_of(tape, {**params, "z": z0})
    g = make_ode_func(tape, leaves, TINY, edges, n)
    states = rollout_forward(leaves["z"], g, 2, 0.1, scheme="rk4")
    loss = ad.l2_norm_sq(ad.row_blocks(states, n, [2]))
    results.append((g(z0)[0], leaf_grads(tape, loss, leaves)))
    tape = Tape()
    leaves = leaves_of(tape, {**params, "z": z0})
    f = composite_field(tape, leaves, TINY, edges, n)
    states = stagewise.rollout(leaves["z"], f, 2, 0.1, "rk4", "forward")
    results.append((f(leaves["z"]).value, leaf_grads(tape, ad.l2_norm_sq(states[-1]), leaves)))
    (fused, fused_grads), (ref, ref_grads) = results
    assert np.array_equal(fused, ref)
    assert set(fused_grads) == set(ref_grads) == {"z", *model.FIELD_PARAMS}
    for name, grad in ref_grads.items():
        assert np.array_equal(fused_grads[name], grad), name


@pytest.mark.parametrize("graph", sorted(FIELD_GRAPHS))
def test_fused_field_grad_check(graph):
    edges, n = FIELD_GRAPHS[graph]
    params = {**field_params(seed=7), "z": np.random.default_rng(8).standard_normal((n, TINY.d_z))}

    def f(tape, params):
        leaves = leaves_of(tape, params)
        g = stagewise.field_node(make_ode_func(tape, leaves, TINY, edges, n))
        return ad.l2_norm_sq(g(ad.smul(g(leaves["z"]), 0.5)))

    report = grad_check(f, params, tol=1e-5)
    assert report.passed, report.per_param


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rollout_legs_grad_check(scheme):
    """Both legs' discrete adjoints against central differences, through
    every stacked state: the reverse leg starts from the forward endpoint."""
    edges, n = FIELD_GRAPHS["repeated_targets_isolated_agent"]
    rng = np.random.default_rng(9)
    params = {**field_params(seed=10), "z": rng.standard_normal((n, TINY.d_z))}
    K = 3
    w_fwd, w_rev = rng.standard_normal((2, (K + 1) * n, TINY.d_z))

    def f(tape, params):
        leaves = leaves_of(tape, params)
        g = make_ode_func(tape, leaves, TINY, edges, n)
        fwd = rollout_forward(leaves["z"], g, K, 0.1, scheme)
        rev = rollout_reverse(ad.row_blocks(fwd, n, [K]), g, K, 0.1, scheme)
        return ad.add(ad.l2_norm_sq(ops.mul(fwd, w_fwd)), ad.l2_norm_sq(ops.mul(rev, w_rev)))

    report = grad_check(f, params, tol=1e-5)
    assert report.passed, report.per_param


def test_every_scheme_has_one_tableau_row():
    """One table drives every leg: exactly one row per integrator scheme."""
    assert tuple(model._TABLEAUX) == SCHEMES


def test_rollout_leg_is_one_tape_node():
    """A field evaluation records nothing; a leg of any length is one node."""
    edges, n = FIELD_GRAPHS["chain"]
    tape = Tape()
    leaves = leaves_of(tape, init_params(TINY, seed=0))
    g = make_ode_func(tape, leaves, TINY, edges, n)
    z = tape.const(np.ones((n, TINY.d_z)))
    before = len(tape)
    g(z.value)
    assert len(tape) == before
    states = rollout_forward(z, g, 3, 0.1, scheme="rk4")
    assert len(tape) == before + 1 and tape.nodes[-1].op == "rollout"
    assert states.shape == (4 * n, TINY.d_z)
    with pytest.raises(ShapeError):
        g(np.ones((n + 1, TINY.d_z)))


def test_rollout_leg_rejects_field_weights_of_another_tape():
    """A leg records the field's weights as parents, so they must sit on
    the start state's tape."""
    edges, n = FIELD_GRAPHS["chain"]
    g = make_ode_func(Tape(), leaves_of(Tape(), init_params(TINY, seed=0)), TINY, edges, n)
    tape = Tape()
    for _ in range(20):  # indices the field's leaves would otherwise name
        tape.const(np.zeros(1))
    z = tape.const(np.ones((n, TINY.d_z)))
    with pytest.raises(ShapeError, match="different tapes"):
        rollout_forward(z, g, 2, 0.1, scheme="heun")
    assert len(tape) == 21


# ------------------------------------------------------------------ decode

def test_decode_shape_and_row_layout():
    params = init_params(TINY, seed=0)
    tape = Tape()
    leaves = leaves_of(tape, params)
    rng = np.random.default_rng(1)
    Z = tape.const(rng.standard_normal((12, TINY.d_z)))
    out = decode(leaves, Z)
    assert out.value.shape == (12, TINY.d_obs)
    single = decode(leaves, ad.row_blocks(Z, 3, [2]))
    assert np.allclose(out.value[6:9], single.value)


def decode_params(seed):
    """Decoder weights with nonzero biases, and latent rows, so the hidden
    ReLU sees both signs."""
    rng = np.random.default_rng(seed)
    params = {k: v for k, v in init_params(TINY, seed).items() if k.startswith("dec.")}
    for name in ("dec.b1", "dec.b2"):
        params[name] = 0.3 * rng.standard_normal(params[name].shape)
    return {**params, "z": rng.standard_normal((7, TINY.d_z))}


def test_decode_is_one_node_with_the_composite_bits():
    """The one-node decode's value and gradients equal the five-node
    chain's bit for bit, with z also read by a second consumer."""
    params = decode_params(seed=3)
    results = []
    for dec in (decode, stagewise.decode):
        tape = Tape()
        leaves = leaves_of(tape, params)
        before = len(tape)
        out = dec(leaves, leaves["z"])
        nodes = len(tape) - before
        loss = ad.add(ad.l2_norm_sq(out), ad.l2_norm_sq(ad.smul(leaves["z"], 0.5)))
        results.append((nodes, out.value, leaf_grads(tape, loss, leaves)))
    (n_fused, fused, fused_grads), (n_ref, ref, ref_grads) = results
    assert (n_fused, n_ref) == (1, 5)
    assert fused.tobytes() == ref.tobytes()
    assert set(fused_grads) == set(ref_grads) == set(params)
    for name, grad in ref_grads.items():
        assert fused_grads[name].tobytes() == grad.tobytes(), name


def test_decode_grad_check():
    def f(tape, params):
        leaves = leaves_of(tape, params)
        return ad.l2_norm_sq(decode(leaves, leaves["z"]))

    report = grad_check(f, decode_params(seed=4), tol=1e-5)
    assert report.passed, report.per_param


def test_decode_rejects_rows_of_the_wrong_width():
    params = init_params(TINY, seed=0)
    tape = Tape()
    leaves = leaves_of(tape, params)
    with pytest.raises(ShapeError, match="decode"):
        decode(leaves, tape.const(np.ones((3, TINY.d_z + 1))))


def test_decode_rejects_weights_of_another_tape():
    """decode records on Z's tape, so leaves of another tape raise instead
    of parenting the node with that tape's nodes at their indices."""
    leaves = leaves_of(Tape(), init_params(TINY, seed=0))
    tape = Tape()
    for _ in range(20):
        tape.const(np.zeros(1))
    Z = tape.const(np.ones((3, TINY.d_z)))
    with pytest.raises(ShapeError, match="different tapes"):
        decode(leaves, Z)
    assert len(tape) == 21


def with_signed_zeros(rng, shape, share):
    """Standard normal entries, a `share` of them replaced by 0.0 or -0.0."""
    x = rng.standard_normal(shape)
    hit = rng.random(shape) < share
    x[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
    return x


def op_bits(op, params, seed, share):
    """The value of op(tape, leaves) and every leaf gradient of a loss that
    weights each output entry, with signed zeros among the weights too."""
    tape = Tape()
    leaves = leaves_of(tape, params)
    out = op(tape, leaves)
    weight = with_signed_zeros(np.random.default_rng(seed), out.shape, share)
    return out.value, leaf_grads(tape, ad.l2_norm_sq(ops.mul(out, tape.const(weight))), leaves)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n_rows=st.integers(1, 6), d_enc=st.integers(1, 4), d_aug=st.integers(0, 3),
       hidden=st.integers(1, 6), d_obs=st.integers(1, 4),
       pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
       seed=st.integers(0, 2**16), share=st.sampled_from((0.0, 0.3, 1.0)))
def test_field_and_decode_keep_the_chain_bits_for_any_shape(
        n_rows, d_enc, d_aug, hidden, d_obs, pairs, seed, share):
    """One field evaluation of make_ode_func and one decode, on any row
    count, widths and edge list (none, repeated targets, self-loops), with
    signed zeros in the rows, the weights and the upstream gradient: each
    equals its chain of primitives in value and every gradient, bit for bit."""
    config = ModelConfig(d_obs=d_obs, d_enc=d_enc, d_aug=d_aug, d_model=2,
                         ode_hidden=hidden, dec_hidden=hidden)
    rng = np.random.default_rng(seed)
    params = {name: with_signed_zeros(rng, shape, share)
              for name, shape in param_shapes(config).items() if not name.startswith("enc.")}
    params["z"] = with_signed_zeros(rng, (n_rows, config.d_z), share)
    edges = [(src % n_rows, tgt % n_rows) for src, tgt in pairs]

    def field(tape, leaves):
        g = make_ode_func(tape, leaves, config, edges, n_rows)
        return stagewise.field_node(g)(leaves["z"])

    def field_chain(tape, leaves):
        return composite_field(tape, leaves, config, edges, n_rows)(leaves["z"])

    def decoder(tape, leaves):
        return decode(leaves, leaves["z"])

    def decoder_chain(tape, leaves):
        return stagewise.decode(leaves, leaves["z"])

    for fused, chain in ((field, field_chain), (decoder, decoder_chain)):
        (value, grads), (chain_value, chain_grads) = (
            op_bits(op, params, seed + 1, share) for op in (fused, chain))
        assert value.tobytes() == chain_value.tobytes()
        assert set(grads) == set(chain_grads)
        for name, grad in chain_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n_agents=st.integers(1, 6), d_enc=st.integers(1, 3), d_aug=st.integers(0, 2),
       hidden=st.integers(1, 4), K=st.integers(1, 4), scheme=st.sampled_from(SCHEMES),
       pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
       reverse_from_end=st.booleans(), seed=st.integers(0, 2**16),
       share=st.sampled_from((0.0, 0.3, 1.0)))
def test_rollout_legs_keep_the_stagewise_bits_for_any_shape(
        n_agents, d_enc, d_aug, hidden, K, scheme, pairs, reverse_from_end, seed, share):
    """A forward leg from z_0 and a reverse leg from its last (treat) or first
    (rev2) state, for any agent count, edge list (none among them), latent
    width, leg length and scheme, with signed zeros in the start, the field
    weights and the downstream gradient: both legs' states and every
    gradient equal the stage-by-stage tape's, bit for bit."""
    config = ModelConfig(d_obs=1, d_enc=d_enc, d_aug=d_aug, d_model=2,
                         ode_hidden=hidden, dec_hidden=1, scheme=scheme)
    rng = np.random.default_rng(seed)
    params = {name: with_signed_zeros(rng, shape, share)
              for name, shape in param_shapes(config).items() if name.startswith("ode.")}
    params["z"] = with_signed_zeros(rng, (n_agents, config.d_z), share)
    edges = [(src % n_agents, tgt % n_agents) for src, tgt in pairs]
    w_fwd, w_rev = with_signed_zeros(rng, (2, (K + 1) * n_agents, config.d_z), share)
    start_block = K if reverse_from_end else 0

    def legs(forward, reverse):
        tape = Tape()
        leaves = leaves_of(tape, params)
        g = make_ode_func(tape, leaves, config, edges, n_agents)
        fwd = forward(leaves["z"], g, K, 0.1, scheme)
        rev = reverse(ad.row_blocks(fwd, n_agents, [start_block]), g, K, 0.1, scheme)
        loss = ad.add(ad.l2_norm_sq(ops.mul(fwd, tape.const(w_fwd))),
                      ad.l2_norm_sq(ops.mul(rev, tape.const(w_rev))))
        return fwd.value, rev.value, leaf_grads(tape, loss, leaves)

    fwd, rev, grads = legs(rollout_forward, rollout_reverse)
    ref_fwd, ref_rev, ref_grads = legs(stagewise.rollout_forward, stagewise.rollout_reverse)
    assert fwd.tobytes() == ref_fwd.tobytes() and rev.tobytes() == ref_rev.tobytes()
    assert set(grads) == set(ref_grads) == set(params)
    for name, grad in ref_grads.items():
        assert grads[name].tobytes() == grad.tobytes(), name


# -------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = init_params(TINY, seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, TINY, extra={"note": "unit", "alpha": 0.5})
    loaded, config, extra = load_checkpoint(path)
    assert config == TINY
    assert extra == {"note": "unit", "alpha": 0.5}
    for k in params:
        assert loaded[k].tobytes() == params[k].tobytes()


def test_checkpoint_rejects_wrong_schema(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY, 0), TINY)
    doc = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
    path.write_text(doc)
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_param(tmp_path):
    params = init_params(TINY, 0)
    del params["dec.W2"]
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, TINY)
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(path)


def test_checkpoint_rejects_corrupt_json(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{ not json")
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(path)


def checkpoint_doc(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_params(TINY, seed=0), TINY, extra={"seed": 0})
    return json.loads(path.read_text())


def test_checkpoint_with_the_retired_model_keys_loads_the_same(tmp_path):
    """Older checkpoints also store spatial_round false and te_base 10000.0,
    the only values those keys could hold; they load as if absent."""
    doc = checkpoint_doc(tmp_path)
    assert "spatial_round" not in doc["model"] and "te_base" not in doc["model"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps({**doc, "model": {**doc["model"], "spatial_round": False,
                                                 "te_base": 10000.0}}))
    params, config, extra = load_checkpoint(path)
    new_params, new_config, new_extra = load_checkpoint(tmp_path / "ckpt.json")
    assert (config, extra) == (new_config, new_extra)
    assert all(params[k].tobytes() == new_params[k].tobytes() for k in new_params)


@pytest.mark.parametrize("key, value", [
    ("spatial_round", True), ("spatial_round", 0), ("spatial_round", None),
    ("te_base", 100.0), ("te_base", 10000), ("te_base", "10000.0"),
])
def test_checkpoint_rejects_other_values_of_the_retired_model_keys(tmp_path, key, value):
    doc = checkpoint_doc(tmp_path)
    doc["model"][key] = value
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactMismatchError, match=f"checkpoint model {key} is "):
        load_checkpoint(path)


def test_checkpoint_rejects_huge_width_without_allocating(tmp_path, monkeypatch):
    """A stored d_model far beyond its blobs fails on the shape table alone."""
    def no_init(*args, **kwargs):
        raise AssertionError("parameters allocated for an unchecked config")

    monkeypatch.setattr(model, "init_params", no_init)
    doc = checkpoint_doc(tmp_path)
    doc["model"]["d_model"] = 2 * 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ArtifactMismatchError, match="shape"):
        load_checkpoint(path)


def _checkpoint_field_paths(doc):
    """Every top-level field, every model field and every field of the
    first parameter's blob, as key paths."""
    first = next(iter(doc["params"]))
    return ([(key,) for key in doc] + [("model", key) for key in doc["model"]]
            + [("params", first, key) for key in doc["params"][first]])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), value=JSON_VALUES)
def test_load_checkpoint_field_fuzz_raises_only_revode_errors(tmp_path_factory, data, value):
    """A valid checkpoint with one field replaced by any JSON value either
    loads or fails with a RevodeError, never another exception."""
    tmp = tmp_path_factory.getbasetemp()
    doc = checkpoint_doc(tmp)
    *parents, key = data.draw(st.sampled_from(_checkpoint_field_paths(doc)))
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    path = tmp / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        load_checkpoint(path)
    except RevodeError:
        pass
