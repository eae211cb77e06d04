"""Objective, optimizer, and training-loop tests.

The AdamW update is checked against an independent reference written from
the update equations; each loss batch_forward reports is recomputed in
NumPy from separately traced and decoded rollouts, and training with the
one-node rollout legs and decode keeps every bit of training with the
stage-by-stage and op-by-op reference tape.
"""

import csv
import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import stagewise_rollout as stagewise
from nested_loop_metrics import nested_loop_evaluate
from reference_ops import leaves_of, reached_nodes
from revode import autodiff as ad
from revode import training
from revode.autodiff import Tape, backward
from revode.configs import DESK_TRAIN_WINDOW, TRAIN_DEFAULTS, desk_model_config
from revode.data import ObservationSet, build_observation_sets, build_trajectory
from revode.errors import ConfigurationError, RolloutDivergedError, ShapeError, TrainingDivergedError
from revode.model import (
    ModelConfig,
    decode,
    encode_initial_states,
    init_params,
    make_ode_func,
    param_shapes,
    param_views,
    rollout_forward,
    rollout_reverse,
)
from revode.systems import InteractionGraph, SystemSpec
from revode.training import (
    BUCKETS,
    LOSS_VARIANTS,
    LOSS_COLUMNS,
    AdamWState,
    TrainSettings,
    batch_forward,
    build_batch,
    VAL_CHUNK,
    evaluate,
    optimizer_step,
    train,
    write_loss_report,
)

TINY = ModelConfig(
    d_obs=2, d_enc=4, d_aug=4, d_model=8, ode_hidden=8, dec_hidden=8, scheme="euler"
)


def small_obs_sets(n_sets=12, seed=1, window=(0, 10, 20), n_obs=(4, 8)):
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    trajs = [
        build_trajectory(spec, seed=seed, index=i, raw_steps=4000)
        for i in range(n_sets)
    ]
    return build_observation_sets(trajs, window, n_obs[0], n_obs[1], obs_seed=seed + 50)


# ---------------------------------------------------------------- loss ops

def three_agent_obs_sets(n_sets=2):
    spec = SystemSpec(kind="simple_spring", n_agents=3, dim=1)
    trajs = [
        build_trajectory(spec, seed=4, index=i, raw_steps=3000, edge_prob=0.5)
        for i in range(n_sets)
    ]
    return build_observation_sets(trajs, (0, 10, 25), 4, 8, obs_seed=8)


def decoded_rollouts(params, batch):
    """Forward rollout and the reverse rollouts from z_K and from z_0, each
    decoded one time step at a time into a (K+1, n_nodes, d) array."""
    tape = Tape()
    leaves = leaves_of(tape, params)
    z0 = ad.concat(
        [encode_initial_states(tape, leaves, TINY, [o]) for o in batch.obs_list], axis=0
    )
    n, K = batch.n_nodes, batch.K
    g = make_ode_func(tape, leaves, TINY, batch.edges, n)
    fwd = rollout_forward(z0, g, K, batch.dt, TINY.scheme)
    from_end = rollout_reverse(ad.row_blocks(fwd, n, [K]), g, K, batch.dt, TINY.scheme)
    from_start = rollout_reverse(ad.row_blocks(fwd, n, [0]), g, K, batch.dt, TINY.scheme)

    def dec(states):
        return np.stack([decode(leaves, ad.row_blocks(states, n, [k])).value
                         for k in range(K + 1)])

    return dec(fwd), dec(from_end), dec(from_start)


def target_sq(stack, obs_list):
    """Squared residual of stack[k, node] summed over every target (k, node)."""
    n = obs_list[0].n_agents
    return sum(
        float(np.sum((stack[idx, b * n + i] - feats) ** 2))
        for b, obs in enumerate(obs_list)
        for i, (idx, feats) in enumerate(zip(obs.pred_idx, obs.pred_feats))
    )


def traced(batch, variant, alpha=0.5):
    params = init_params(TINY, seed=0)
    return params, batch_forward(Tape(), params, TINY, batch, variant, alpha)


def test_reconstruction_loss_by_hand():
    """l_pred is the per-sample mean squared target residual of the forward decode."""
    batch = build_batch(three_agent_obs_sets())
    for variant in LOSS_VARIANTS:
        params, out = traced(batch, variant, alpha=0.0 if variant == "none" else 0.5)
        y_fwd, _, _ = decoded_rollouts(params, batch)
        expected = target_sq(y_fwd, batch.obs_list) / len(batch.obs_list)
        assert out.l_pred == pytest.approx(expected, rel=1e-12), variant


def test_reversal_loss_treat_pairing():
    """Forward step k meets step K-k of the rollout reversed from z_K."""
    batch = build_batch(three_agent_obs_sets())
    params, out = traced(batch, "treat")
    y_fwd, y_end, _ = decoded_rollouts(params, batch)
    K = batch.K
    expected = sum(np.sum((y_fwd[k] - y_end[K - k]) ** 2) for k in range(K + 1))
    assert out.l_rev == pytest.approx(expected / len(batch.obs_list), rel=1e-12)
    # evaluate() reads the paired reverse decode in the forward stack's layout
    assert np.allclose(
        out.rev_paired_values, y_end[::-1].reshape(-1, out.residual.shape[1]), rtol=1e-12
    )


def test_reversal_loss_rev2_same_index():
    """Forward step k meets step k of the rollout reversed from z_0."""
    batch = build_batch(three_agent_obs_sets())
    params, out = traced(batch, "rev2")
    y_fwd, _, y_start = decoded_rollouts(params, batch)
    expected = sum(np.sum((y_fwd[k] - y_start[k]) ** 2) for k in range(batch.K + 1))
    assert out.l_rev == pytest.approx(expected / len(batch.obs_list), rel=1e-12)


def test_reversal_loss_gt_rev_is_plain_residual():
    """The targets meet the paired reverse decode: step K-k from z_K at target k."""
    batch = build_batch(three_agent_obs_sets())
    params, out = traced(batch, "gt_rev")
    _, y_end, _ = decoded_rollouts(params, batch)
    expected = target_sq(y_end[::-1], batch.obs_list) / len(batch.obs_list)
    assert out.l_rev == pytest.approx(expected, rel=1e-12)


def test_combined_loss_identity_scalar_path():
    """loss = l_pred + alpha * l_rev; alpha = 0 and variant none train on l_pred."""
    batch = build_batch(three_agent_obs_sets())
    for alpha in (0.5, 2.0):
        _, out = traced(batch, "treat", alpha)
        assert out.loss.value == pytest.approx(out.l_pred + alpha * out.l_rev, rel=1e-12)
    _, out = traced(batch, "treat", 0.0)
    assert float(out.loss.value) == out.l_pred
    _, out = traced(batch, "none", 0.0)
    assert float(out.loss.value) == out.l_pred
    assert out.l_rev is None and out.rev_paired_values is None


# ----------------------------------------------------------------- batches

def test_build_batch_layout():
    obs = small_obs_sets(n_sets=3)
    batch = build_batch(obs)
    assert batch.n_agents == 1
    assert batch.n_nodes == 3
    # lone agents get self-loops at their batched offsets
    assert batch.edges.tolist() == [[0, 0], [1, 1], [2, 2]]
    assert batch.K == obs[0].n_rollout_steps
    n_rows = sum(len(ix) for o in obs for ix in o.pred_idx)
    assert batch.rows.shape == (n_rows,)
    assert batch.targets.shape == (n_rows, obs[0].d)
    # each target gathers its own row of the decoded stack
    assert np.unique(batch.rows).size == n_rows
    assert 0 <= batch.rows.min() and batch.rows.max() < (batch.K + 1) * batch.n_nodes
    assert not hasattr(batch, "sel_matrix")


def test_build_batch_rows_per_agent():
    """Target rows sit at k * n_nodes + b * n_agents + i, grouped by (sample,
    agent) in that order: agent (b, i) owns the next len(pred_idx[i]) rows."""
    obs = three_agent_obs_sets(n_sets=2)
    batch = build_batch(obs)
    stops = np.cumsum([len(ix) for o in obs for ix in o.pred_idx]).reshape(2, 3)
    for b, o in enumerate(obs):
        for i in range(3):
            hi = int(stops[b, i])
            lo = hi - len(o.pred_idx[i])
            assert np.array_equal(
                batch.rows[lo:hi], o.pred_idx[i] * batch.n_nodes + b * 3 + i
            )
            assert np.array_equal(batch.targets[lo:hi], o.pred_feats[i])
    assert stops[-1, -1] == len(batch.rows)


def test_build_batch_rejects_mixed_rollout_lengths():
    a = small_obs_sets(n_sets=1, window=(0, 10, 20))
    b = small_obs_sets(n_sets=1, window=(0, 10, 25))
    with pytest.raises(ConfigurationError):
        build_batch(a + b)


def test_batch_forward_all_variants_trace():
    obs = small_obs_sets(n_sets=2)
    batch = build_batch(obs)
    params = init_params(TINY, seed=0)
    for variant in LOSS_VARIANTS:
        alpha = 0.0 if variant == "none" else 0.5
        out = batch_forward(Tape(), params, TINY, batch, variant, alpha)
        assert np.isfinite(out.loss.value)
        assert out.l_pred >= 0.0
        if variant == "none":
            assert out.l_rev is None
        else:
            assert out.l_rev >= 0.0
            # the scalar identity the loss reports must hold exactly
            assert out.loss.value == pytest.approx(
                out.l_pred + alpha * out.l_rev, rel=1e-12
            )


def test_batch_forward_unknown_variant():
    obs = small_obs_sets(n_sets=1)
    batch = build_batch(obs)
    params = init_params(TINY, seed=0)
    with pytest.raises(ConfigurationError):
        batch_forward(Tape(), params, TINY, batch, "flip", 0.5)


def synthetic_obs_sets(n_sets, n_agents, d, K, seed=0):
    """Random observation sets with 25 condition observations per agent
    and every rollout step a target; sample b links agents b and b + 1."""
    rng = np.random.default_rng(seed)
    out = []
    for b in range(n_sets):
        edges = [(b % n_agents, (b + 1) % n_agents)] if n_agents > 1 else []
        out.append(ObservationSet(
            n_agents=n_agents, d=d, t0=0.0, dt=0.1, n_rollout_steps=K,
            cond_times=[np.linspace(-2.4, 0.0, 25) for _ in range(n_agents)],
            cond_feats=[rng.standard_normal((25, d)) for _ in range(n_agents)],
            pred_idx=[np.arange(1, K + 1) for _ in range(n_agents)],
            pred_feats=[rng.standard_normal((K, d)) for _ in range(n_agents)],
            graph=InteractionGraph.from_edges(n_agents, edges),
        ))
    return out


def treat_batch(preset):
    """(config, batch, params) of a 32-sample K = 20 batch: the desk preset
    (one agent, Euler) or the default five-agent graph model (RK4)."""
    K = DESK_TRAIN_WINDOW[2] - DESK_TRAIN_WINDOW[1]
    if preset == "desk":
        config, n_agents = desk_model_config(), 1
    else:
        widths = ("d_enc", "d_aug", "d_model", "ode_hidden", "dec_hidden", "scheme")
        config = ModelConfig(d_obs=4, **{k: TRAIN_DEFAULTS[k] for k in widths})
        n_agents = 5
    batch = build_batch(synthetic_obs_sets(32, n_agents, config.d_obs, K))
    return config, batch, init_params(config, seed=0)


@pytest.mark.parametrize("preset, max_nodes", [("desk", 42), ("graph", 42)])
def test_treat_batch_tape_size(preset, max_nodes):
    """A treat batch of either preset stays within its node budget: bias
    adds, row gathers, and one node per encoder pass, per rollout leg,
    whatever its scheme and length, and per decode."""
    config, batch, params = treat_batch(preset)
    tape = Tape()
    batch_forward(tape, params, config, batch, "treat", 0.5)
    assert len(tape) <= max_nodes
    assert not hasattr(batch, "sel_matrix")


@pytest.mark.parametrize("preset, max_mb", [("desk", 6), ("graph", 31)])
def test_treat_step_peak_memory(preset, max_mb):
    """The traced peak of one forward and backward on a treat batch stays
    within budget: the tape pins only what its backward closures read."""
    config, batch, params = treat_batch(preset)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape = Tape()
        backward(tape, batch_forward(tape, params, config, batch, "treat", 0.5).loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= max_mb * 1e6, f"{peak / 1e6:.1f} MB"


def test_tape_nodes_hold_dead_intermediates_weakly():
    """With the cycle collector off, once batch_forward returns, an
    intermediate that no backward closure reads is gone from its node,
    while every leaf, the first nodes in params' order, still returns its
    parameter array as long as the caller holds params."""
    config, batch, params = treat_batch("desk")
    gc.disable()
    try:
        tape = Tape()
        out = batch_forward(tape, params, config, batch, "treat", 0.5)
        # the encoder's output layer: add_bias(U W, b), read only by a concat
        z_enc = next(node for node in tape.nodes if node.op == "add_bias")
        assert z_enc.value.shape == (0,) and z_enc.value.dtype == np.float64
        leaf_nodes = [node for node in tape.nodes if node.op == "leaf"]
        assert leaf_nodes == tape.nodes[:len(params)]
        for node, value in zip(leaf_nodes, params.values()):
            assert node.value is value and node.shape == value.shape
        assert tape.nodes[out.loss.idx].value is out.loss.value
    finally:
        gc.enable()


def test_backward_lets_each_closure_go_and_sweeps_a_tape_once():
    """With the cycle collector off, backward leaves no node a backward
    closure, and each closure is freed by then, not held until the tape
    dies; a second sweep of the tape is refused."""
    config, batch, params = treat_batch("desk")
    gc.disable()
    try:
        tape = Tape()
        loss = batch_forward(tape, params, config, batch, "treat", 0.5).loss
        closures = [weakref.ref(node.bwd) for node in tape.nodes if node.bwd is not None]
        assert len(closures) > 10
        backward(tape, loss)
        assert all(node.bwd is None for node in tape.nodes if node.op != "leaf")
        assert [ref() for ref in closures] == [None] * len(closures)
        with pytest.raises(ShapeError, match="already ran on this tape"):
            backward(tape, loss)
    finally:
        gc.enable()


def assert_trains_bitwise_like(monkeypatch, variant, scheme, references):
    """Trained params, loss history, final diagnostic and EvalReport keep
    every bit when `references` ({dotted attribute: stand-in}) replace the
    one-node ops."""
    obs = three_agent_obs_sets(n_sets=8)
    config = replace(TINY, scheme=scheme)
    settings = TrainSettings(model=config, loss_variant=variant,
                             alpha=0.0 if variant == "none" else 0.5,
                             epochs=2, batch_size=3, seed=3)

    def run():
        result = train(obs, settings)
        return result, evaluate(result.params, obs, config, chunk=3)

    lean, lean_report = run()
    for target, reference in references.items():
        monkeypatch.setattr(target, reference)
    ref, ref_report = run()
    assert lean.params.keys() == ref.params.keys()
    for name, value in ref.params.items():
        assert lean.params[name].tobytes() == value.tobytes(), name
    assert repr(lean.history) == repr(ref.history)
    assert repr(lean.final_diag_l_reverse) == repr(ref.final_diag_l_reverse)
    assert repr(lean_report) == repr(ref_report)


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_rollout_legs_train_bitwise_like_the_stagewise_tape(monkeypatch, variant, scheme):
    """The one-node legs and their hand-written adjoints against the
    stage-by-stage reference tape."""
    assert_trains_bitwise_like(monkeypatch, variant, scheme, {
        "revode.training.rollout_forward": stagewise.rollout_forward,
        "revode.training.rollout_reverse": stagewise.rollout_reverse,
    })


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_one_node_decode_trains_bitwise_like_the_five_node_chain(monkeypatch, variant, scheme):
    """The one-node decode, which recomputes its hidden layer in backward,
    against the matmul, add_bias, relu, matmul, add_bias chain."""
    assert_trains_bitwise_like(monkeypatch, variant, scheme,
                               {"revode.training.decode": stagewise.decode})


@pytest.mark.parametrize("scheme", ["euler", "heun", "rk4"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_one_node_encoder_trains_bitwise_like_the_composite_chain(monkeypatch, variant, scheme):
    """The one-node encode, which recomputes Q, K, V and H2 in backward,
    against the chain of about thirty primitives."""
    assert_trains_bitwise_like(monkeypatch, variant, scheme,
                               {"revode.model.encode_agent": stagewise.encode_agent})


def test_training_step_frees_its_tape_before_the_next_step(monkeypatch):
    """With the cycle collector off, each recording tape is dead by the time
    the next one is made: nothing outlives its step, and no backward closure
    ties its tape into a reference cycle."""
    made, alive_at_next = [], []

    def make_tape(record=True):
        tape = Tape(record)
        if record:
            alive_at_next.extend(ref() is not None for ref in made[-1:])
            made.append(weakref.ref(tape))
        return tape

    monkeypatch.setattr(training, "Tape", make_tape)
    settings = TrainSettings(model=TINY, epochs=2, batch_size=4, seed=0)
    gc.disable()
    try:
        train(small_obs_sets(), settings)
        alive_at_next.extend(ref() is not None for ref in made[-1:])
    finally:
        gc.enable()
    assert len(made) == 6 and alive_at_next == [False] * 6


# --------------------------------------------------------------- optimizer

def reference_adamw(params, grads, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook decoupled-decay Adam, kept separate from the implementation."""
    out = {}
    for k, theta in params.items():
        g = grads[k]
        m[k] = b1 * m[k] + (1 - b1) * g
        v[k] = b2 * v[k] + (1 - b2) * g * g
        m_hat = m[k] / (1 - b1**t)
        v_hat = v[k] / (1 - b2**t)
        out[k] = theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta)
    return out


def test_optimizer_step_matches_reference():
    """The flat step equals the per-name oracle bit for bit, returns a new
    vector and leaves the one it was given as it was."""
    rng = np.random.default_rng(0)
    ref = {k: rng.standard_normal(shape) for k, shape in param_shapes(TINY).items()}
    ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
    ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
    theta = np.concatenate([p.ravel() for p in ref.values()])
    state = AdamWState(np.zeros_like(theta), np.zeros_like(theta))

    for t in range(1, 4):
        grads = {k: rng.standard_normal(p.shape) for k, p in ref.items()}
        before = theta.copy()
        stepped = optimizer_step(theta, np.concatenate([g.ravel() for g in grads.values()]),
                                 state, lr=0.01, weight_decay=0.02)
        assert stepped is not theta and np.array_equal(theta, before)
        theta = stepped
        ref = reference_adamw(ref, grads, ref_m, ref_v, t, lr=0.01, wd=0.02)
        for k, view in param_views(theta, TINY).items():
            assert np.array_equal(view, ref[k]), (t, k)
        for k, view in param_views(state.m, TINY).items():
            assert np.array_equal(view, ref_m[k]), (t, k)
        for k, view in param_views(state.v, TINY).items():
            assert np.array_equal(view, ref_v[k]), (t, k)


def test_weight_decay_is_decoupled():
    """With zero gradients the Adam term vanishes and only decay acts."""
    theta = np.full(4, 4.0)
    state = AdamWState(np.zeros(4), np.zeros(4))
    stepped = optimizer_step(theta, np.zeros(4), state, lr=0.1, weight_decay=0.5)
    assert np.allclose(stepped, 4.0 - 0.1 * 0.5 * 4.0)


@pytest.mark.parametrize("d_aug", [0, 4])
def test_every_parameter_gets_a_gradient(d_aug):
    """l_pred runs through the encoder, the field and the decoder, so under
    every variant and scheme the loss reaches every parameter's leaf, on
    graphs with and without edges, and the flat gradient has one entry per
    parameter entry."""
    spec = SystemSpec(kind="simple_spring", n_agents=3, dim=1)
    edgeless = [build_trajectory(spec, seed=4, index=i, raw_steps=3000, edge_prob=0.0)
                for i in range(2)]
    batches = [build_batch(three_agent_obs_sets()), build_batch(small_obs_sets(n_sets=2)),
               build_batch(build_observation_sets(edgeless, (0, 10, 25), 4, 8, obs_seed=8))]
    assert len(batches[-1].edges) == 0
    for scheme in ("euler", "heun", "rk4"):
        config = replace(TINY, d_aug=d_aug, scheme=scheme)
        for variant in LOSS_VARIANTS:
            alpha = 0.0 if variant == "none" else 0.5
            for batch in batches:
                tape = Tape()
                loss = batch_forward(tape, init_params(config, 0), config, batch, variant, alpha).loss
                leaf_idx = {idx for idx, node in enumerate(tape.nodes) if node.op == "leaf"}
                assert len(leaf_idx) == len(param_shapes(config))
                assert leaf_idx <= reached_nodes(tape, loss), (scheme, variant)
                size = sum(math.prod(shape) for shape in param_shapes(config).values())
                assert backward(tape, loss).shape == (size,), (scheme, variant)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_train_reports_a_non_finite_gradient_by_name(monkeypatch, bad):
    """One isfinite over the flat gradient catches a NaN or an infinity,
    and the message names the parameter whose slice holds it."""
    def backward_bad(tape, loss):
        grad = backward(tape, loss)
        param_views(grad, TINY)["dec.b1"][0, 0] = bad
        return grad

    monkeypatch.setattr(training, "backward", backward_bad)
    with pytest.raises(TrainingDivergedError, match="gradient for 'dec.b1' is not finite"):
        train(small_obs_sets(), TrainSettings(model=TINY, epochs=1, batch_size=4, seed=0))


# ---------------------------------------------------------------- settings

def test_train_settings_validation():
    with pytest.raises(ConfigurationError):
        TrainSettings(model=TINY, loss_variant="none", alpha=0.5)
    with pytest.raises(ConfigurationError):
        TrainSettings(model=TINY, loss_variant="maximal")
    with pytest.raises(ConfigurationError):
        TrainSettings(model=TINY, alpha=-0.1)
    with pytest.raises(ConfigurationError):
        TrainSettings(model=TINY, val_fraction=1.0)
    TrainSettings(model=TINY, loss_variant="none", alpha=0.0)


@pytest.mark.parametrize("name, value", [
    ("alpha", float("nan")), ("alpha", float("inf")), ("lr", float("inf")),
    ("lr", float("nan")), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
    ("weight_decay", -1.0),
])
def test_train_settings_reject_non_finite_and_negative_decay(name, value):
    """These would train, diverge and end as a divergence (exit 4), or, for
    a negative decay, train silently; they are configuration errors."""
    with pytest.raises(ConfigurationError, match=name):
        TrainSettings(model=TINY, **{name: value})


# -------------------------------------------------------------- train loop

def test_train_reduces_loss_and_is_deterministic():
    obs = small_obs_sets()
    settings = dict(
        model=TINY, loss_variant="treat", alpha=0.5, lr=3e-3,
        epochs=8, batch_size=4, patience=10, seed=0,
    )
    a = train(obs, TrainSettings(**settings))
    b = train(obs, TrainSettings(**settings))

    assert a.history[-1]["l_pred"] < a.history[0]["l_pred"]
    assert len(a.history) <= 8
    assert a.n_train + a.n_val == len(obs)
    assert a.n_val == round(0.1 * len(obs))

    # bitwise reproducibility of the whole run
    assert a.history == b.history
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()


def test_train_history_keeps_loss_identity():
    obs = small_obs_sets()
    settings = TrainSettings(
        model=TINY, loss_variant="treat", alpha=0.5, epochs=4,
        batch_size=4, seed=3,
    )
    result = train(obs, settings)
    for row in result.history:
        assert row["total"] == pytest.approx(
            row["l_pred"] + settings.alpha * row["l_reverse"], rel=1e-12
        )


def test_train_baseline_logs_diagnostic_l_reverse():
    """The alpha=0 run never optimizes the reversal gap but still logs it."""
    obs = small_obs_sets()
    settings = TrainSettings(
        model=TINY, loss_variant="none", alpha=0.0, epochs=3,
        batch_size=4, seed=2,
    )
    result = train(obs, settings)
    for row in result.history:
        assert np.isfinite(row["l_reverse"])
        assert row["total"] == pytest.approx(row["l_pred"])
    assert np.isfinite(result.final_diag_l_reverse)


@pytest.mark.parametrize("stage", ["rollout_forward", "validation", "diagnostic"])
def test_train_reports_latent_divergence_as_training_divergence(monkeypatch, stage):
    """A rollout leaving the finite range, in a training batch, in validation
    or in the reversal diagnostic, is a training divergence (the CLI retries
    it), not an integration or configuration error."""
    def diverge(*args, **kwargs):
        raise RolloutDivergedError("forward rollout diverged at step 3", step=3)

    if stage == "rollout_forward":
        monkeypatch.setattr(training, "rollout_forward", diverge)
    else:
        # validation is the forward-only "none" pass, the diagnostic the "treat" one
        diverging_variant = "none" if stage == "validation" else "treat"

        def evaluate_diverging(params, obs_sets, config, chunk=16, variant="treat"):
            if variant == diverging_variant:
                diverge()
            return evaluate(params, obs_sets, config, chunk, variant)

        monkeypatch.setattr(training, "evaluate", evaluate_diverging)
    settings = TrainSettings(model=TINY, epochs=2, batch_size=4, seed=0)
    with pytest.raises(TrainingDivergedError, match="diverged at step 3"):
        train(small_obs_sets(), settings)


def test_train_rejects_empty_dataset():
    with pytest.raises(ConfigurationError):
        train([], TrainSettings(model=TINY))


def test_train_rejects_a_split_that_leaves_no_training_samples():
    settings = TrainSettings(model=TINY, val_fraction=0.95)
    with pytest.raises(ConfigurationError, match=r"val_fraction 0.95 .*all 5 samples"):
        train(small_obs_sets(n_sets=5), settings)


# -------------------------------------------------------------- evaluation

def test_evaluate_counts_and_buckets():
    # window reaching past the first bucket boundary: K = 30 - 9 = 21
    obs = small_obs_sets(n_sets=5, window=(0, 10, 31))
    params = init_params(TINY, seed=1)
    report = evaluate(params, obs, TINY, chunk=2)
    expected_targets = sum(
        ix.size * o.d for o in obs for ix in o.pred_idx
    )
    assert report.n_targets == expected_targets
    assert len(report.per_sample_mse) == len(obs)
    assert report.mse >= 0.0 and np.isfinite(report.mse)
    assert report.max_error_gt_rev >= 0.0
    # only horizons inside the rollout appear
    assert set(report.bucket_mse) == {b for b in BUCKETS if b <= 21}


def test_evaluate_reports_the_mean_reversal_loss_of_its_variant():
    """l_rev is the per-sample mean of batch_forward's reversal loss, chunk by
    chunk, for each variant; under "none" the reverse numbers are None."""
    obs = small_obs_sets(n_sets=3)
    params = init_params(TINY, seed=0)
    for variant in ("treat", "gt_rev", "rev2"):
        chunk_sums = 0.0
        for part in (obs[:2], obs[2:]):
            out = batch_forward(Tape(record=False), params, TINY, build_batch(part), variant, 0.0)
            chunk_sums += out.l_rev * len(part)
        report = evaluate(params, obs, TINY, 2, variant)
        assert report.l_rev == chunk_sums / 3 and report.l_rev >= 0.0
        assert report.max_error_gt_rev >= 0.0
    assert evaluate(params, obs, TINY).l_rev == evaluate(params, obs, TINY, 16, "treat").l_rev
    report = evaluate(params, obs, TINY, 2, "none")
    assert report.l_rev is None and report.max_error_gt_rev is None


def test_evaluate_mse_is_target_weighted():
    obs = small_obs_sets(n_sets=4)
    params = init_params(TINY, seed=2)
    report = evaluate(params, obs, TINY, chunk=3)
    counts = [sum(ix.size * o.d for ix in o.pred_idx) for o in obs]
    weighted = sum(m * c for m, c in zip(report.per_sample_mse, counts)) / sum(counts)
    assert report.mse == pytest.approx(weighted, rel=1e-12)


def test_evaluate_matches_the_nested_loop_reference():
    """The per-target table gives the metrics of the loop over samples,
    agents and buckets: counts, bucket keys, worst deviations and l_rev to
    the bit, sums within round-off of their other order, all Python floats."""
    spec = SystemSpec(kind="damped_spring", n_agents=3, dim=1)
    trajs = [build_trajectory(spec, seed=4, index=i, raw_steps=6000, edge_prob=0.5)
             for i in range(5)]
    obs = build_observation_sets(trajs, (0, 10, 55), 4, 30, obs_seed=8)  # K = 45
    params = init_params(TINY, seed=2)
    for variant in LOSS_VARIANTS:
        got = evaluate(params, obs, TINY, 2, variant)
        ref = nested_loop_evaluate(params, obs, TINY, 2, variant)
        assert list(got.bucket_mse) == list(ref.bucket_mse) == [20, 40], variant
        assert (got.n_targets, got.max_error_gt_rev, got.l_rev) == (
            ref.n_targets, ref.max_error_gt_rev, ref.l_rev), variant
        assert got.mse == pytest.approx(ref.mse, rel=1e-12)
        assert got.per_sample_mse == pytest.approx(ref.per_sample_mse, rel=1e-12)
        assert list(got.bucket_mse.values()) == pytest.approx(
            list(ref.bucket_mse.values()), rel=1e-12)
        floats = [got.mse, *got.bucket_mse.values(), *got.per_sample_mse]
        if variant != "none":
            floats += [got.max_error_gt_rev, got.l_rev]
        assert all(type(v) is float for v in floats), variant
        assert type(got.n_targets) is int and type(got.per_sample_mse) is list


def test_evaluate_chunking_does_not_change_results():
    obs = small_obs_sets(n_sets=6)
    params = init_params(TINY, seed=3)
    one = evaluate(params, obs, TINY, chunk=6)
    many = evaluate(params, obs, TINY, chunk=2)
    assert one.mse == pytest.approx(many.mse, rel=1e-12)
    assert one.max_error_gt_rev == pytest.approx(many.max_error_gt_rev, rel=1e-12)


def test_forward_only_reports_equal_recorded_ones(monkeypatch):
    """evaluate, the diagnostic pass included, traces on tapes that keep no
    node, and its reports equal, bitwise, those traced on recording tapes."""
    obs = three_agent_obs_sets(n_sets=3)
    params = init_params(TINY, seed=4)
    tapes, asked = [], []

    def run(forced):
        def make_tape(record=True):
            asked.append(record)
            tapes.append(Tape(record=forced))
            return tapes[-1]

        monkeypatch.setattr(training, "Tape", make_tape)
        return evaluate(params, obs, TINY, chunk=2), evaluate(params, obs, TINY).l_rev

    recorded = run(forced=True)
    assert all(len(tape) > 0 for tape in tapes)
    tapes.clear()
    forward_only = run(forced=False)
    assert len(tapes) == 3 and all(len(tape) == 0 for tape in tapes)  # two chunks, one diagnostic
    assert asked == [False] * 6
    assert repr(forward_only) == repr(recorded)


def test_evaluate_none_keeps_the_mse_bits_without_a_reverse_rollout(monkeypatch):
    """The "none" pass traces the forward rollout alone, and its MSE, buckets
    and per-sample MSEs keep every bit of the "treat" pass's."""
    obs = small_obs_sets(n_sets=VAL_CHUNK + 5)
    for seed in (0, 5):
        params = init_params(TINY, seed=seed)
        for part in (obs, obs[:4]):
            full = evaluate(params, part, TINY, VAL_CHUNK)
            bare = evaluate(params, part, TINY, VAL_CHUNK, "none")
            assert (bare.mse, bare.n_targets, bare.bucket_mse, bare.per_sample_mse) == (
                full.mse, full.n_targets, full.bucket_mse, full.per_sample_mse)

    def no_reverse(*args, **kwargs):
        raise AssertionError("the none pass ran the reverse rollout")

    monkeypatch.setattr(training, "rollout_reverse", no_reverse)
    evaluate(params, obs, TINY, VAL_CHUNK, "none")


def test_train_val_mse_is_evaluate_mse(monkeypatch):
    """Validation is the forward-only "none" pass of evaluate, VAL_CHUNK
    samples a tape, over the seeded split."""
    calls = []

    def spy(params, obs_sets, config, chunk=16, variant="treat"):
        calls.append((len(obs_sets), chunk, variant))
        return evaluate(params, obs_sets, config, chunk, variant)

    monkeypatch.setattr(training, "evaluate", spy)
    obs = small_obs_sets(n_sets=20)
    settings = TrainSettings(model=TINY, epochs=1, batch_size=4, seed=1, val_fraction=0.25)
    result = train(obs, settings)
    perm = training.rng_stream(settings.seed, 0, training.PURPOSE_SPLIT).permutation(20)
    val_sets = [obs[i] for i in perm[:5]]
    assert result.n_val == 5 and result.best_epoch == 0
    assert result.history[0]["val_mse"] == evaluate(result.params, val_sets, TINY, VAL_CHUNK).mse
    assert calls == [(5, VAL_CHUNK, "none"), (15, 16, "treat")]  # validation, final diagnostic


def test_evaluate_rejects_empty():
    with pytest.raises(ConfigurationError):
        evaluate(init_params(TINY, 0), [], TINY)


# --------------------------------------------------------------- reporting

def test_write_loss_report_roundtrip(tmp_path):
    history = [
        {"epoch": 0, "l_pred": 1.0 / 3.0, "l_reverse": np.pi,
         "total": 1.0 / 3.0 + 0.5 * np.pi, "val_mse": 0.1},
        {"epoch": 1, "l_pred": 0.25, "l_reverse": 0.125, "total": 0.3125,
         "val_mse": np.nan},
    ]
    path = tmp_path / "losses.csv"
    write_loss_report(path, history)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == LOSS_COLUMNS
    assert len(rows) == 2
    for row, ref in zip(rows, history):
        assert int(row["epoch"]) == ref["epoch"]
        # repr-serialized floats parse back to the identical double
        for key in ("l_pred", "l_reverse", "total"):
            assert float(row[key]) == ref[key]
    assert float(rows[0]["val_mse"]) == 0.1
    assert rows[1]["val_mse"] == "nan"  # no validation set
