"""Objectives, optimizer, and the training/evaluation loops.

The prediction loss sums squared errors over each sample's irregular
target observations; the reversal regularizer compares the forward latent
trajectory (decoded) against a second rollout integrated with the negated
vector field.  Index pairing follows t'_{K-k} = T - t_k: reverse step K-k
aligns with forward step k.  Everything trains by backpropagation through
the unrolled solver on one tape per minibatch.

Parameters train as one flat float64 vector, which each step records as the
named views `model.param_views` cuts from it; checkpoints and `evaluate`
take the named arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .data import ObservationSet, rng_stream, PURPOSE_SPLIT, PURPOSE_SHUFFLE
from .errors import ConfigurationError, RolloutDivergedError, TrainingDivergedError
from .model import (
    ModelConfig,
    decode,
    encode_initial_states,
    init_params,
    make_ode_func,
    param_views,
    rollout_forward,
    rollout_reverse,
)

LOSS_VARIANTS = ("treat", "gt_rev", "rev2", "none")


# --------------------------------------------------------------- batches

@dataclass
class Batch:
    obs_list: list
    n_agents: int
    K: int
    dt: float
    edges: np.ndarray        # (E, 2) directed (src, tgt) node pairs
    n_nodes: int
    rows: np.ndarray         # (n_targets,) row k * n_nodes + node in decode()'s stack
    targets: np.ndarray      # (n_targets, d)


def build_batch(obs_list: list[ObservationSet]) -> Batch:
    """Stack samples as n_nodes = samples * n_agents nodes.  Targets run sample-major,
    then agent, so divmod(rows, n_nodes) is each target's (horizon, node)."""
    first = obs_list[0]
    n, K, dt = first.n_agents, first.n_rollout_steps, first.dt
    if any((o.n_agents, o.n_rollout_steps, o.dt) != (n, K, dt) for o in obs_list[1:]):
        raise ConfigurationError(
            "all samples in a batch must share n_agents, rollout length, and dt")
    n_nodes = len(obs_list) * n
    pred_idx = [idx for obs in obs_list for idx in obs.pred_idx]
    nodes = np.repeat(np.arange(n_nodes), [len(idx) for idx in pred_idx])
    return Batch(
        obs_list=obs_list,
        n_agents=n,
        K=K,
        dt=dt,
        edges=np.concatenate([obs.edges + b * n for b, obs in enumerate(obs_list)]),
        n_nodes=n_nodes,
        rows=np.concatenate(pred_idx) * n_nodes + nodes,
        targets=np.concatenate([f for obs in obs_list for f in obs.pred_feats], axis=0),
    )


@dataclass
class BatchForward:
    loss: Tensor
    l_pred: float
    l_rev: float | None
    rev_paired_values: np.ndarray | None  # ((K+1)*n_nodes, d) reverse decode
    residual: np.ndarray  # (n_targets, d) decode minus targets, the residual l_pred squares


def batch_forward(
    tape: Tape,
    params: dict[str, np.ndarray],
    config: ModelConfig,
    batch: Batch,
    variant: str,
    alpha: float,
) -> BatchForward:
    """Trace one minibatch; losses are means over the batch's samples.

    loss = l_pred + alpha * l_rev, where l_pred fits the targets and l_rev
    compares, per variant: treat, forward step k with step K-k of the
    rollout reversed from z_K; gt_rev, the targets with that paired
    reverse decode; rev2, forward step k with step k reversed from z_0.
    """
    if variant not in LOSS_VARIANTS:
        raise ConfigurationError(f"unknown loss variant {variant!r}")
    per_sample = 1.0 / len(batch.obs_list)

    def mean_sq(diff: Tensor) -> Tensor:
        return ad.smul(ad.l2_norm_sq(diff), per_sample)

    leaves = {k: tape.leaf(v) for k, v in params.items()}  # first: the gradient follows params
    n, K = batch.n_nodes, batch.K
    z0 = encode_initial_states(tape, leaves, config, batch.obs_list)
    g = make_ode_func(tape, leaves, config, batch.edges, n)
    fwd = rollout_forward(z0, g, K, batch.dt, config.scheme)
    yhat = decode(leaves, fwd)

    y = tape.const(batch.targets)
    residual = ad.sub(ad.gather_rows(yhat, batch.rows), y)
    l_pred = mean_sq(residual)
    l_rev = None
    if variant == "rev2":
        rev = rollout_reverse(ad.row_blocks(fwd, n, [0]), g, K, batch.dt, config.scheme)
        yrev = decode(leaves, rev)
        l_rev = mean_sq(ad.sub(yhat, yrev))
    elif variant != "none":
        rev = rollout_reverse(ad.row_blocks(fwd, n, [K]), g, K, batch.dt, config.scheme)
        yrev = decode(leaves, ad.row_blocks(rev, n, range(K, -1, -1)))
        if variant == "gt_rev":
            l_rev = mean_sq(ad.sub(ad.gather_rows(yrev, batch.rows), y))
        else:
            l_rev = mean_sq(ad.sub(yhat, yrev))
    no_rev = l_rev is None
    return BatchForward(
        loss=l_pred if no_rev or alpha == 0.0 else ad.add(l_pred, ad.smul(l_rev, alpha)),
        l_pred=float(l_pred.value),
        l_rev=None if no_rev else float(l_rev.value),
        rev_paired_values=None if no_rev else yrev.value,
        residual=residual.value,
    )


# --------------------------------------------------------------- optimizer

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamWState:
    m: np.ndarray  # first and second moments, laid out like the flat parameters
    v: np.ndarray
    t: int = 0


def optimizer_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state: AdamWState,
    lr: float,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """One decoupled-weight-decay Adam step on the flat parameter vector:
    returns a new vector, never writing into theta, and advances state."""
    state.t += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1**state.t)
    v_hat = state.v / (1.0 - BETA2**state.t)
    return theta - lr * (m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * theta)


# ------------------------------------------------------------- settings

DIAG_SAMPLES = 32  # training samples the reversal-gap diagnostic reads
VAL_CHUNK = 32     # validation samples per tape


@dataclass
class TrainSettings:
    model: ModelConfig
    loss_variant: str = "treat"
    alpha: float = 0.5
    lr: float = 3e-3
    epochs: int = 60
    batch_size: int = 32
    patience: int = 15
    val_fraction: float = 0.1
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigurationError(
                f"loss_variant must be one of {LOSS_VARIANTS}, got {self.loss_variant!r}"
            )
        if self.loss_variant == "none" and self.alpha != 0.0:
            raise ConfigurationError("variant 'none' requires alpha = 0")
        for name in ("alpha", "lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.weight_decay < 0:
            raise ConfigurationError(
                f"alpha and weight_decay must be >= 0, got {self.alpha} and {self.weight_decay}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigurationError("val_fraction must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1 or not self.lr > 0:
            raise ConfigurationError(
                f"epochs and batch_size must be >= 1 and lr > 0, got epochs={self.epochs}, "
                f"batch_size={self.batch_size}, lr={self.lr}")


@dataclass
class TrainResult:
    params: dict
    history: list          # rows: dicts keyed by LOSS_COLUMNS
    best_epoch: int
    final_diag_l_reverse: float
    n_train: int
    n_val: int


def _train_step(theta, state: AdamWState, obs_list, settings: TrainSettings, where: str):
    """One optimizer step on one minibatch: (new theta, l_pred, l_rev).

    Its tape lives in this call alone, so it is freed before the next
    step's forward pass starts."""
    batch, config, tape = build_batch(obs_list), settings.model, Tape()
    out = batch_forward(tape, param_views(theta, config), config, batch,
                        settings.loss_variant, settings.alpha)
    if not np.isfinite(out.loss.value):
        raise TrainingDivergedError(f"non-finite loss at {where}")
    grad = backward(tape, out.loss)  # laid out like theta
    if not np.isfinite(grad).all():
        name = next(k for k, g in param_views(grad, config).items() if not np.isfinite(g).all())
        raise TrainingDivergedError(f"gradient for {name!r} is not finite")
    theta = optimizer_step(theta, grad, state, settings.lr, settings.weight_decay)
    return theta, out.l_pred, out.l_rev


def train(train_sets: list[ObservationSet], settings: TrainSettings) -> TrainResult:
    """Minibatch AdamW training with early stopping on validation MSE; the
    validation sets are a seeded `val_fraction` of `train_sets`.  Without
    them every epoch improves, so the last epoch's parameters are kept.

    Validation and the reversal diagnostic (the mean per-sample treat loss
    on the first DIAG_SAMPLES training samples) are `evaluate` passes.  A
    non-finite loss or gradient, or a latent rollout that diverges in
    training, validation or the diagnostic, raises TrainingDivergedError."""
    if not train_sets:
        raise ConfigurationError("empty training set")
    n = len(train_sets)
    n_val = int(round(settings.val_fraction * n)) if n >= 5 else 0
    if n_val == n:
        raise ConfigurationError(
            f"val_fraction {settings.val_fraction} leaves no training samples: "
            f"all {n} samples go to validation")
    perm = rng_stream(settings.seed, 0, PURPOSE_SPLIT).permutation(n)
    val_sets = [train_sets[i] for i in perm[:n_val]]
    train_sets = [train_sets[i] for i in perm[n_val:]]

    config = settings.model
    theta = np.concatenate([p.ravel() for p in init_params(config, settings.seed).values()])
    state = AdamWState(np.zeros_like(theta), np.zeros_like(theta))
    diag_sets = train_sets[:DIAG_SAMPLES]

    history = []
    best_val = np.inf
    # optimizer_step returns a new vector and never writes into the one it
    # is given, so holding a reference snapshots the parameters
    best = theta
    best_epoch = 0
    stale = 0

    try:
        for epoch in range(settings.epochs):
            order = rng_stream(settings.seed, epoch, PURPOSE_SHUFFLE).permutation(
                len(train_sets)
            )
            sum_pred = 0.0
            sum_rev = 0.0
            for start in range(0, len(order), settings.batch_size):
                idx = order[start : start + settings.batch_size]
                theta, l_pred, l_rev = _train_step(
                    theta, state, [train_sets[i] for i in idx], settings,
                    f"epoch {epoch} (batch starting {start})",
                )
                sum_pred += l_pred * len(idx)
                if l_rev is not None:
                    sum_rev += l_rev * len(idx)

            l_pred_epoch = sum_pred / len(train_sets)
            params = param_views(theta, config)
            if settings.loss_variant == "none":
                l_rev_epoch = evaluate(params, diag_sets, config).l_rev
            else:
                l_rev_epoch = sum_rev / len(train_sets)
            val_mse = np.nan
            if val_sets:
                val_mse = evaluate(params, val_sets, config, VAL_CHUNK, "none").mse
            total = l_pred_epoch + settings.alpha * l_rev_epoch
            history.append(dict(zip(LOSS_COLUMNS, (epoch, l_pred_epoch, l_rev_epoch, total, val_mse))))

            if not val_sets or val_mse < best_val * (1.0 - 1e-6):
                best_val = val_mse
                best = theta
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= settings.patience:
                    break

        best_params = param_views(best, config)
        final_diag = evaluate(best_params, diag_sets, config).l_rev
    except RolloutDivergedError as exc:
        raise TrainingDivergedError(str(exc)) from exc
    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=best_epoch,
        final_diag_l_reverse=final_diag,
        n_train=len(train_sets),
        n_val=len(val_sets),
    )


# ------------------------------------------------------------- evaluation

@dataclass
class EvalReport:
    mse: float
    n_targets: int
    bucket_mse: dict                # horizon -> cumulative MSE over targets <= horizon
    max_error_gt_rev: float | None  # mean over (sample, agent) of the worst deviation from the targets
    #   of the paired reverse decode; under treat its rollout starts at the model's own z_K
    per_sample_mse: list
    l_rev: float | None             # mean per-sample reversal loss of the variant


BUCKETS = (20, 40, 60)


def evaluate(
    params: dict[str, np.ndarray],
    obs_sets: list[ObservationSet],
    config: ModelConfig,
    chunk: int = 16,
    variant: str = "treat",
) -> EvalReport:
    """Held-out metrics from forward-only tapes of `chunk` samples each: the
    target-weighted MSE, its horizon buckets and per-sample values, and
    `variant`'s mean reversal loss with the mean worst deviation of its
    paired reverse decode from the targets.  Under "none" the reverse
    rollout is never traced, and those two are None.  Each chunk adds a row
    per target to one table; every metric is a mask or a bincount over it,
    and a bucket is reported when the longest rollout reaches it."""
    if not obs_sets:
        raise ConfigurationError("empty evaluation set")
    with_rev = variant != "none"
    rev_sum, n_agents, table = 0.0, 0, []
    for start in range(0, len(obs_sets), chunk):
        batch = build_batch(obs_sets[start : start + chunk])
        out = batch_forward(Tape(record=False), params, config, batch, variant=variant, alpha=0.0)
        horizon, node = np.divmod(batch.rows, batch.n_nodes)
        dist = np.zeros(0)
        if with_rev:
            rev_sum += out.l_rev * len(batch.obs_list)
            paired = out.rev_paired_values[batch.rows] - batch.targets
            dist = np.sqrt(np.sum(paired**2, axis=1))
        # squared error, horizon, sample, set-wide agent, reverse distance
        table.append((np.sum(out.residual**2, axis=1), horizon,
                      start + node // batch.n_agents, n_agents + node, dist))
        n_agents += batch.n_nodes

    err_sq, horizon, sample, agent, dist = map(np.concatenate, zip(*table))
    d, k_max = config.d_obs, max(obs.n_rollout_steps for obs in obs_sets)
    per_sample = np.bincount(sample, err_sq, len(obs_sets)) / (
        np.bincount(sample, minlength=len(obs_sets)) * d)
    buckets = [(bk, horizon <= bk) for bk in BUCKETS if bk <= k_max]
    worst = np.zeros(n_agents)
    if with_rev:
        np.maximum.at(worst, agent, dist)
    return EvalReport(
        mse=float(err_sq.sum() / (err_sq.size * d)),
        n_targets=err_sq.size * d,
        bucket_mse={bk: float(err_sq[w].sum() / (w.sum() * d)) for bk, w in buckets if w.any()},
        max_error_gt_rev=float(np.mean(worst)) if with_rev else None,
        per_sample_mse=per_sample.tolist(),
        l_rev=rev_sum / len(obs_sets) if with_rev else None,
    )


# ------------------------------------------------------------- reporting

LOSS_COLUMNS = ("epoch", "l_pred", "l_reverse", "total", "val_mse")


def write_loss_report(path, history: list[dict]):
    """CSV of the history rows: total = l_pred + alpha * l_reverse stays intact,
    and val_mse reads nan when there is no validation set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOSS_COLUMNS)
        for row in history:
            writer.writerow([row["epoch"]] + [repr(row[k]) for k in LOSS_COLUMNS[1:]])
