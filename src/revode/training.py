"""Objectives, optimizer, and the training/evaluation loops.

The prediction loss sums squared errors over each sample's irregular
target observations; the reversal regularizer compares the forward latent
trajectory (decoded) against a second rollout integrated with the negated
vector field.  Index pairing follows t'_{K-k} = T - t_k: reverse step K-k
aligns with forward step k.  Everything trains by backpropagation through
the unrolled solver on one tape per minibatch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward, check_finite_grads
from .data import ObservationSet, rng_stream, PURPOSE_SPLIT, PURPOSE_SHUFFLE
from .errors import (
    ConfigurationError, NonFiniteGradientError, RolloutDivergedError, TrainingDivergedError,
)
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
    spans: list              # per sample, per agent: (start, stop) into rows
    targets: np.ndarray      # (n_targets, d)


def build_batch(obs_list: list[ObservationSet]) -> Batch:
    first = obs_list[0]
    n, K, dt = first.n_agents, first.n_rollout_steps, first.dt
    for obs in obs_list[1:]:
        if obs.n_agents != n or obs.n_rollout_steps != K or obs.dt != dt:
            raise ConfigurationError(
                "all samples in a batch must share n_agents, rollout length, and dt"
            )
    n_nodes = len(obs_list) * n
    rows, spans = [], []
    stop = 0
    for b, obs in enumerate(obs_list):
        spans.append([])
        for i, idx in enumerate(obs.pred_idx):
            rows.append(idx * n_nodes + b * n + i)
            start, stop = stop, stop + len(idx)
            spans[-1].append((start, stop))
    return Batch(
        obs_list=obs_list,
        n_agents=n,
        K=K,
        dt=dt,
        edges=np.concatenate([obs.edges + b * n for b, obs in enumerate(obs_list)]),
        n_nodes=n_nodes,
        rows=np.concatenate(rows),
        spans=spans,
        targets=np.concatenate([f for obs in obs_list for f in obs.pred_feats], axis=0),
    )


@dataclass
class BatchForward:
    loss: Tensor
    l_pred: float
    l_rev: float | None
    rev_paired_values: np.ndarray | None  # ((K+1)*n_nodes, d) reverse decode
    yhat_values: np.ndarray


def batch_forward(
    tape: Tape,
    leaves: dict[str, Tensor],
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

    def mean_sq(a: Tensor, b: Tensor) -> Tensor:
        return ad.smul(ad.l2_norm_sq(ad.sub(a, b)), per_sample)

    n, K = batch.n_nodes, batch.K
    z0 = encode_initial_states(tape, leaves, config, batch.obs_list)
    g = make_ode_func(tape, leaves, config, batch.edges, n)
    fwd = rollout_forward(z0, g, K, batch.dt, config.scheme)
    yhat = decode(tape, leaves, config, fwd)

    y = tape.const(batch.targets)
    l_pred = mean_sq(ad.gather_rows(yhat, batch.rows), y)
    l_rev = None
    if variant == "rev2":
        rev = rollout_reverse(ad.row_blocks(fwd, n, [0]), g, K, batch.dt, config.scheme)
        yrev = decode(tape, leaves, config, rev)
        l_rev = mean_sq(yhat, yrev)
    elif variant != "none":
        rev = rollout_reverse(ad.row_blocks(fwd, n, [K]), g, K, batch.dt, config.scheme)
        yrev = decode(tape, leaves, config, ad.row_blocks(rev, n, range(K, -1, -1)))
        if variant == "gt_rev":
            l_rev = mean_sq(ad.gather_rows(yrev, batch.rows), y)
        else:
            l_rev = mean_sq(yhat, yrev)
    no_rev = l_rev is None
    return BatchForward(
        loss=l_pred if no_rev or alpha == 0.0 else ad.add(l_pred, ad.smul(l_rev, alpha)),
        l_pred=float(l_pred.value),
        l_rev=None if no_rev else float(l_rev.value),
        rev_paired_values=None if no_rev else yrev.value,
        yhat_values=yhat.value,
    )


# --------------------------------------------------------------- optimizer

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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> np.ndarray:
    """One decoupled-weight-decay Adam step on the flat parameter vector:
    returns a new vector, never writing into theta, and advances state."""
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    return theta - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * theta)


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
    batch = build_batch(obs_list)
    tape = Tape()
    leaves = {k: tape.leaf(v, k) for k, v in param_views(theta, settings.model).items()}
    out = batch_forward(tape, leaves, settings.model, batch, settings.loss_variant, settings.alpha)
    if not np.isfinite(out.loss.value):
        raise TrainingDivergedError(f"non-finite loss at {where}")
    grads = backward(tape, out.loss)
    check_finite_grads(grads)
    # every parameter feeds l_pred, so every leaf has a gradient
    grad = np.concatenate([grads[k].ravel() for k in leaves])
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
    except (RolloutDivergedError, NonFiniteGradientError) as exc:
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
    max_error_gt_rev: float | None  # mean over (sample, agent) of max paired deviation
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
    rollout is never traced, and those two are None."""
    if not obs_sets:
        raise ConfigurationError("empty evaluation set")
    with_rev = variant != "none"
    sq_sum = 0.0
    n_tot = 0
    rev_sum = 0.0
    bucket_sq = {b: 0.0 for b in BUCKETS}
    bucket_n = {b: 0 for b in BUCKETS}
    max_errs = []
    per_sample = []

    for start in range(0, len(obs_sets), chunk):
        part = obs_sets[start : start + chunk]
        batch = build_batch(part)
        tape = Tape(record=False)
        leaves = {k: tape.leaf(v, k) for k, v in params.items()}
        out = batch_forward(tape, leaves, config, batch, variant=variant, alpha=0.0)
        truth = batch.targets
        d = truth.shape[1]
        err_sq = np.sum((out.yhat_values[batch.rows] - truth) ** 2, axis=1)
        if with_rev:
            rev_sum += out.l_rev * len(part)
            dist = np.sqrt(np.sum((out.rev_paired_values[batch.rows] - truth) ** 2, axis=1))
        for obs, spans in zip(part, batch.spans):
            samp_sq = 0.0
            samp_n = 0
            for idxs, (lo, hi) in zip(obs.pred_idx, spans):
                agent_sq = err_sq[lo:hi]
                for bk in BUCKETS:
                    if bk <= batch.K:
                        mask = idxs <= bk
                        bucket_sq[bk] += float(agent_sq[mask].sum())
                        bucket_n[bk] += int(mask.sum()) * d
                if with_rev:
                    max_errs.append(float(dist[lo:hi].max()) if hi > lo else 0.0)
                samp_sq += float(agent_sq.sum())
                samp_n += (hi - lo) * d
            sq_sum += samp_sq
            n_tot += samp_n
            per_sample.append(samp_sq / samp_n)

    bucket_mse = {
        bk: (bucket_sq[bk] / bucket_n[bk]) for bk in BUCKETS if bucket_n[bk] > 0
    }
    return EvalReport(
        mse=sq_sum / n_tot,
        n_targets=n_tot,
        bucket_mse=bucket_mse,
        max_error_gt_rev=float(np.mean(max_errs)) if with_rev else None,
        per_sample_mse=per_sample,
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
