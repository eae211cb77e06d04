"""Held-out metrics computed the long way: a Python loop over samples, then
agents, then horizon buckets, summing each agent's slice of the targets
one at a time.  `evaluate` computes the same metrics over one per-target
table; this reference keeps the loop so the two can be compared."""

import numpy as np

from revode.autodiff import Tape
from revode.training import BUCKETS, EvalReport, batch_forward, build_batch


def nested_loop_evaluate(params, obs_sets, config, chunk=16, variant="treat") -> EvalReport:
    with_rev = variant != "none"
    sq_sum, n_tot, rev_sum = 0.0, 0, 0.0
    bucket_sq = {b: 0.0 for b in BUCKETS}
    bucket_n = {b: 0 for b in BUCKETS}
    max_errs, per_sample = [], []

    for start in range(0, len(obs_sets), chunk):
        part = obs_sets[start : start + chunk]
        batch = build_batch(part)
        out = batch_forward(Tape(record=False), params, config, batch, variant=variant, alpha=0.0)
        truth = batch.targets
        d = truth.shape[1]
        err_sq = np.sum(out.residual ** 2, axis=1)
        if with_rev:
            rev_sum += out.l_rev * len(part)
            dist = np.sqrt(np.sum((out.rev_paired_values[batch.rows] - truth) ** 2, axis=1))
        stop = 0
        for obs in part:
            samp_sq = 0.0
            samp_n = 0
            for idxs in obs.pred_idx:
                lo, stop = stop, stop + len(idxs)
                agent_sq = err_sq[lo:stop]
                for bk in BUCKETS:
                    if bk <= batch.K:
                        mask = idxs <= bk
                        bucket_sq[bk] += float(agent_sq[mask].sum())
                        bucket_n[bk] += int(mask.sum()) * d
                if with_rev:
                    max_errs.append(float(dist[lo:stop].max()) if stop > lo else 0.0)
                samp_sq += float(agent_sq.sum())
                samp_n += (stop - lo) * d
            sq_sum += samp_sq
            n_tot += samp_n
            per_sample.append(samp_sq / samp_n)

    return EvalReport(
        mse=sq_sum / n_tot,
        n_targets=n_tot,
        bucket_mse={bk: bucket_sq[bk] / bucket_n[bk] for bk in BUCKETS if bucket_n[bk] > 0},
        max_error_gt_rev=float(np.mean(max_errs)) if with_rev else None,
        per_sample_mse=per_sample,
        l_rev=rev_sum / len(obs_sets) if with_rev else None,
    )
