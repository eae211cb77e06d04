"""The four workloads, driven through the functions the `revode` commands call.

Every call into the package goes through a module attribute looked up at call
time (`rdata.build_trajectory`, `rtraining.train`, ...), so the tracer's
wrappers see it.  A workload builds its inputs from the benchmark seed in
`setup`, runs closed-loop passes (each operation starts after the previous one
ends), checks what the program returned, and records sha256 digests of its
outputs so that runs can be compared bit for bit.

Every workload records the same two samples per pass, so that every metric
means something on every workload:

- `pass_s`: the time the package spent in the pass (the benchmark's own
  checks are left out);
- `items_per_s`: the workload's items over the time of the calls that make
  them: trajectories through generate + normalize + write + read back
  (`simulate`), training samples (epochs x samples) through `train()` with
  its validation (`train_*`), checks (`verify`).

Each workload names a reference kernel (`reference.py`), fixed work like its
own that does not use the package.  `Outcome.timed` times it right before and
right after each timed call, and the pass's figures are also recorded in
units of it (`pass_ref`, `items_per_ref`), which do not follow the machine's
speed.

Each timed call starts from a collected heap (`gc.collect()` first), so
garbage left by the previous call is not charged to the next one.

Why these four: `simulate` puts nearly all the work in the integrators, the
systems and the data layer; `train_desk` and `train_graph` put the model's time
in different places (the encoder on the one-agent desk preset, the ODE field
and the backward sweep on five-agent graphs); `verify` is the only user of the
verification layer and runs the integrators on tiny states and small clouds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import revode.data as rdata
import revode.training as rtraining
import revode.verify as rverify
from revode.configs import (
    DESK_TEST_OBS_RANGE,
    DESK_TEST_WINDOW,
    DESK_TRAIN_OBS_RANGE,
    DESK_TRAIN_WINDOW,
    TRAIN_DEFAULTS,
    desk_model_config,
    desk_system_spec,
)
from revode.errors import RevodeError
from revode.integrators import StateVector, Trajectory
from revode.model import ModelConfig, init_params
from revode.systems import SystemSpec, analytic_solution_simple_spring_1d
from revode.training import TrainSettings

from reference import interpreter_kernel, tape_kernel, time_kernel

# The README's `revode simulate` corpus: five damped springs in 2-D on
# sampled graphs, so every trajectory has its own adjacency.
GRAPH_SPEC = SystemSpec(kind="damped_spring", n_agents=5, dim=2)
EDGE_PROB = 0.5
TRAIN_NOISE = 0.01

# Largest |state| deviation, relative to the trajectory's peak, allowed between
# the program's Euler trajectory and the benchmark's own reference.  Both do
# the same float64 Euler steps in a different order, so they differ by
# rounding only (about 1e-15 here); a wrong force, damping or graph term
# shows as 1e-4 or more.
REFERENCE_RTOL = 1e-9

# Trajectory index of the set-up warm-up, outside every pass's range.
WARMUP_INDEX = 30_000

# Kernel runs per reference sample; their median is the sample.  Single runs
# jump between two speeds from one run to the next.
REFERENCE_REPS = 3


@dataclass
class Outcome:
    """Operations attempted and failed, samples, digests and checks of a run.

    Without a `reference` kernel (a traced run) `timed` times no kernel and
    gives NaN for it."""

    reference: object = None
    # the kernel sample taken right after the last timed call
    _last_ref: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, n: int, why: str):
        self.failed += n
        self.problems.append(why)

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def timed(self, fn, *args, **kwargs):
        """`fn(*args, **kwargs)` from a collected heap: (result, wall seconds,
        mean of the reference samples right before and right after it)."""
        if self.reference is None:
            gc.collect()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            return result, time.perf_counter() - t0, math.nan
        before = self._last_ref if self._last_ref is not None else self._reference_sample()
        self._last_ref = None  # stays unset if the call raises
        gc.collect()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._last_ref = self._reference_sample()
        return result, wall, 0.5 * (before + self._last_ref)

    def _reference_sample(self) -> float:
        """The median of `REFERENCE_REPS` kernel runs."""
        ref = median(time_kernel(self.reference) for _ in range(REFERENCE_REPS))
        self.sample("reference_s", ref)
        return ref

    def record_pass(self, items: int, item_s: float, item_ref: float, pass_s: float, pass_ref: float):
        """One pass's samples, in seconds and in reference units."""
        self.sample("pass_s", pass_s)
        self.sample("items_per_s", items / item_s)
        if self.reference is not None:
            self.sample("pass_ref", pass_ref)
            self.sample("items_per_ref", items / item_ref)

    def digest(self, name: str, value: str):
        """Keep the first digest under `name`; a repeat must reproduce it."""
        first = self.digests.setdefault(name, value)
        if first != value:
            self.fail(1, f"{name} digest differs between repeats of the same input")


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------ simulate

def euler_reference(traj: Trajectory, dt: float, record_every: int) -> np.ndarray:
    """Euler solution of the linear damped spring network, from first principles.

    With x = (q, p) per spatial axis and L the graph Laplacian of the
    trajectory's own edges, dq/dt = p/m and dp/dt = -k L q - (gamma/m) p.
    Returns the recorded (n_points, n_agents, 2*dim) features.
    """
    params = traj.system
    n, dim = params["n_agents"], params["dim"]
    m, k, gamma = params["m"], params["k"], params["gamma"]
    adj = np.zeros((n, n))
    for i, j in params["edges"]:
        adj[i, j] = adj[j, i] = 1.0
    laplacian = np.diag(adj.sum(axis=1)) - adj
    step = np.eye(2 * n) + dt * np.block(
        [[np.zeros((n, n)), np.eye(n) / m], [-k * laplacian, -(gamma / m) * np.eye(n)]]
    )
    x = np.concatenate([traj.q[0], traj.p[0]], axis=0)  # (2n, dim)
    out = [x]
    for _ in range(traj.n_points - 1):
        for _ in range(record_every):
            x = step @ x
        out.append(x)
    rec = np.stack(out)
    return np.concatenate([rec[:, :n, :], rec[:, n:, :]], axis=-1)


@dataclass
class SimulateState:
    seed: int
    workdir: object


class Simulate:
    """README corpus shape, a slice at a time: 4 noisy train and 1 clean test
    trajectory per pass (the README's 200:50), 6000 Euler steps recorded
    every 100, then normalize, write JSONL and read it back."""

    name = "simulate"
    reference = staticmethod(interpreter_kernel)
    TRAIN_PER_PASS = 4
    TEST_PER_PASS = 1
    RAW_STEPS = 6000

    def inputs(self, seed: int, train_idx, test_idx):
        common = dict(raw_steps=self.RAW_STEPS, edge_prob=EDGE_PROB)
        train = [
            rdata.build_trajectory(GRAPH_SPEC, seed=seed, index=i, noise_sigma=TRAIN_NOISE, **common)
            for i in train_idx
        ]
        # held-out trajectories are clean, as `revode simulate` writes them
        test = [rdata.build_trajectory(GRAPH_SPEC, seed=seed + 1, index=i, **common) for i in test_idx]
        return train, test

    def _corpus(self, state, train_idx, test_idx):
        train, test = self.inputs(state.seed, train_idx, test_idx)
        groups, _ = rdata.normalize_trajectories([train, test])
        paths = [state.workdir / "train.jsonl", state.workdir / "test.jsonl"]
        back = []
        for path, group in zip(paths, groups):
            rdata.write_dataset(path, group)
            back.append(rdata.read_dataset(path))
        return test, groups, back, paths

    def setup(self, seed: int, workdir):
        state = SimulateState(seed, workdir)
        self._corpus(state, [WARMUP_INDEX], [WARMUP_INDEX])
        return state

    def run_pass(self, state, index: int, out: Outcome):
        n_train, n_test = self.TRAIN_PER_PASS, self.TEST_PER_PASS
        n = n_train + n_test
        train_idx = range(index * n_train, (index + 1) * n_train)
        test_idx = range(index * n_test, (index + 1) * n_test)
        out.attempted += n
        try:
            (raw_test, groups, back, paths), wall, ref = out.timed(
                self._corpus, state, train_idx, test_idx
            )
        except RevodeError as exc:
            out.fail(n, f"pass {index}: {type(exc).__name__}: {exc}")
            return
        out.record_pass(n, wall, wall / ref, wall, wall / ref)

        written = [t for group in groups for t in group]
        read = [t for group in back for t in group]
        for i, (w, r) in enumerate(zip(written, read)):
            same = (
                np.array_equal(w.times, r.times)
                and np.array_equal(w.q, r.q)
                and np.array_equal(w.p, r.p)
                and w.scale == r.scale
            )
            if not same:
                out.fail(1, f"pass {index}: trajectory {i} read back differs from what was written")
        if len(read) != n:
            out.fail(n - len(read), f"pass {index}: read back {len(read)} of {n} trajectories")
        dt, record_every = rdata.SIM_DEFAULTS[GRAPH_SPEC.kind][1:]
        for i, traj in enumerate(raw_test):
            ref = euler_reference(traj, dt, record_every)
            dev = float(np.max(np.abs(traj.features() - ref)))
            if dev > REFERENCE_RTOL * max(1.0, float(np.max(np.abs(ref)))):
                out.fail(1, f"pass {index}: test trajectory {i} deviates {dev:.3g} from the Euler reference")
        if index == 0:
            out.digest("arrays", sha256_arrays(
                [a for t in read for a in (t.times, t.q, t.p, np.float64(t.scale))]
            ))
        out.layer.setdefault("data.dataset_bytes", []).append(
            sum(p.stat().st_size for p in paths)
        )


# ------------------------------------------------------------------ training

def closed_form_desk_trajectories(seed: int, count: int, n_points: int) -> list:
    """Desk trajectories sampled from the exact oscillator flow on the desk's
    recorded grid (0.1 apart), so no simulator time lands in the set-up."""
    spec = desk_system_spec()
    times = 0.1 * np.arange(n_points)
    params = spec.params_dict()
    out = []
    for i in range(count):
        s0 = rdata.draw_initial_state(spec, rdata.rng_stream(seed, i, rdata.PURPOSE_INIT))
        q, p = analytic_solution_simple_spring_1d(
            float(s0.q[0, 0]), float(s0.p[0, 0]), spec.anchor_k, spec.m, times
        )
        out.append(Trajectory(times, q[:, None, None], p[:, None, None], system=params, seed=i))
    return out


def coarse_graph_trajectories(seed: int, count: int, n_points: int, noise: float) -> list:
    """Five-agent graph trajectories on the README's recorded grid (0.1 apart)
    with a coarse step (dt 0.05, record every 2) instead of dt 0.001."""
    return [
        rdata.build_trajectory(
            GRAPH_SPEC, seed=seed, index=i, raw_steps=2 * (n_points - 1),
            dt=0.05, subsample_every=2, edge_prob=EDGE_PROB, noise_sigma=noise,
        )
        for i in range(count)
    ]


@dataclass
class TrainState:
    obs_train: list
    obs_test: list
    settings: TrainSettings
    inputs_digest: str


def obs_digest(obs_sets) -> str:
    return sha256_arrays(
        [a for obs in obs_sets for lists in (obs.cond_times, obs.cond_feats, obs.pred_idx, obs.pred_feats)
         for a in lists]
    )


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(sha256_arrays([params[name]]).encode())
    return h.hexdigest()


def report_digest(report) -> str:
    return sha256_json({
        "mse": report.mse,
        "n_targets": report.n_targets,
        "bucket_mse": {str(k): v for k, v in report.bucket_mse.items()},
        "max_error_gt_rev": report.max_error_gt_rev,
        "per_sample_mse": report.per_sample_mse,
    })


class Train:
    """`train` for a fixed number of epochs (patience = epochs, so early
    stopping never cuts a run short and the work does not depend on the loss
    path), then `evaluate` on the test set several times."""

    def __init__(self, name, make_data, model: ModelConfig, train_window, test_window,
                 train_obs, test_obs, epochs: int, evals_per_pass: int):
        self.name = name
        self.make_data = make_data
        self.model = model
        self.train_window, self.test_window = train_window, test_window
        self.train_obs, self.test_obs = train_obs, test_obs
        self.epochs = epochs
        self.evals_per_pass = evals_per_pass
        self.reference = tape_kernel

    def settings(self, seed: int) -> TrainSettings:
        return TrainSettings(
            model=self.model, loss_variant="treat", alpha=0.5, lr=TRAIN_DEFAULTS["lr"],
            epochs=self.epochs, batch_size=TRAIN_DEFAULTS["batch_size"], patience=self.epochs,
            val_fraction=TRAIN_DEFAULTS["val_fraction"],
            weight_decay=TRAIN_DEFAULTS["weight_decay"], seed=seed,
        )

    def setup(self, seed: int, workdir=None) -> TrainState:
        train, test = self.make_data(seed)
        (train, test), _ = rdata.normalize_trajectories([train, test])
        obs_train = rdata.build_observation_sets(
            train, window=self.train_window, n_obs_min=self.train_obs[0],
            n_obs_max=self.train_obs[1], obs_seed=seed,
        )
        obs_test = rdata.build_observation_sets(
            test, window=self.test_window, n_obs_min=self.test_obs[0],
            n_obs_max=self.test_obs[1], obs_seed=seed + 1,
        )
        settings = self.settings(seed)
        # warm-up: one evaluate pass of the untrained model over one chunk
        rtraining.evaluate(init_params(self.model, seed), obs_test[:16], self.model)
        return TrainState(obs_train, obs_test, settings,
                          obs_digest(obs_train) + obs_digest(obs_test))

    def steps_per_train(self, state: TrainState) -> int:
        n = len(state.obs_train)
        n_val = int(round(state.settings.val_fraction * n)) if n >= 5 else 0
        return self.epochs * math.ceil((n - n_val) / state.settings.batch_size)

    def run_pass(self, state: TrainState, index: int, out: Outcome):
        steps = self.steps_per_train(state)
        out.attempted += steps
        try:
            result, train_s, ref = out.timed(rtraining.train, state.obs_train, state.settings)
        except RevodeError as exc:
            out.fail(steps, f"pass {index}: train raised {type(exc).__name__}: {exc}")
            return
        train_ref = train_s / ref
        pass_s, pass_ref = train_s, train_ref
        history = result.history
        losses = [row[key] for row in history for key in ("l_pred", "l_reverse", "total", "val_mse")]
        if len(history) != self.epochs or not all(math.isfinite(v) for v in losses):
            out.fail(1, f"pass {index}: {len(history)} epochs run or a loss is not finite")
        elif not history[-1]["l_pred"] < history[0]["l_pred"]:
            out.fail(1, f"pass {index}: l_pred did not fall ({history[0]['l_pred']} -> {history[-1]['l_pred']})")
        out.digest("inputs", state.inputs_digest)
        out.digest("params", params_digest(result.params))

        def evaluate_all():
            return [
                rtraining.evaluate(result.params, state.obs_test, self.model)
                for _ in range(self.evals_per_pass)
            ]

        out.attempted += self.evals_per_pass
        try:
            reports, eval_s, ref = out.timed(evaluate_all)
        except RevodeError as exc:
            out.fail(self.evals_per_pass, f"pass {index}: evaluate raised {type(exc).__name__}: {exc}")
            return
        pass_s += eval_s
        pass_ref += eval_s / ref
        for report in reports:
            if not math.isfinite(report.mse):
                out.fail(1, f"pass {index}: evaluate returned a non-finite MSE")
            out.digest("eval_report", report_digest(report))
            out.notes["eval.mse"] = report.mse
        out.record_pass(self.epochs * result.n_train, train_s, train_ref, pass_s, pass_ref)


def _desk_data(seed: int):
    return (
        closed_form_desk_trajectories(seed, 200, 51),
        closed_form_desk_trajectories(seed + 1, 50, 91),
    )


def _graph_data(seed: int):
    # 36 trajectories leave 32 to train on after the 10% validation split:
    # one full batch per epoch.
    return (
        coarse_graph_trajectories(seed, 36, 61, TRAIN_NOISE),
        coarse_graph_trajectories(seed + 1, 32, 91, 0.0),
    )


TRAIN_DESK = Train(
    "train_desk", _desk_data, desk_model_config(),
    DESK_TRAIN_WINDOW, DESK_TEST_WINDOW, DESK_TRAIN_OBS_RANGE, DESK_TEST_OBS_RANGE,
    epochs=4, evals_per_pass=4,
)

TRAIN_GRAPH = Train(
    "train_graph", _graph_data,
    ModelConfig(
        d_obs=GRAPH_SPEC.feature_dim, d_enc=TRAIN_DEFAULTS["d_enc"], d_aug=TRAIN_DEFAULTS["d_aug"],
        d_model=TRAIN_DEFAULTS["d_model"], ode_hidden=TRAIN_DEFAULTS["ode_hidden"],
        dec_hidden=TRAIN_DEFAULTS["dec_hidden"], scheme=TRAIN_DEFAULTS["scheme"],
    ),
    tuple(TRAIN_DEFAULTS["window"]), tuple(TRAIN_DEFAULTS["test_window"]),
    (TRAIN_DEFAULTS["n_obs_min"], TRAIN_DEFAULTS["n_obs_max"]),
    (TRAIN_DEFAULTS["test_n_obs_min"], TRAIN_DEFAULTS["test_n_obs_max"]),
    # Six one-batch epochs: after four, a fresh model's l_pred was still
    # above its first epoch's on 2 of 32 seeds (a spike, or a low start).
    epochs=6, evals_per_pass=1,
)


# -------------------------------------------------------------------- verify

PENDULUM = SystemSpec(kind="triple_pendulum", n_agents=3)
SPRING_LATTICE = SystemSpec(kind="simple_spring", n_agents=5, dim=2)
# An RK4 round trip of the pendulum at dt 1e-3 returns to its start within
# about 1e-9; a broken momentum flip or a one-way solver misses by 1e-2 or more.
ROUNDTRIP_TOL = 1e-6
# Short chaos probe: one pair of members over 0.2 time units for the
# pendulum (the suite uses 45 pairs over 0.6).  One pair over so short a span
# does not order the two systems reliably, so only its sanity is checked.
MLE_PAIRS = 1
MLE_PENDULUM_HORIZON = 0.2


class Verify:
    """The verification layer in calls of a second or less, so that a run
    holds many of them: the `theorem1` and `lemma2` suites as `revode verify`
    runs them (frozen configurations), then the checks behind the three long
    suites on inputs drawn from the seed and smaller than the suites' own:
    one energy classification of the README's damped five-spring graph
    (`energy`), one RK4 round trip of the triple pendulum (`lemma1`), and a
    one-pair Lyapunov probe of the pendulum and the spring lattice (`mle`)."""

    name = "verify"
    reference = staticmethod(interpreter_kernel)
    SUITES = ("theorem1", "lemma2")

    def setup(self, seed: int, workdir=None):
        rverify.run_suite("lemma2")  # warm-up: the cheapest suite
        return seed

    def _checks(self, seed: int, index: int):
        """(name, call, check) for the seeded calls of one pass; a check
        returns None or what went wrong."""
        sub = seed * 10_000 + index
        theta = np.random.default_rng([seed, index]).uniform(-1.0, 1.0, size=(3, 1))
        state0 = StateVector(q=theta, p=np.zeros((3, 1)))
        dt, span = rverify.ROUNDTRIP_DTS[0], rverify.ROUNDTRIP_PENDULUM["span"]

        def energy():
            return rverify.energy_classification_check(
                GRAPH_SPEC, n_trajectories=1, tol=rverify.ENERGY_DRIFT_TOL,
                seed=sub, rate_tol=rverify.ENERGY_RATE_TOL,
            )

        def roundtrip():
            return rverify.lemma1_roundtrip(PENDULUM, state0, "rk4", dt, span)

        def mle():
            return (
                rverify.lyapunov_mle(PENDULUM, n_pairs=MLE_PAIRS, horizon=MLE_PENDULUM_HORIZON, seed=sub),
                rverify.lyapunov_mle(SPRING_LATTICE, n_pairs=MLE_PAIRS, seed=sub),
            )

        def mle_sane(reports):
            for rep in reports:
                if rep.n_escaped or rep.n_pairs_used != MLE_PAIRS or not math.isfinite(rep.mle_mean):
                    return f"{rep.kind}: {rep.n_pairs_used} pairs used, {rep.n_escaped} escaped, MLE {rep.mle_mean}"
            return None

        return (
            ("energy", energy, lambda rep: None if rep.passed else f"checks {rep.checks}"),
            ("roundtrip", roundtrip,
             lambda err: None if err < ROUNDTRIP_TOL else f"round trip misses by {err}"),
            ("mle", mle, mle_sane),
        )

    def run_pass(self, seed, index: int, out: Outcome):
        items, pass_s, pass_ref = 0, 0.0, 0.0
        for suite in self.SUITES:
            try:
                results, wall, ref = out.timed(rverify.run_suite, suite)
            except RevodeError as exc:
                out.attempted += 1
                out.fail(1, f"suite {suite} raised {type(exc).__name__}: {exc}")
                continue
            items, pass_s, pass_ref = items + 1, pass_s + wall, pass_ref + wall / ref
            for result in results:
                for a in result.assertions:
                    out.attempted += 1
                    if not a.passed:
                        out.fail(1, f"{suite}.{a.name} failed: {a.value!r} ({a.detail})")
            out.digest(f"suite_{suite}", sha256_json([r.to_jsonable() for r in results]))
        for name, call, check in self._checks(seed, index):
            out.attempted += 1
            try:
                value, wall, ref = out.timed(call)
            except RevodeError as exc:
                out.fail(1, f"pass {index}: {name} raised {type(exc).__name__}: {exc}")
                continue
            items, pass_s, pass_ref = items + 1, pass_s + wall, pass_ref + wall / ref
            problem = check(value)
            if problem:
                out.fail(1, f"pass {index}: {name}: {problem}")
            if index == 0:
                out.digest(name, sha256_json(repr(value)))
        if items:
            out.record_pass(items, pass_s, pass_ref, pass_s, pass_ref)


WORKLOADS = {w.name: w for w in (Simulate(), TRAIN_DESK, TRAIN_GRAPH, Verify())}
