"""Span tracer installed from outside the program, at the bindings callers use.

Each wrapped call records a span: its id (the index), the span that was open
when it started (its parent), a name, a start and an end.  Spans stay in
memory, in flat arrays, until the run writes them out.  A layer's self time
is a span's duration minus the time its child spans cover, so validation
inside `train` and rollouts inside `evaluate` are not counted twice.

Hot callees whose cost is their children (the message-passing field, the
per-agent encoder, the chain-rule rate) are only counted, not spanned, so
that their callers keep their own time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) for every binding that a caller looks up at
# call time.  `integrate` is bound under three names: data and verify import
# it by name, and integrate_reversed calls the integrators global.
SPANS = (
    ("revode.data", "integrate", "integrators.integrate"),
    ("revode.verify", "integrate", "integrators.integrate"),
    ("revode.integrators", "integrate", "integrators.integrate"),
    ("revode.systems", "eval_derivative", "systems.eval_derivative"),
    ("revode.verify", "eval_derivative", "systems.eval_derivative"),
    ("revode.verify", "mechanical_energy", "systems.mechanical_energy"),
    ("revode.data", "build_trajectory", "data.build_trajectory"),
    ("revode.data", "normalize_trajectories", "data.normalize_trajectories"),
    ("revode.data", "write_dataset", "data.write_dataset"),
    ("revode.data", "read_dataset", "data.read_dataset"),
    ("revode.data", "build_observation_sets", "data.build_observation_sets"),
    ("revode.training", "backward", "autodiff.backward"),
    ("revode.training", "encode_initial_states", "model.encode_initial_states"),
    ("revode.training", "make_ode_func", "model.make_ode_func"),
    ("revode.training", "rollout_forward", "model.rollout_forward"),
    ("revode.training", "rollout_reverse", "model.rollout_reverse"),
    ("revode.training", "decode", "model.decode"),
    ("revode.training", "build_batch", "training.build_batch"),
    ("revode.training", "batch_forward", "training.batch_forward"),
    ("revode.training", "optimizer_step", "training.optimizer_step"),
    ("revode.training", "train", "training.train"),
    ("revode.training", "evaluate", "training.evaluate"),
    ("revode.verify", "run_suite", None),  # named after the suite it runs
    ("revode.verify", "lyapunov_mle", "verify.lyapunov_mle"),
    ("revode.verify", "energy_classification_check", "verify.energy_classification_check"),
)

COUNTS = (
    ("revode.model", "encode_agent", "model.encode_agent.calls"),
    ("revode.verify", "mechanical_energy_rate_chain_rule", "verify.chain_rule_rate.calls"),
)

# Spans reported as `<name>.self_pct`, and those also reported as `<name>.calls`.
SELF_PCT = (
    "integrators.integrate",
    "systems.eval_derivative",
    "systems.mechanical_energy",
    "data.build_trajectory",
    "data.normalize_trajectories",
    "data.write_dataset",
    "data.read_dataset",
    "data.build_observation_sets",
    "autodiff.backward",
    "model.encode_initial_states",
    "model.make_ode_func",
    "model.rollout_forward",
    "model.rollout_reverse",
    "model.decode",
    "training.build_batch",
    "training.batch_forward",
    "training.optimizer_step",
    "verify.lyapunov_mle",
    "verify.energy_classification_check",
)
CALLS = ("integrators.integrate", "systems.eval_derivative", "systems.mechanical_energy")
COUNTED = (
    "integrators.member_steps",
    "model.field_evals",
    "model.encode_agent.calls",
    "verify.chain_rule_rate.calls",
)
TAPE_OPS = ("matmul", "add", "const", "concat", "smul", "relu", "transpose")
# The highest step percentile reported is the one with ten steps beyond it.
STEP_PERCENTILES = ((90, 100), (50, 1))

# Every per-layer metric, with its unit.  A traced run reports all of them on
# every workload; a layer the workload does not use reads 0.
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{key: "count" for key in COUNTED},
    "integrators.member_steps_per_s": "1/s",
    **{f"{name}.self_pct": "%" for name in SELF_PCT},
    "data.dataset_bytes": "bytes",
    "autodiff.nodes_per_batch": "count",
    **{f"autodiff.nodes.{op}": "count" for op in TAPE_OPS},
    "autodiff.value_mb_per_batch": "MB",
    "training.steps": "count",
    "training.validate.self_pct": "%",
    "training.validate.total_pct": "%",
    "verify.theorem1.total_pct": "%",
    "verify.lemma2.total_pct": "%",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Installed wrappers hold these containers, so they are only ever
        # emptied in place.
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.tape: dict | None = None

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap_span(self, fn, name):
        nid = None if name is None else self._name_id(name)
        hook = _HOOKS.get(name)
        returns_field = name == "model.make_ode_func"
        parent, names, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid if nid is not None else self._name_id(f"verify.suite.{args[0]}"))
            end.append(0.0)
            stack.append(sid)
            if hook is not None:
                hook(self, args, kwargs)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if returns_field:
                return self._count_calls(result, "model.field_evals")
            return result

        return traced

    def _count_calls(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block, then restore."""
        patched = []
        try:
            for module_name, attr, name in SPANS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, self._wrap_span(original, name))
            for module_name, attr, key in COUNTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, self._count_calls(original, key))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # ----------------------------------------------------------- reporting

    def collect(self) -> "Phase":
        """Hand over everything recorded so far and start afresh."""
        phase = Phase(
            names=list(self.names),
            parent=np.array(self.parent, dtype=np.int64),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            counts=dict(self.counts),
            tape=self.tape,
        )
        for buf in (self.parent, self.name, self.start, self.end):
            del buf[:]
        self.counts.clear()
        self.tape = None
        return phase


def wrapper_cost_s(calls: int = 50_000, reps: int = 5) -> tuple:
    """Seconds that one span and one counted call add to the call they wrap,
    timed on a no-op (median of `reps` loops of `calls` calls each)."""

    def noop():
        return None

    tracer = Tracer()
    spanned = tracer._wrap_span(noop, "trace.calibration")
    counted = tracer._count_calls(noop, "trace.calibration")

    def per_call(fn):
        walls = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            walls.append(time.perf_counter() - t0)
            tracer.collect()
        return float(np.median(walls)) / calls

    bare = per_call(noop)
    return per_call(spanned) - bare, per_call(counted) - bare


def _integrate_hook(tracer, args, kwargs):
    state0 = args[1] if len(args) > 1 else kwargs["state0"]
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    members = int(np.prod(state0.q.shape[:-2], dtype=np.int64))
    tracer.counts["integrators.member_steps"] += grid.n_steps * members


def _backward_hook(tracer, args, kwargs):
    if tracer.tape is not None:
        return
    tape = args[0] if args else kwargs["tape"]
    ops = Counter(node.op for node in tape.nodes)
    tracer.tape = {
        "nodes": len(tape.nodes),
        "ops": dict(sorted(ops.items())),
        "value_bytes": int(sum(node.value.nbytes for node in tape.nodes)),
    }


_HOOKS = {
    "integrators.integrate": _integrate_hook,
    "autodiff.backward": _backward_hook,
}


class Phase:
    """The spans and counts of one traced phase (a set-up, or the passes)."""

    def __init__(self, names, parent, name, start, end, counts, tape):
        self.names = names
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counts = counts
        self.tape = tape
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self.self_time = dur - covered

    def ids_named(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name == self.names.index(name))[0]

    def calls(self, name: str) -> int:
        return len(self.ids_named(name))

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.ids_named(name)].sum())

    def total_s(self, name: str) -> float:
        ids = self.ids_named(name)
        return float((self.end[ids] - self.start[ids]).sum())

    def children_of(self, parent_name: str, name: str) -> np.ndarray:
        parents = set(self.ids_named(parent_name).tolist())
        return np.array(
            [i for i in self.ids_named(name) if int(self.parent[i]) in parents],
            dtype=np.int64,
        )

    def step_ms(self) -> list[float]:
        """Training steps: a batch build directly under `train`, through the
        optimizer step that follows it."""
        builds = self.children_of("training.train", "training.build_batch")
        steps = self.children_of("training.train", "training.optimizer_step")
        out = []
        last_build = {}
        events = sorted(
            [(self.start[i], 0, i) for i in builds] + [(self.start[i], 1, i) for i in steps]
        )
        for _, kind, i in events:
            owner = int(self.parent[i])
            if kind == 0:
                last_build[owner] = self.start[i]
            elif owner in last_build:
                out.append(1e3 * (self.end[i] - last_build.pop(owner)))
        return out

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


def layer_metrics(setup: Phase, passes: Phase, n_passes: int, run_s: float) -> tuple:
    """Per-layer figures for one set-up plus one pass: `{name: value}`.

    Additive figures (times and counts) take the traced set-up once and the
    traced passes averaged; per-batch and per-step figures come from the
    passes alone.  A time is given as a share of `run_s`, the traced wall
    time of one set-up plus one pass, so that it reads 0 where a workload
    does not use the layer and does not follow the machine's speed from run
    to run.  Returns the metrics and the absolute seconds behind each share.
    """

    def per_run(f):
        return f(setup) + f(passes) / n_passes

    seconds = {name: per_run(lambda ph: ph.self_s(name)) for name in SELF_PCT}

    # `evaluate` called inside `train`: its own time, and all it costs
    def validate(ph):
        return ph.children_of("training.train", "training.evaluate")

    seconds["training.validate"] = per_run(lambda ph: float(ph.self_time[validate(ph)].sum()))
    totals = {
        "training.validate": per_run(lambda ph: float((ph.end - ph.start)[validate(ph)].sum())),
        "integrators.integrate": per_run(lambda ph: ph.total_s("integrators.integrate")),
    }
    for suite in ("theorem1", "lemma2"):
        totals[f"verify.{suite}"] = per_run(lambda ph: ph.total_s(f"verify.suite.{suite}"))

    out = {f"{name}.calls": per_run(lambda ph: ph.calls(name)) for name in CALLS}
    for key in COUNTED:
        out[key] = per_run(lambda ph: ph.counts.get(key, 0))
    integrate_s = totals["integrators.integrate"]
    out["integrators.member_steps_per_s"] = (
        out["integrators.member_steps"] / integrate_s if integrate_s > 0 else 0.0
    )
    for name, value in seconds.items():
        out[f"{name}.self_pct"] = 100.0 * value / run_s
    for name in ("training.validate", "verify.theorem1", "verify.lemma2"):
        out[f"{name}.total_pct"] = 100.0 * totals[name] / run_s

    tape = passes.tape or {"nodes": 0, "ops": {}, "value_bytes": 0}
    out["autodiff.nodes_per_batch"] = tape["nodes"]
    for op in TAPE_OPS:
        out[f"autodiff.nodes.{op}"] = tape["ops"].get(op, 0)
    out["autodiff.value_mb_per_batch"] = tape["value_bytes"] / 1e6

    steps = passes.step_ms()
    out["training.steps"] = len(steps) / n_passes
    return out, {**{f"{k}.self_s": v for k, v in seconds.items()},
                 **{f"{k}.total_s": v for k, v in totals.items()}}


def overhead_pct(setup: Phase, passes: Phase, n_passes: int, run_s: float) -> float:
    """What the wrappers cost, as a share of the rest of `run_s`: the spans
    and counted calls of one set-up plus one pass, times the cost of one of
    each timed now."""
    span_s, count_s = wrapper_cost_s()
    counted_keys = [key for *_, key in COUNTS] + ["model.field_evals"]

    def per_run(f):
        return f(setup) + f(passes) / n_passes

    spans = per_run(lambda ph: len(ph.start))
    counted = per_run(lambda ph: sum(ph.counts.get(key, 0) for key in counted_keys))
    cost = spans * span_s + counted * count_s
    return 100.0 * cost / (run_s - cost)


def step_percentiles(passes: Phase) -> dict:
    """Training step time at the median and at the highest percentile with
    at least ten steps beyond it, in ms; empty where there are no steps."""
    steps = passes.step_ms()
    return {
        f"training.step_ms.p{q}": float(np.percentile(steps, q))
        for q, min_steps in STEP_PERCENTILES
        if len(steps) >= min_steps
    }
