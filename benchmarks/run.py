#!/usr/bin/env python3
"""Benchmark for revode: one workload per run, from any working directory.

    python3 benchmarks/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

An untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
(`--trace 1`) wraps the package's functions in timing spans and reports the
per-layer metrics and the tracing overhead.  Every workload reports every
metric of its mode.  Each run prints the environment,
its output digests and one line per metric with its unit, then, as the last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`.  It
exits 0 when every output check passed and 1 otherwise.  A run writes only
under `benchmarks/out/`: its result file, the spans of a traced run, and
scratch files it removes again.

The package is imported from `src/` next to this directory, by absolute path;
without it the run stops with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("simulate", "train_desk", "train_graph", "verify")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Set-up runs this many times; setup_s is the median.
SETUP_REPS = 5
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ref": "ref",
    "items_per_ref": "items/ref",
}


def pin_threads():
    """One BLAS/OpenMP thread; must run before NumPy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def locate_package() -> Path:
    """Put this checkout's `src/` first on the path and import revode from it."""
    init = SRC_DIR / "revode" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no revode package at {init.parent}; run from a full checkout")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import revode

    if Path(revode.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: revode was imported from {revode.__file__}, not {init}")
    return init.parent


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        # informational: the size of the package under test
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC_DIR / "revode").glob("*.py"))
        ),
        "code_sha256": code_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def warm_up(workload, state, out):
    """One pass whose samples are dropped: the first pass after set-up pays
    for fresh memory (up to 1.3 GB on `train_graph`).  It is checked like
    the others, and it is pass 0, so the passes measured start at 1."""
    workload.run_pass(state, 0, out)
    for name in ("pass_s", "items_per_s", "pass_ref", "items_per_ref"):
        out.samples.pop(name, None)


def measure(workload, state, seconds, out) -> list:
    """Closed loop: passes back to back until `seconds` have elapsed (at least one)."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.run_pass(state, len(walls) + 1, out)
        walls.append(time.perf_counter() - t0)
    return walls


def untraced_metrics(workload, seed, seconds, workdir, out) -> dict:
    setup_s = out.samples["setup_s"] = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)
    warm_up(workload, state, out)
    measure(workload, state, seconds, out)
    values = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss_mb()}
    if not out.samples.get("pass_s"):
        raise SystemExit("error: every pass failed, so there is nothing to report")
    for name in ("pass_ref", "items_per_ref"):
        values[name] = median(out.samples[name])
    out.notes["passes"] = len(out.samples["pass_s"])
    out.notes["median pass_s"] = median(out.samples["pass_s"])
    out.notes["median items_per_s"] = median(out.samples["items_per_s"])
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced_metrics(workload, seed, seconds, workdir, out) -> dict:
    """One traced set-up, then traced passes for `seconds`.  Spans are
    written to `out/spans-<workload>.npz`."""
    import numpy as np
    from tracing import PER_LAYER, Tracer, layer_metrics, overhead_pct, step_percentiles

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        state = workload.setup(seed, workdir)
    setup_wall = time.perf_counter() - t0
    setup_phase = tracer.collect()
    warm_up(workload, state, out)
    with tracer.installed():
        traced_walls = measure(workload, state, seconds, out)
    pass_phase = tracer.collect()

    n = len(traced_walls)
    run_s = setup_wall + sum(traced_walls) / n
    values, seconds_behind = layer_metrics(setup_phase, pass_phase, n, run_s)
    values["data.dataset_bytes"] = median(out.layer.get("data.dataset_bytes", [0]))
    values["trace.overhead_pct"] = overhead_pct(setup_phase, pass_phase, n, run_s)
    out.notes["traced passes"] = n
    out.notes.update(step_percentiles(pass_phase))
    out.samples["layer_seconds"] = seconds_behind
    np.savez(
        OUT_DIR / f"spans-{workload.name}.npz",
        **{f"{label}_{key}": value
           for label, phase in (("setup", setup_phase), ("passes", pass_phase))
           for key, value in phase.arrays().items()},
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "revode").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_other_mode(workload, seed, trace, out):
    """A traced and an untraced run of the same seed and code must produce the
    same outputs; compare with the other mode's result file if there is one."""
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{1 - trace}.json"
    if not path.is_file():
        return
    other = json.loads(path.read_text())
    if other["environment"]["code_sha256"] != code_digest():
        return
    theirs = other["digests"]
    for key, value in out.digests.items():
        if key in theirs and theirs[key] != value:
            out.fail(1, f"digest {key} differs from the --trace {1 - trace} run of this seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_threads()
    t0 = time.perf_counter()
    package = locate_package()
    import_s = time.perf_counter() - t0
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = {**environment(), "revode": str(package), "import_s": import_s}
    out = workloads.Outcome(reference=None if args.trace else workload.reference)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        run_mode = traced_metrics if args.trace else untraced_metrics
        metrics = run_mode(workload, args.seed, args.seconds, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    compare_with_other_mode(args.workload, args.seed, args.trace, out)

    correct = out.failed == 0 and not out.problems
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "digests": out.digests,
        "problems": out.problems, "notes": out.notes,
        "samples": out.samples, **result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, value in out.digests.items():
        print(f"digest {key} {value}")
    for key, value in out.notes.items():
        print(f"note {key}: {value}")
    for problem in out.problems:
        print(f"FAILED {problem}")
    print(f"operations attempted {out.attempted}, failed {out.failed}")
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value!r} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
