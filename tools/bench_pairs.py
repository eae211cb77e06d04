#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark harness, summarised.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload simulate --pairs 10 --seed 34101 --label spring_rate

Pair i (from 1) runs `benchmarks/run.py --workload <w> --seed <seed + i - 1>
--seconds 20 --trace 0` in both checkouts, the parent first when i is odd,
with the same seed on both sides.  Each run's exit code, operation counts,
metrics, notes and digests go into `BENCH_<label>.json` in the current
directory under `end_to_end.<workload>`, with a summary per metric: both
sides' medians and quartiles, the change/parent ratio of the medians, in
how many pairs the change was better (ties count for neither), whether
that shows a gain, and the metric's verdict against its bound from the
change's BENCHMARK.json.  A file that exists already keeps its other
workloads, so one label collects a run of each workload.  A run that prints
no result line ends the series: the file is written from the pairs
completed before it, with the failed run's exit code and the last line of
its stderr under `failed_run`, and the script exits 1.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """One harness run's printed record: the JSON last line (correct,
    attempted, failed, metrics) plus its `digest` and `note` lines."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    run = json.loads(lines[-1])
    run["metrics"] = {name: m["value"] for name, m in run["metrics"].items()}
    run["digests"], run["notes"] = {}, {}
    for line in lines[:-1]:
        if line.startswith("digest "):
            _, key, value = line.split(" ", 2)
            run["digests"][key] = value
        elif line.startswith("note ") and ": " in line:
            key, value = line[len("note "):].split(": ", 1)
            try:
                run["notes"][key] = json.loads(value)
            except ValueError:
                run["notes"][key] = value
    return run


def quartiles(values: list) -> list:
    """[q1, median, q3], inclusive method; one value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, med, q3 = quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize_metric(parent: list, change: list, better: str, bound=None) -> dict:
    """Both sides' runs in pair order, their quartiles, the change/parent
    median ratio and the pairs in which the change was strictly better.

    `gain` holds when the change won at least nine tenths of the pairs and
    its median beats the parent's by more than the parent's interquartile
    range.  `verdict` weighs the median ratio against the bound: "beyond
    bound" when it is worse by more; else "unresolved" when the parent's IQR
    is wider than the bound times its median, unless every change run beats
    every parent run; else "within bound"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    p_iqr = p_q[2] - p_q[0]
    summary = {
        "parent_runs": parent, "change_runs": change,
        "parent_q1_med_q3": p_q, "change_q1_med_q3": c_q,
        "ratio": c_q[1] / p_q[1] if p_q[1] else None, "better": better,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "gain": wins >= 0.9 * len(parent) and sign * (c_q[1] - p_q[1]) > p_iqr,
    }
    if bound is not None and summary["ratio"] is not None:
        summary["bound"] = bound
        if sign * (summary["ratio"] - 1.0) < -bound:
            summary["verdict"] = "beyond bound"
        elif p_iqr > bound * abs(p_q[1]) and not all(
                sign * (c - p) > 0 for p in parent for c in change):
            summary["verdict"] = "unresolved"
        else:
            summary["verdict"] = "within bound"
    return summary


def summarize(runs: dict, seeds: list, metric_specs: list) -> dict:
    """The record of one workload's pairs: `runs` maps each side to its
    parsed runs (plus `exit_code`) in pair order."""
    parent, change = runs["parent"], runs["change"]
    record = {
        "pairs": len(seeds), "seeds": seeds,
        "exit_codes": {side: [r["exit_code"] for r in runs[side]] for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "digests_equal_on_every_run": all(
            p["digests"] == c["digests"] for p, c in zip(parent, change)),
        "runs": runs,
    }
    for spec in metric_specs:
        name = spec["name"]
        if parent and all(name in r["metrics"] for r in parent + change):
            record[name] = summarize_metric(
                [r["metrics"][name] for r in parent], [r["metrics"][name] for r in change],
                spec["better"], spec.get("bound"))
    return record


class RunFailed(Exception):
    """A harness run that printed no result line; `args[0]` is its record."""


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        run = parse_run(proc.stdout)
    except ValueError as exc:
        stderr = proc.stderr.strip().splitlines()
        raise RunFailed({"exit_code": proc.returncode, "error": str(exc),
                         "stderr_last_line": stderr[-1] if stderr else ""}) from None
    run["exit_code"] = proc.returncode
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int, help="seed of pair 1")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seeds, failed = [], None
    runs = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        seed, order, pair = args.seed + i - 1, SIDES if i % 2 else SIDES[::-1], {}
        try:
            for side in order:
                pair[side] = run_once(checkouts[side], args.workload, seed)
        except RunFailed as exc:
            failed = {"pair": i, "seed": seed, "side": side, **exc.args[0]}
            print(f"error: {side} run of pair {i} (seed {seed}) printed no result: "
                  f"exit {failed['exit_code']}, {failed['stderr_last_line']}", file=sys.stderr)
            break
        seeds.append(seed)
        for side in order:
            runs[side].append(pair[side])
        print(f"pair {i}/{args.pairs} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics'].get('items_per_ref')}" for side in order))

    path = Path(f"BENCH_{args.label}.json")
    bench = json.loads(path.read_text()) if path.is_file() else {"label": args.label}
    bench["harness"] = ("python3 benchmarks/run.py --workload <w> --seed <seed> "
                        "--seconds 20 --trace 0")
    record = summarize(runs, seeds, declared["end_to_end"])
    if failed:
        record["failed_run"] = failed
    bench.setdefault("end_to_end", {})[args.workload] = record
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
