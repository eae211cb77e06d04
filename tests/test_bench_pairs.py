"""The pairs driver's parsing and summary, on canned harness output; no
harness run is started."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def canned(items_per_ref, setup_s, digest="ab12", failed=0):
    """The tail of what `benchmarks/run.py --trace 0` prints."""
    result = {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                    "items_per_ref": {"value": items_per_ref, "unit": "items/ref"}},
    }
    return "\n".join([
        "workload simulate  seed 3  trace 0",
        "env python: 3.11.7",
        f"digest set_0 {digest}",
        "digest set_1 cd34",
        "note passes: 120",
        "note median pass_s: 0.125",
        "note mode: untraced",
        f"operations attempted 10, failed {failed}",
        f"metric setup_s = {setup_s!r} s",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_json_line_digests_and_notes():
    run = bench_pairs.parse_run(canned(0.9, 0.05))
    assert run["correct"] and run["attempted"] == 10 and run["failed"] == 0
    assert run["metrics"] == {"setup_s": 0.05, "items_per_ref": 0.9}
    assert run["digests"] == {"set_0": "ab12", "set_1": "cd34"}
    assert run["notes"] == {"passes": 120, "median pass_s": 0.125, "mode": "untraced"}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("")


def test_summary_of_canned_pairs():
    parent = [0.8, 0.9, 1.0, 0.85, 0.95]
    change = [1.0, 0.9, 1.1, 1.05, 0.9]
    setup_p = [0.05, 0.06, 0.05, 0.07, 0.05]
    setup_c = [0.04, 0.06, 0.06, 0.05, 0.05]
    runs = {
        "parent": [dict(bench_pairs.parse_run(canned(v, s)), exit_code=0)
                   for v, s in zip(parent, setup_p)],
        "change": [dict(bench_pairs.parse_run(canned(v, s, digest="ab12" if i else "ff00")),
                        exit_code=0) for i, (v, s) in enumerate(zip(change, setup_c))],
    }
    specs = [{"name": "setup_s", "better": "lower", "bound": 0.25},
             {"name": "items_per_ref", "better": "higher", "bound": 0.25},
             {"name": "pass_ref", "better": "lower", "bound": 0.25}]
    record = bench_pairs.summarize(runs, [7, 8, 9, 10, 11], specs)
    assert record["pairs"] == 5 and record["seeds"] == [7, 8, 9, 10, 11]
    assert record["exit_codes"] == {"parent": [0] * 5, "change": [0] * 5}
    assert record["attempted"] == {"parent": 50, "change": 50}
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["digests_equal_on_every_run"] is False  # pair 1's set_0 differs
    assert "pass_ref" not in record  # no run reported it

    items = record["items_per_ref"]
    assert items["parent_runs"] == parent and items["change_runs"] == change
    assert items["parent_q1_med_q3"] == pytest.approx([0.85, 0.9, 0.95])
    assert items["change_q1_med_q3"] == pytest.approx([0.9, 1.0, 1.05])
    assert items["ratio"] == pytest.approx(1.0 / 0.9)
    assert items["change_better_pairs"] == "3/5"  # pair 2 ties, pair 5 is worse
    assert items["verdict"] == "within bound" and items["bound"] == 0.25
    assert not items["gain"]  # 3 of 5 pairs

    setup = record["setup_s"]
    assert setup["change_better_pairs"] == "2/5"  # lower is better; two ties
    assert setup["ratio"] == pytest.approx(1.0) and setup["verdict"] == "within bound"
    slower = bench_pairs.summarize_metric([1.0, 1.0], [1.3, 1.3], "lower", 0.25)
    assert slower["ratio"] == pytest.approx(1.3) and slower["verdict"] == "beyond bound"
    assert bench_pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent IQR 0.02 s on a 0.05 s median: 40% against a 25% bound
    parent = [0.038, 0.05, 0.062, 0.04, 0.06]
    overlapping = [0.035, 0.04, 0.045, 0.048, 0.042]  # 0.048 s loses to 0.038 s
    summary = bench_pairs.summarize_metric(parent, overlapping, "lower", 0.25)
    assert summary["parent_q1_med_q3"] == pytest.approx([0.04, 0.05, 0.06])
    assert summary["verdict"] == "unresolved" and not summary["gain"]
    # every change run beats every parent run: resolved, though not a gain,
    # as the medians differ by 0.018 s against the parent's 0.02 s IQR
    apart = [0.03, 0.031, 0.032, 0.033, 0.034]
    summary = bench_pairs.summarize_metric(parent, apart, "lower", 0.25)
    assert summary["verdict"] == "within bound" and not summary["gain"]
    assert summary["change_better_pairs"] == "5/5"
    # a median worse by more than the bound is beyond it, whatever the spread
    worse = bench_pairs.summarize_metric(parent, [0.07] * 5, "lower", 0.25)
    assert worse["ratio"] == pytest.approx(1.4) and worse["verdict"] == "beyond bound"


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    parent = [0.88, 0.87, 0.89, 0.88, 0.86, 0.87, 0.88, 0.90, 0.87, 0.88]
    change = [v + 0.13 for v in parent[:9]] + [0.85]  # pair 10 is worse
    summary = bench_pairs.summarize_metric(parent, change, "higher", 0.25)
    assert summary["change_better_pairs"] == "9/10" and summary["gain"]
    assert summary["verdict"] == "within bound"
    change[8] = 0.80  # 8 of 10
    assert not bench_pairs.summarize_metric(parent, change, "higher", 0.25)["gain"]
    close = [v + 0.005 for v in parent]  # 10/10, but inside the parent's IQR
    summary = bench_pairs.summarize_metric(parent, close, "higher", 0.25)
    assert summary["change_better_pairs"] == "10/10" and not summary["gain"]


def test_a_run_without_a_result_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys):
    """The change's run in pair 3 prints no result line: the series ends,
    writes BENCH_<label>.json from pairs 1 and 2 with that run's exit code
    and last stderr line, and exits 1.  The harness is never started."""
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for path in checkouts.values():
        path.mkdir()
    declared = {"end_to_end": [{"name": "items_per_ref", "better": "higher", "bound": 0.25}]}
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(declared))
    started = []

    def run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        started.append((Path(cwd).name, seed))
        if started[-1] == ("change", 12):
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback\nMemoryError: boom\n")
        return subprocess.CompletedProcess(cmd, 0, canned(1.0 + 0.1 * seed, 0.05), "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.chdir(tmp_path)
    argv = ["--parent", "parent", "--change", "change", "--workload", "simulate",
            "--pairs", "4", "--seed", "10", "--label", "cut"]
    assert bench_pairs.main(argv) == 1
    assert started == [("parent", 10), ("change", 10), ("change", 11), ("parent", 11),
                       ("parent", 12), ("change", 12)]
    assert "exit 1, MemoryError: boom" in capsys.readouterr().err
    record = json.loads((tmp_path / "BENCH_cut.json").read_text())["end_to_end"]["simulate"]
    assert record["pairs"] == 2 and record["seeds"] == [10, 11]
    assert record["exit_codes"] == {"parent": [0, 0], "change": [0, 0]}
    assert record["items_per_ref"]["parent_runs"] == pytest.approx([2.0, 2.1])
    assert record["failed_run"] == {
        "pair": 3, "seed": 12, "side": "change", "exit_code": 1,
        "error": "the run printed nothing", "stderr_last_line": "MemoryError: boom"}
