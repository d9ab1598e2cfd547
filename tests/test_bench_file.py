"""tools/bench_file.py: perfbench result files of two checkouts into one BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parent.parent / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_file)


def fake_checkout(root: Path, lines: int):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "m.py").write_text("x = 1\n" * lines)
    return root


def fake_result(checkout: Path, sha: str, trace: int, metrics: dict):
    d = checkout / ".perfbench_work" / f"tube_eps-seed31-trace{trace}"
    d.mkdir(parents=True, exist_ok=True)
    units = {"setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "pass_share": "share",
             "blocktri.solve.calls": "count"}
    (d / "result.json").write_text(json.dumps({
        "workload": "tube_eps", "seed": 31, "trace": trace, "seconds": 30.0,
        "metrics": {k: [v, units[k]] for k, v in metrics.items()},
        "checks": [["slope", True, ""], ["gates", True, ""]],
        "provenance": {"git_sha": sha, "python": "3.11", "numpy": "2", "scipy": "1",
                       "nproc": 2, "affinity": 2, "blas_threads": {}, "machine": "x86_64"},
    }))


def test_medians_quartiles_and_pair_wins(tmp_path):
    parent = fake_checkout(tmp_path / "parent", 10)
    change = fake_checkout(tmp_path / "change", 7)
    log = tmp_path / "runs.jsonl"
    cpu = {"parent": [1.4, 1.5, 1.45, 1.6], "change": [0.45, 0.4, 1.7, 0.42]}
    for k in range(4):
        for side, root, sha in (("parent", parent, "aaa"), ("change", change, "bbb")):
            fake_result(root, sha, 0, {"setup_s": 0.5, "cpu_s": cpu[side][k],
                                       "peak_rss_mb": 70.0, "pass_share": 1.0})
            assert bench_file.main(["append", "--log", str(log), "--side", side,
                                    "--checkout", str(root), "--workload", "tube_eps",
                                    "--seed", "31"]) == 0
    for side, root, sha, calls in (("parent", parent, "aaa", 262), ("change", change, "bbb", 8)):
        fake_result(root, sha, 1, {"blocktri.solve.calls": calls})
        bench_file.main(["append", "--log", str(log), "--side", side, "--checkout", str(root),
                         "--workload", "tube_eps", "--seed", "31", "--trace", "1"])
    out = tmp_path / "BENCH.json"
    assert bench_file.main(["write", "--log", str(log), "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["sides"]["parent"]["src_lines"] == 10
    assert bench["sides"]["change"]["git_sha"] == "bbb"
    e2e = bench["workloads"]["tube_eps"]["end_to_end"]
    assert e2e["cpu_s"]["parent"]["median"] == pytest.approx(1.475)
    assert e2e["cpu_s"]["change"]["median"] == pytest.approx(0.435)
    assert e2e["cpu_s"]["change_better_in"] == 3 and e2e["cpu_s"]["pairs"] == 4
    assert e2e["cpu_s"]["within_bound"]
    assert e2e["pass_share"]["ties"] == 4 and e2e["pass_share"]["change_better_in"] == 0
    layer = bench["workloads"]["tube_eps"]["per_layer"]
    assert layer["blocktri.solve.calls"] == {"unit": "count", "parent": 262, "change": 8}


def test_runs_of_two_checkouts_on_one_side_are_refused(tmp_path):
    a = fake_checkout(tmp_path / "a", 3)
    b = fake_checkout(tmp_path / "b", 3)
    log = tmp_path / "runs.jsonl"
    for root, sha, side in ((a, "aaa", "parent"), (b, "bbb", "parent"), (b, "bbb", "change")):
        fake_result(root, sha, 0, {"setup_s": 0.5, "cpu_s": 1.0, "peak_rss_mb": 70.0,
                                   "pass_share": 1.0})
        bench_file.main(["append", "--log", str(log), "--side", side, "--checkout", str(root),
                         "--workload", "tube_eps", "--seed", "31"])
    assert bench_file.main(["write", "--log", str(log), "--out", str(tmp_path / "B.json")]) == 1
