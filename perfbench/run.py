"""Benchmark of shadowbilliards: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tube_eps --seed 3 --seconds 20 --trace 0

--trace 0 runs the pipeline in fresh worker processes, one at a time, until
--seconds would be exceeded (at least once), and reports the end-to-end
metrics as medians over those processes. --trace 1 runs the pipeline once
untraced and twice traced, and reports the per-layer metrics. The last line
of standard output is one JSON object; the lines before it and
.perfbench_work/<workload>-seed<n>-trace<t>/result.json hold the sample
counts, every check with its reason, the seeded inputs and provenance.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5          # set-up samples per run; set-up-only processes fill up
RUN_BUDGET_S = 170.0    # every process of one run ends within this
BLAS_THREADS = "1"      # explicit, and never above nproc


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(args, run_dir: Path, tag: str, deadline: float, pipeline=False, trace=False):
    """Run one worker to completion; returns its result with setup_wall_s added."""
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--inputs", str(run_dir / "inputs"), "--result", str(result)]
    if pipeline:
        out = run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        cmd += ["--pipeline", str(out)]
    if trace:
        cmd += ["--trace", str(run_dir / f"{tag}.spans.json")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"{tag}: no time left in the run budget")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{tag}: killed after the {RUN_BUDGET_S:.0f} s run budget")
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise WorkerFailed(f"{tag}: worker exited {proc.returncode}: {last}")
    data = json.loads(result.read_text())
    data["setup_wall_s"] = data["ready_monotonic"] - start
    return data


def _provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: BLAS_THREADS for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _checks(runs, failures):
    """All checks of the worker runs plus worker failures, as (name, ok, detail)."""
    out = [(c["name"], c["ok"], c["detail"]) for r in runs for c in r["checks"]]
    return out + [("worker finished", False, reason) for reason in failures]


def measure(args, run_dir: Path, deadline: float):
    """Untraced run: end-to-end metrics, medians over fresh processes."""
    runs, failures, setups = [], [], []     # setups: (CPU s, wall s) per process
    start = time.monotonic()
    while True:
        try:
            r = _spawn(args, run_dir, f"iter{len(runs) + len(failures)}", deadline,
                       pipeline=True)
            runs.append(r)
            setups.append((r["setup_cpu_s"], r["setup_wall_s"]))
        except WorkerFailed as exc:
            failures.append(str(exc))
            break
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(runs)) > args.seconds:
            break
    while runs and len(setups) < MIN_SETUPS:
        try:
            r = _spawn(args, run_dir, f"setup{len(setups)}", deadline)
            setups.append((r["setup_cpu_s"], r["setup_wall_s"]))
        except WorkerFailed as exc:
            failures.append(str(exc))
            break
    if not runs:
        return None, _checks(runs, failures), {}
    checks = _checks(runs, failures)
    passed = sum(ok for _, ok, _ in checks)
    metrics = {
        "setup_s": (statistics.median(c for c, _ in setups), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "pass_share": (passed / len(checks), "share"),
    }
    samples = {"setup_s": len(setups), "cpu_s": len(runs), "peak_rss_mb": len(runs),
               "pass_share": len(checks)}
    # Wall times are kept but not gated: on a shared host they include CPU
    # steal, which the process's CPU time leaves out.
    ungated = {"wall_s": statistics.median(r["wall_s"] for r in runs),
               "setup_wall_s": statistics.median(w for _, w in setups)}
    extra = {"samples": samples, "ungated": ungated, "raw": {
        "setup_s": [c for c, _ in setups], "setup_wall_s": [w for _, w in setups],
        "wall_s": [r["wall_s"] for r in runs], "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs]},
        "notes": [r["notes"] for r in runs]}
    return metrics, checks, extra


def trace(args, run_dir: Path, deadline: float):
    """Traced run: per-layer metrics, the bypass self-test and counter repeat."""
    try:
        plain = _spawn(args, run_dir, "untraced", deadline, pipeline=True)
        traced = [_spawn(args, run_dir, f"traced{i}", deadline, pipeline=True, trace=True)
                  for i in range(2)]
    except WorkerFailed as exc:
        return None, _checks([], [str(exc)]), {}
    checks = _checks([plain] + traced, [])
    s0, s1 = (t["trace"] for t in traced)
    differ = sorted(k for part in ("calls", "counters", "child_calls")
                    for k in set(s0[part]) | set(s1[part])
                    if s0[part].get(k) != s1[part].get(k))
    checks.append(("work counters repeat across two traced runs", not differ,
                   f"differ: {differ}"))
    layer0, layer1 = tracing.layer_metrics(s0), tracing.layer_metrics(s1)
    active = workloads.ACTIVE[args.workload]
    for probe in workloads.BYPASS_PROBES:
        _, value, absent = layer0[probe]
        if absent:
            continue
        if probe in active:
            checks.append((f"self-test: {probe} >= 1", value >= 1, str(value)))
        else:
            checks.append((f"self-test: {probe} == 0 (bypassed)", value == 0, str(value)))
    metrics = {}
    for name, (unit, value, _) in layer0.items():
        if unit == "s":
            value = statistics.median([value, layer1[name][1]])
        metrics[name] = (value, unit)
    overhead = statistics.median(t["wall_s"] for t in traced) - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    absent = sorted(n for n, (_, _, a) in layer0.items() if a)
    extra = {"absent": absent, "absent_targets": s0["absent"], "summary": s0,
             "wall_s": {"untraced": plain["wall_s"], "traced": [t["wall_s"] for t in traced]},
             "spans": [str(run_dir / f"traced{i}.spans.json") for i in range(2)]}
    return metrics, checks, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PIPELINES))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "shadowbilliards" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    params = workloads.MAKE[args.workload](np.random.default_rng(args.seed),
                                           run_dir / "inputs")
    params["seed"] = args.seed
    (run_dir / "inputs" / "params.json").write_text(json.dumps(params, indent=2) + "\n")

    metrics, checks, extra = (trace if args.trace else measure)(args, run_dir, deadline)
    failed = [(n, d) for n, ok, d in checks if not ok]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": params, "provenance": _provenance(),
              "metrics": metrics, "checks": checks, **extra}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(params)}")
    for name, detail in failed:
        print(f"FAILED {name}: {detail}")
    if metrics is None:
        print("perfbench: no pipeline run finished", file=sys.stderr)
        return 1
    if extra.get("samples"):
        print("samples " + json.dumps(extra["samples"]))
        print("ungated medians " + json.dumps(extra["ungated"]))
    if extra.get("absent"):
        print("absent " + json.dumps(extra["absent"]))
    print(json.dumps({
        "correct": not failed, "attempted": len(checks), "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
