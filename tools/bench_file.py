"""Collect perfbench results of two checkouts into one BENCH_<n>.json file.

perfbench (python3 perfbench/run.py, see perfbench/README.md) leaves the
result of its last run of a workload in
<checkout>/.perfbench_work/<workload>-seed<s>-trace<t>/result.json. This
script copies what a speed claim needs from those files, using the standard
library only:

    # after each perfbench run, in the order the runs were made
    python3 tools/bench_file.py append --log runs.jsonl --side parent \\
        --checkout ../parent --workload tube_eps --seed 31 --trace 0
    # once every run is logged
    python3 tools/bench_file.py write --log runs.jsonl --out BENCH_6.json

`write` gives, per workload and side, the median and quartiles of every
end-to-end metric of BENCHMARK.json over the untraced runs, how many pairs
(the k-th parent run against the k-th change run) the change won on each,
whether the change's median is within the metric's bound of the parent's,
the per-layer metrics of the traced runs (work counts and self times), and
the git sha, machine, library versions and src/ line count of each
checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
ROOT = Path(__file__).resolve().parent.parent


def src_lines(checkout: Path) -> int:
    """Lines of the package's Python sources under src/."""
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src").rglob("*.py")))


def git_sha(checkout: Path, recorded):
    if recorded:
        return recorded
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def append(args) -> int:
    checkout = Path(args.checkout).resolve()
    path = (checkout / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
            / "result.json")
    result = json.loads(path.read_text())
    prov = result["provenance"]
    entry = {
        "side": args.side, "workload": result["workload"], "seed": result["seed"],
        "trace": result["trace"], "seconds": result["seconds"],
        "metrics": {name: value for name, (value, _unit) in result["metrics"].items()},
        "units": {name: unit for name, (_value, unit) in result["metrics"].items()},
        "failed": [name for name, ok, _ in result["checks"] if not ok],
        "attempted": len(result["checks"]),
        "git_sha": git_sha(checkout, prov.get("git_sha")),
        "src_lines": src_lines(checkout),
        "provenance": prov,
    }
    with open(args.log, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"{args.side} {entry['workload']} seed {entry['seed']} trace {entry['trace']}: "
          + ", ".join(f"{k}={v:.4g}" for k, v in entry["metrics"].items()
                      if entry["units"][k] != "count" or entry["trace"]))
    return 0


def summary(values):
    """Median, quartiles (statistics.quantiles, exclusive method) and count."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "runs": values}


def write(args) -> int:
    entries = [json.loads(line) for line in Path(args.log).read_text().splitlines() if line]
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bench = {"sides": {}, "workloads": {}}
    for side in SIDES:
        mine = [e for e in entries if e["side"] == side]
        if not mine:
            print(f"bench_file: no {side} runs in {args.log}", file=sys.stderr)
            return 1
        shas = sorted({str(e["git_sha"]) for e in mine})
        lines = sorted({e["src_lines"] for e in mine})
        if len(shas) > 1 or len(lines) > 1:
            print(f"bench_file: {side} runs come from more than one checkout: {shas}",
                  file=sys.stderr)
            return 1
        prov = mine[0]["provenance"]
        bench["sides"][side] = {
            "git_sha": mine[0]["git_sha"], "src_lines": lines[0],
            "python": prov["python"], "numpy": prov["numpy"], "scipy": prov["scipy"],
            "nproc": prov["nproc"], "affinity": prov["affinity"],
            "blas_threads": prov["blas_threads"], "machine": prov["machine"],
        }
    bench["host"] = {"platform": platform.platform(), "processor": platform.processor()}

    for workload in sorted({e["workload"] for e in entries}):
        runs = {s: [e for e in entries if e["workload"] == workload and e["side"] == s]
                for s in SIDES}
        out = {}
        untraced = {s: [e for e in runs[s] if e["trace"] == 0] for s in SIDES}
        if all(untraced.values()):
            pairs = list(zip(untraced["parent"], untraced["change"]))
            end_to_end = {}
            for metric in gated:
                name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
                wins = sum(sign * (c["metrics"][name] - p["metrics"][name]) < 0
                           for p, c in pairs)
                ties = sum(c["metrics"][name] == p["metrics"][name] for p, c in pairs)
                sides = {s: summary([e["metrics"][name] for e in untraced[s]]) for s in SIDES}
                worse = sign * (sides["change"]["median"] - sides["parent"]["median"])
                end_to_end[name] = {
                    **metric, **sides, "pairs": len(pairs), "change_better_in": wins,
                    "ties": ties,
                    "within_bound": worse <= metric["bound"] * abs(sides["parent"]["median"]),
                }
            out["end_to_end"] = end_to_end
            out["seeds"] = sorted({e["seed"] for s in SIDES for e in untraced[s]})
            out["seconds"] = sorted({e["seconds"] for s in SIDES for e in untraced[s]})
            out["failed_checks"] = {s: sum(len(e["failed"]) for e in untraced[s])
                                    for s in SIDES}
        traced = {s: [e for e in runs[s] if e["trace"] == 1] for s in SIDES}
        if all(traced.values()):
            last = {s: traced[s][-1] for s in SIDES}
            out["per_layer"] = {
                "seed": {s: last[s]["seed"] for s in SIDES},
                **{name: {"unit": unit, **{s: last[s]["metrics"].get(name) for s in SIDES}}
                   for name, unit in last["parent"]["units"].items()},
            }
        bench["workloads"][workload] = out
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {', '.join(bench['workloads'])}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_app = sub.add_parser("append", help="log the last perfbench result of a checkout")
    p_app.add_argument("--log", required=True)
    p_app.add_argument("--side", required=True, choices=SIDES)
    p_app.add_argument("--checkout", required=True)
    p_app.add_argument("--workload", required=True)
    p_app.add_argument("--seed", required=True, type=int)
    p_app.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_wr = sub.add_parser("write", help="summarize a log into a BENCH file")
    p_wr.add_argument("--log", required=True)
    p_wr.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    return append(args) if args.cmd == "append" else write(args)


if __name__ == "__main__":
    sys.exit(main())
