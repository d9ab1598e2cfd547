"""One fresh benchmark process: set up, optionally run one pipeline, report.

Usage (run.py starts it; the package source must be on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --inputs DIR --result FILE
        [--pipeline OUT_DIR [--trace SPANS_FILE]]

Without --pipeline the process only sets up. The result file records the
CPU time the process used from its start to ready-to-solve, and the
monotonic clock at that moment (so the parent can also take the wall time
from process start); then the pipeline's wall time, CPU time, peak RSS,
checks and (traced) per-layer summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import workloads


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PIPELINES))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--pipeline", type=Path)
    ap.add_argument("--trace", type=Path)
    args = ap.parse_args()

    import shadowbilliards.cli  # noqa: F401  (set-up covers the package import)

    tracer = None
    if args.trace is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ctx = workloads.setup(args.workload, args.inputs)
    ready = time.monotonic()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {"ready_monotonic": ready, "setup_cpu_s": ru.ru_utime + ru.ru_stime}
    if args.pipeline is not None:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        checks = workloads.PIPELINES[args.workload](ctx, args.pipeline)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        result.update({
            "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
            "notes": ctx.get("notes", {}),
        })
        if tracer is not None:
            tracer.uninstall()
            tracer.counters["cli.bytes_written"] = sum(
                f.stat().st_size for f in args.pipeline.rglob("*") if f.is_file())
            tracer.write_spans(args.trace)
            result["trace"] = tracer.summary()
    args.result.write_text(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
