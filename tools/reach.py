"""List the lines of src/ that no shipped run reaches.

    python3 tools/reach.py

Runs, in this process and with a line tracer on (`sys.settrace`, and
`threading.settrace` for the threads a run starts): the five shipped
scenarios (`scenario run` of each file in scenarios/ at --seed 0), the four
perfbench pipelines on their seed-0 inputs (perfbench/workloads.py is read,
never edited) and the acceptance gate tests/test_acceptance.py. Then it
prints, per module of the package, the executable lines inside functions
that none of them reached, with their text, and the counts. A line is
executable when the compiled function has an instruction on it (its
prologue up to RESUME, which fires no line event, not counted); module and
class bodies run at import and are not counted. A listed line marked E is an
error path or a gate-failure line: it lies in a raise statement, an except
handler or a failures.append(...) call, found by AST so that a statement's
continuation lines count with it. Each module's count and the total also
give the unreached lines that are not. Everything written goes to
a temporary directory, and what the runs print goes to standard error. The
tracer makes the runs several times slower, and the acceptance tests'
runtime budgets may fail under it; the reach is counted either way.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import json
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowbilliards"
SEED = 0


def executable_lines(path: Path) -> set:
    """Line numbers of a module's in-function instructions, prologue left out."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if not code.co_flags & 0x1:          # CO_OPTIMIZED: a function body
            continue
        body = False
        for ins in dis.get_instructions(code):
            if body and ins.positions.lineno is not None:
                lines.add(ins.positions.lineno)
            body = body or ins.opname == "RESUME"
    return lines


def error_lines(path: Path) -> set:
    """Line numbers of a module's error paths and gate-failure lines: every
    line of a raise statement, of an except handler (its clause and body) and
    of a failures.append(...) call."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        gate = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "failures")
        if gate or isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _tracer(hits: set):
    files = {str(p) for p in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return call


def _runs(tmp: Path):
    from shadowbilliards import cli
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        out = tmp / "scenarios" / scenario.stem
        rc = cli.main(["scenario", "run", "--scenario", str(scenario), "--out", str(out),
                       "--seed", str(SEED)])
        print(f"scenario {scenario.stem}: exit {rc}", file=sys.stderr)

    import numpy as np
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for name in sorted(workloads.PIPELINES):
        inputs = tmp / "perfbench" / name / "inputs"
        inputs.mkdir(parents=True)
        params = workloads.MAKE[name](np.random.default_rng(SEED), inputs)
        (inputs / "params.json").write_text(json.dumps(params))
        checks = workloads.PIPELINES[name](workloads.setup(name, inputs),
                                           tmp / "perfbench" / name / "out")
        failed = [c[0] for c in checks if not c[1]]
        print(f"pipeline {name}: failed checks {failed}", file=sys.stderr)

    import pytest
    rc = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                      str(ROOT / "tests" / "test_acceptance.py")])
    print(f"tests/test_acceptance.py: exit {int(rc)}", file=sys.stderr)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import shadowbilliards  # noqa: F401  (before numpy: the package pins BLAS threads)

    hits: set = set()
    trace = _tracer(hits)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            with contextlib.redirect_stdout(sys.stderr):    # stdout is the report
                _runs(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)

    total = unreached_total = plain_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        errors = error_lines(path)
        missed = sorted(n for n in lines if (str(path), n) not in hits)
        plain = len([n for n in missed if n not in errors])
        text = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} of {len(lines)} in-function lines unreached, "
              f"{plain} not an error path")
        for n in missed:
            print(f"  {n:5d} {'E' if n in errors else ' '} {text[n - 1].strip()}")
        total += len(lines)
        unreached_total += len(missed)
        plain_total += plain
    print(f"total: {unreached_total} of {total} in-function lines unreached, "
          f"{plain_total} not an error path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
