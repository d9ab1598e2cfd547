"""OpenBLAS thread pinning and the runtime import path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest


def test_package_pins_openblas_before_numpy_loads(numpy_loaded_before_pin):
    assert not numpy_loaded_before_pin
    assert os.environ["OPENBLAS_NUM_THREADS"]


def run_fresh(code, preset=None):
    """Standard output of `code` in a new interpreter that imports from src/,
    with OPENBLAS_NUM_THREADS unset or set to `preset`."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_one_openblas_thread_unless_set(self, preset, expected):
        code = "import os, shadowbilliards; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_fresh(code, preset) == expected

    def test_pinned_before_numpy_loads(self):
        # numpy's OpenBLAS reads the variable once, as numpy is first imported
        code = """
import os, sys
seen = []

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Recorder())
import shadowbilliards
print(seen)
"""
        assert run_fresh(code) == "['1']"


class TestImportPath:
    def test_shipped_run_never_loads_scipy(self, tmp_path):
        # scipy costs about 0.3 s of CPU at import; the chain solves use numpy's LAPACK
        scn = str(Path(__file__).resolve().parents[1] / "scenarios" / "two_balls_box.json")
        code = (f"import sys\n"
                f"from shadowbilliards import cli\n"
                f"print('scipy' in sys.modules)\n"
                f"print(cli.main(['scenario', 'run', '--scenario', {scn!r}, "
                f"'--out', {str(tmp_path / 'tbb')!r}]))\n"
                f"print('scipy' in sys.modules)\n")
        lines = run_fresh(code).splitlines()  # the run prints its own lines in between
        assert (lines[0], lines[-2], lines[-1]) == ("False", "0", "False")

    def test_no_module_imports_scipy(self):
        # numpy is the one runtime dependency: no import statement names scipy,
        # at the top of a module or inside a function
        pkg = Path(__file__).resolve().parents[1] / "src" / "shadowbilliards"
        found = []
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {n}" for n in names
                          if n.split(".")[0] == "scipy"]
        assert found == []
