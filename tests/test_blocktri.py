"""Chain LU solves, cyclic or not, and window inverse norms against dense linear algebra."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from shadowbilliards.blocktri import (BlockTridiagonalFactor, assemble_dense,
                                      inverse_inf_norm, solve_window, split_blocks)
from shadowbilliards.dls import BlockTridiagonalHessian


@st.composite
def windows(draw, cyclic=False):
    """Strictly row diagonally dominant symmetric window, half-width W in 0..20
    (1..20 for cyclic systems, so they have at least three sites), blocks of
    size 1-3 and random diagonal signs (so often indefinite). Cyclic systems
    carry a corner block coupling the last site with the first."""
    W = draw(st.integers(1 if cyclic else 0, 20))
    dims = draw(st.lists(st.integers(1, 3), min_size=2 * W + 1, max_size=2 * W + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = []
    for d in dims:
        R = rng.uniform(-1.0, 1.0, (d, d))
        A.append(0.5 * (R + R.T))
    B = [rng.uniform(-1.0, 1.0, (d, e)) for d, e in zip(dims[:-1], dims[1:])]
    corner = rng.uniform(-1.0, 1.0, (dims[-1], dims[0])) if cyclic else None
    rows = np.sum(np.abs(assemble_dense(A, B, corner)), axis=1)
    offs = np.concatenate([[0], np.cumsum(dims)])
    for i, a in enumerate(A):
        sign = rng.choice([-1.0, 1.0])
        a[np.diag_indices(dims[i])] = sign * (rows[offs[i]:offs[i + 1]] + rng.uniform(0.1, 2.0))
    return A, B, corner, rng


def lu_tolerance(M):
    """Relative accuracy of a backward-stable solve of M: 10 N eps cond(M)."""
    return 10 * M.shape[0] * np.finfo(float).eps * np.linalg.cond(M, np.inf)


def loads(rng, n, k):
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, k))


class TestBlockTridiagonal:
    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows(), st.integers(1, 4))
    def test_solve_matches_dense(self, win, k):
        A, B, _, rng = win
        M = assemble_dense(A, B)
        tol = lu_tolerance(M)
        dims = [a.shape[0] for a in A]
        for rhs in loads(rng, M.shape[0], k):
            x = np.concatenate(solve_window(A, B, split_blocks(rhs, dims)))
            ref = np.linalg.solve(M, rhs)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows(cyclic=True), st.integers(1, 4))
    def test_cyclic_solve_matches_dense(self, win, k):
        A, B, corner, rng = win
        M = assemble_dense(A, B, corner)
        tol = lu_tolerance(M)
        H = BlockTridiagonalHessian(A, B, corner)
        for rhs in loads(rng, M.shape[0], k):
            x = np.concatenate(H.solve(split_blocks(rhs, H.dims)))
            ref = np.linalg.solve(M, rhs)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows())
    def test_inverse_norm_is_dense_row_sum_with_one_sweep(self, win):
        A, B, _, _ = win
        M = assemble_dense(A, B)
        tol = lu_tolerance(M)
        dense = np.max(np.sum(np.abs(np.linalg.inv(M)), axis=1))
        calls = []
        orig = BlockTridiagonalFactor.solve

        def counted(self, rhs_blocks):
            calls.append(len(rhs_blocks))
            return orig(self, rhs_blocks)

        with mock.patch.object(BlockTridiagonalFactor, "solve", counted):
            got = inverse_inf_norm(A, B)
        assert abs(got - dense) <= tol * dense
        assert len(calls) == 1

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows(), st.integers(1, 4))
    def test_pivot_solves_equal_numpy_gesv(self, win, k):
        # the same LAPACK LU as np.linalg.solve of the dense matrix, bit for bit
        A, B, _, rng = win
        M = assemble_dense(A, B)
        fac = BlockTridiagonalFactor(A, B)
        for rhs in loads(rng, sum(fac.dims), k):
            x = np.concatenate(fac.solve(split_blocks(rhs, fac.dims)))
            assert x.tobytes() == np.linalg.solve(M, rhs).tobytes()

    def test_singular_leading_block_is_solved(self):
        # a zero leading block has no pivot of its own; row pivoting takes it
        A = [np.zeros((1, 1)), np.array([[2.0, 0.5], [0.5, 3.0]]), np.eye(1)]
        B = [np.array([[1.0, 0.3]]), np.array([[0.2], [0.4]])]
        rhs = [np.ones((1, 2)), np.arange(4.0).reshape(2, 2), np.zeros((1, 2))]
        x = np.concatenate(solve_window(A, B, rhs))
        assert np.allclose(assemble_dense(A, B) @ x, np.concatenate(rhs), atol=1e-14)

    def test_singular_matrix_raises(self):
        # [[1, 1], [1, 1]]: elimination leaves an exact zero pivot
        A = [np.eye(1), np.eye(1)]
        B = [np.eye(1)]
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_window(A, B, [np.ones(1)] * 2)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            inverse_inf_norm(A, B)

    def test_nan_block_is_singular(self):
        A = [np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)]
        B = [0.1 * np.eye(2)] * 2
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            BlockTridiagonalFactor(A, B)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            BlockTridiagonalHessian(A, B, 0.1 * np.eye(2)).solve([np.ones(2)] * 3)


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
