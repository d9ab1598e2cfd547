"""Block Thomas solves and window inverse norms against dense linear algebra."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, seed, settings, strategies as st

from shadowbilliards import blocktri
from shadowbilliards.blocktri import (BlockTridiagonalFactor, assemble_dense,
                                      inverse_inf_norm, solve_window, split_blocks)


@st.composite
def windows(draw):
    """Strictly row diagonally dominant symmetric window, half-width W in 0..20,
    blocks of size 1-3 and random diagonal signs (so often indefinite)."""
    W = draw(st.integers(0, 20))
    dims = draw(st.lists(st.integers(1, 3), min_size=2 * W + 1, max_size=2 * W + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = []
    for d in dims:
        R = rng.uniform(-1.0, 1.0, (d, d))
        A.append(0.5 * (R + R.T))
    B = [rng.uniform(-1.0, 1.0, (d, e)) for d, e in zip(dims[:-1], dims[1:])]
    rows = np.sum(np.abs(assemble_dense(A, B)), axis=1)
    offs = np.concatenate([[0], np.cumsum(dims)])
    for i, a in enumerate(A):
        sign = rng.choice([-1.0, 1.0])
        a[np.diag_indices(dims[i])] = sign * (rows[offs[i]:offs[i + 1]] + rng.uniform(0.1, 2.0))
    return A, B, rng


class TestBlockTridiagonal:
    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows(), st.integers(1, 4))
    def test_solve_matches_dense(self, win, k):
        A, B, rng = win
        M = assemble_dense(A, B)
        fac = BlockTridiagonalFactor(A, B)
        scale = np.max(np.abs(np.linalg.inv(M)))
        for rhs in (rng.uniform(-1.0, 1.0, M.shape[0]), rng.uniform(-1.0, 1.0, (M.shape[0], k))):
            x = np.concatenate(fac.solve(split_blocks(rhs, fac.dims)))
            ref = np.linalg.solve(M, rhs)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= 1e-12 * scale * max(1, M.shape[0])

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows())
    def test_inverse_norm_is_dense_row_sum_with_one_sweep(self, win):
        A, B, _ = win
        dense = np.max(np.sum(np.abs(np.linalg.inv(assemble_dense(A, B))), axis=1))
        calls = []
        orig = BlockTridiagonalFactor.solve

        def counted(self, rhs_blocks):
            calls.append(len(rhs_blocks))
            return orig(self, rhs_blocks)

        with mock.patch.object(BlockTridiagonalFactor, "solve", counted):
            got = inverse_inf_norm(A, B)
        assert abs(got - dense) <= 1e-12 * dense
        assert calls == [len(A)]

    def test_dense_fallback_takes_matrix_loads(self):
        # a zero leading block stops block elimination; the dense solve takes over
        A = [np.zeros((1, 1)), np.array([[2.0, 0.5], [0.5, 3.0]]), np.eye(1)]
        B = [np.array([[1.0, 0.3]]), np.array([[0.2], [0.4]])]
        rhs = [np.ones((1, 2)), np.arange(4.0).reshape(2, 2), np.zeros((1, 2))]
        try:
            BlockTridiagonalFactor(A, B)
            raise AssertionError("expected a singular pivot")
        except blocktri.SingularBlockError:
            pass
        x = np.concatenate(solve_window(A, B, rhs))
        assert np.allclose(assemble_dense(A, B) @ x, np.concatenate(rhs), atol=1e-14)

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(windows(), st.integers(1, 4))
    def test_pivot_solves_equal_the_scipy_wrappers(self, win, k):
        A, B, rng = win
        fac = BlockTridiagonalFactor(A, B)
        for rhs in (rng.uniform(-1.0, 1.0, sum(fac.dims)),
                    rng.uniform(-1.0, 1.0, (sum(fac.dims), k))):
            rhs_blocks = split_blocks(rhs, fac.dims)
            for x, ref in zip(fac.solve(rhs_blocks), wrapper_thomas(A, B, rhs_blocks)):
                assert x.tobytes() == ref.tobytes()

    def test_nan_block_is_singular(self):
        A = [np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.eye(2)]
        B = [0.1 * np.eye(2)] * 2
        with pytest.raises(blocktri.SingularBlockError, match="at block 1"):
            BlockTridiagonalFactor(A, B)


def wrapper_thomas(A, B, rhs_blocks):
    """Block Thomas solve through scipy.linalg.lu_factor / lu_solve."""
    n = len(A)
    pivots = [sla.lu_factor(A[0])]
    for i in range(1, n):
        pivots.append(sla.lu_factor(A[i] - B[i - 1].T @ sla.lu_solve(pivots[i - 1], B[i - 1])))
    y = [np.asarray(r, dtype=float).copy() for r in rhs_blocks]
    for i in range(1, n):
        y[i] = y[i] - B[i - 1].T @ sla.lu_solve(pivots[i - 1], y[i - 1])
    x = [None] * n
    x[n - 1] = sla.lu_solve(pivots[n - 1], y[n - 1])
    for i in range(n - 2, -1, -1):
        x[i] = sla.lu_solve(pivots[i], y[i] - B[i] @ x[i + 1])
    return x


class TestBlasThreads:
    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_one_openblas_thread_unless_set(self, preset, expected):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import os, shadowbilliards; print(os.environ['OPENBLAS_NUM_THREADS'])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == expected
