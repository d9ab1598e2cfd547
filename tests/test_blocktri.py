"""Block Thomas solves and window inverse norms against dense linear algebra."""

from unittest import mock

import numpy as np
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
