"""The chain matrix of stacked link blocks, periodic or open: LU solves and
window inverse norms against a dense reference summed one link at a time."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import dense_chain_matrix, link_stacks
from shadowbilliards.blocktri import BlockTridiagonalFactor, inverse_inf_norm, solve_window


@st.composite
def chains(draw, periodic=False):
    """Link blocks of a strictly row diagonally dominant chain matrix: open
    chains over 2W+1 sites (W in 0..20), periodic chains of 1..41 links (so
    the coincident blocks of one and two links come up), one chart dimension
    of 1-3 per chain and random diagonal signs (so often indefinite). Each
    site's diagonal is set through the D-- of its outgoing link."""
    n = draw(st.integers(1, 41)) if periodic else 2 * draw(st.integers(0, 20)) + 1
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(n if periodic else n + 1):
        R, S = rng.uniform(-1.0, 1.0, (2, d, d))
        blocks.append((0.5 * (R + R.T), rng.uniform(-1.0, 1.0, (d, d)), 0.5 * (S + S.T)))
    M = dense_chain_matrix(blocks, periodic)
    rows = np.sum(np.abs(M), axis=1)
    for i in range(n):
        outgoing = blocks[i if periodic else i + 1][0]
        sign = rng.choice([-1.0, 1.0])
        for a in range(d):
            k = i * d + a
            outgoing[a, a] += sign * (rows[k] + rng.uniform(0.1, 2.0)) - M[k, k]
    return blocks, rng


def lu_tolerance(M):
    """Relative accuracy of a backward-stable solve of M: 10 N eps cond(M)."""
    return 10 * M.shape[0] * np.finfo(float).eps * np.linalg.cond(M, np.inf)


def loads(rng, n, k):
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, k))


def site_blocks(rhs, sites):
    """A right-hand side of the chain matrix as one block per site: (sites, d, ...)."""
    return rhs.reshape((sites, -1) + rhs.shape[1:])


def assert_matches_reference(fac, M):
    # equal to rounding: the blocks of a one-link cycle are summed in another order
    assert fac.matrix.shape == M.shape
    tol = 4 * np.finfo(float).eps * np.max(np.abs(M))
    assert np.max(np.abs(fac.matrix - M), initial=0.0) <= tol


class TestBlockTridiagonal:
    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(chains(), st.integers(1, 4))
    def test_solve_matches_dense(self, chain, k):
        blocks, rng = chain
        M = dense_chain_matrix(blocks, False)
        assert_matches_reference(BlockTridiagonalFactor(link_stacks(blocks), False), M)
        tol = lu_tolerance(M)
        for rhs in loads(rng, M.shape[0], k):
            x = np.concatenate(solve_window(link_stacks(blocks),
                                            site_blocks(rhs, len(blocks) - 1)))
            ref = np.linalg.solve(M, rhs)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(chains(periodic=True), st.integers(1, 4))
    def test_cyclic_solve_matches_dense(self, chain, k):
        blocks, rng = chain
        M = dense_chain_matrix(blocks, True)
        fac = BlockTridiagonalFactor(link_stacks(blocks), True)
        assert_matches_reference(fac, M)
        tol = lu_tolerance(M)
        for rhs in loads(rng, M.shape[0], k):
            x = np.concatenate(fac.solve(site_blocks(rhs, len(fac.dims))))
            ref = np.linalg.solve(M, rhs)
            assert x.shape == ref.shape
            assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(chains())
    def test_inverse_norm_is_dense_row_sum_with_one_sweep(self, chain):
        blocks, _ = chain
        M = dense_chain_matrix(blocks, False)
        tol = lu_tolerance(M)
        dense = np.max(np.sum(np.abs(np.linalg.inv(M)), axis=1))
        calls = []
        orig = BlockTridiagonalFactor.solve

        def counted(self, rhs_blocks):
            calls.append(len(rhs_blocks))
            return orig(self, rhs_blocks)

        with mock.patch.object(BlockTridiagonalFactor, "solve", counted):
            got = inverse_inf_norm(link_stacks(blocks))
        assert abs(got - dense) <= tol * dense
        assert len(calls) == 1

    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(st.booleans().flatmap(lambda p: st.tuples(st.just(p), chains(p))),
           st.integers(1, 4))
    def test_pivot_solves_equal_numpy_gesv(self, chain, k):
        # the same LAPACK LU as np.linalg.solve of the dense matrix, bit for bit
        periodic, (blocks, rng) = chain
        fac = BlockTridiagonalFactor(link_stacks(blocks), periodic)
        for rhs in loads(rng, sum(fac.dims), k):
            x = np.concatenate(fac.solve(site_blocks(rhs, len(fac.dims))))
            assert x.tobytes() == np.linalg.solve(fac.matrix, rhs).tobytes()

    def test_singular_leading_block_is_solved(self):
        # a zero leading block has no pivot of its own; row pivoting takes it
        zero, eye = np.zeros((2, 2)), np.eye(2)
        blocks = [(eye, eye, zero),
                  (zero, np.array([[1.0, 0.3], [0.2, 0.4]]), np.array([[2.0, 0.5], [0.5, 3.0]])),
                  (eye, np.array([[0.2, 0.1], [0.4, 0.3]]), 0.5 * eye),
                  (0.5 * eye, eye, eye)]
        rhs = [np.ones((2, 2)), np.arange(4.0).reshape(2, 2), np.zeros((2, 2))]
        M = dense_chain_matrix(blocks, False)
        assert np.all(M[:2, :2] == 0.0)
        x = np.concatenate(solve_window(link_stacks(blocks), rhs))
        assert np.allclose(M @ x, np.concatenate(rhs), atol=1e-14)

    def test_singular_matrix_raises(self):
        # [[1, 1], [1, 1]]: elimination leaves an exact zero pivot
        one, zero = np.eye(1), np.zeros((1, 1))
        blocks = [(zero, zero, one), (zero, one, one), (zero, zero, zero)]
        assert np.all(dense_chain_matrix(blocks, False) == 1.0)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_window(link_stacks(blocks), [np.ones(1)] * 2)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            inverse_inf_norm(link_stacks(blocks))

    def test_nan_block_is_singular(self):
        eye = np.eye(2)
        blocks = [(eye, 0.1 * eye, eye)] * 3 + [(np.array([[1.0, np.nan], [np.nan, 1.0]]),
                                                 0.1 * eye, eye)]
        for periodic in (False, True):
            with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                BlockTridiagonalFactor(link_stacks(blocks), periodic)


class TestShortChains:
    """Chains no shipped run assembles, pinned bit for bit to the site-block
    formulas the chain matrix replaced."""

    @staticmethod
    def links(n, d=2):
        rng = np.random.default_rng(7)
        return [tuple(rng.uniform(-1.0, 1.0, (3, d, d))) for _ in range(n)]

    def test_one_link_cycle(self):
        (d11, d12, d22), = blocks = self.links(1)
        M = BlockTridiagonalFactor(link_stacks(blocks), True).matrix
        assert M.tobytes() == (d11 + d22 + d12 + d12.T).tobytes()

    def test_two_link_cycle(self):
        H = self.links(2)
        M = BlockTridiagonalFactor(link_stacks(H), True).matrix
        off = H[0][1] + H[1][1].T
        assert M[:2, 2:].tobytes() == off.tobytes()
        assert M[2:, :2].tobytes() == off.T.tobytes()
        assert M[:2, :2].tobytes() == (H[1][2] + H[0][0]).tobytes()
        assert M[2:, 2:].tobytes() == (H[0][2] + H[1][0]).tobytes()

    def test_fixed_chain_with_one_free_site(self):
        # the outermost slots of a fixed chain have no chart coordinates
        (_, _, pp), (mm, _, _) = self.links(2)
        blocks = [(np.zeros((0, 0)), np.zeros((0, 2)), pp),
                  (mm, np.zeros((2, 0)), np.zeros((0, 0)))]
        fac = BlockTridiagonalFactor(link_stacks(blocks), False)
        assert fac.dims == [2]
        assert fac.matrix.tobytes() == (pp + mm).tobytes()
