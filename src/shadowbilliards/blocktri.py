"""Block-tridiagonal linear algebra for discrete-action Hessians.

Symmetric systems with diagonal blocks A_i and superdiagonal coupling blocks
B_i (the subdiagonal is B_i^T). Dirichlet windows factor by block elimination;
cyclic systems (periodic chains carry a corner block) are assembled dense and
solved with a pivoted LU, which is exact and cheap at chain sizes used here.
A right-hand side block may be a vector (d_i,) or a matrix (d_i, k): one
forward/backward sweep then solves all k columns, so the sup norm of a window
inverse takes one factorization and one sweep against the block identity,
O(W) Python calls with the O(W^2) flops left to LAPACK (getrf/getrs, called
without the scipy.linalg wrappers).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

# these solves are small and OpenBLAS threads on a busy CPU slow them several
# times; scipy's OpenBLAS reads this once, as it loads: a user's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from scipy.linalg.lapack import dgetrf, dgetrs  # noqa: E402


class SingularBlockError(np.linalg.LinAlgError):
    """Block elimination hit a singular pivot block."""


class BlockTridiagonalFactor:
    """Block Thomas factorization of a symmetric block-tridiagonal matrix."""

    def __init__(self, A: Sequence[np.ndarray], B: Sequence[np.ndarray]):
        self.A = [np.asarray(a, dtype=float) for a in A]
        self.B = [np.asarray(b, dtype=float) for b in B]
        n = len(self.A)
        if len(self.B) != n - 1:
            raise ValueError("need one coupling block between consecutive diagonals")
        self.dims = [a.shape[0] for a in self.A]
        self._pivots = []
        D = self.A[0]
        for i in range(n):
            if i > 0:
                Bi = self.B[i - 1]
                D = self.A[i] - Bi.T @ self._solve_pivot(i - 1, Bi)
            lu, piv, info = dgetrf(D)
            if (info != 0 or not (np.all(np.isfinite(D)) and np.all(np.isfinite(lu)))
                    or np.any(np.abs(np.diag(lu)) < 1e-300)):
                raise SingularBlockError(f"singular pivot at block {i}")
            self._pivots.append((lu, piv))

    def _solve_pivot(self, i: int, rhs: np.ndarray) -> np.ndarray:
        return dgetrs(*self._pivots[i], rhs)[0]

    def solve(self, rhs_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        n = len(self.A)
        y = [np.asarray(r, dtype=float).copy() for r in rhs_blocks]
        for i in range(1, n):
            y[i] = y[i] - self.B[i - 1].T @ self._solve_pivot(i - 1, y[i - 1])
        x = [None] * n
        x[n - 1] = self._solve_pivot(n - 1, y[n - 1])
        for i in range(n - 2, -1, -1):
            x[i] = self._solve_pivot(i, y[i] - self.B[i] @ x[i + 1])
        return x


def assemble_dense(A: Sequence[np.ndarray], B: Sequence[np.ndarray],
                   corner: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense symmetric matrix with optional cyclic corner block at (n-1, 0)."""
    dims = [a.shape[0] for a in A]
    offs = np.concatenate([[0], np.cumsum(dims)])
    N = offs[-1]
    M = np.zeros((N, N))
    for i, a in enumerate(A):
        M[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = a
    for i, b in enumerate(B):
        M[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = b
        M[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = b.T
    if corner is not None and len(A) > 2:
        M[offs[-2]:offs[-1], 0:dims[0]] = corner
        M[0:dims[0], offs[-2]:offs[-1]] = corner.T
    return M


def split_blocks(v: np.ndarray, dims: Sequence[int]) -> List[np.ndarray]:
    offs = np.concatenate([[0], np.cumsum(dims)])
    return [v[offs[i]:offs[i + 1]] for i in range(len(dims))]


def solve_window(A, B, rhs_blocks) -> List[np.ndarray]:
    """Solve a Dirichlet window system; block Thomas with dense fallback."""
    try:
        return BlockTridiagonalFactor(A, B).solve(rhs_blocks)
    except SingularBlockError:
        M = assemble_dense(A, B)
        rhs = np.concatenate([np.asarray(r, dtype=float) for r in rhs_blocks])
        x = np.linalg.solve(M, rhs)
        return split_blocks(x, [a.shape[0] for a in A])


def inverse_inf_norm(A, B) -> float:
    """Exact sup-norm of the inverse of a symmetric block-tridiagonal window.

    By symmetry the max row sum of |M^{-1}| equals its max column sum, so one
    factorization and one block sweep against the identity (each pivot solve
    takes a (d_i, N) right-hand side) give the norm in O(W) Python calls.
    """
    fac = BlockTridiagonalFactor(A, B)
    X = fac.solve(split_blocks(np.eye(sum(fac.dims)), fac.dims))
    return float(np.abs(np.vstack(X)).sum(axis=0).max())
