"""Linear algebra for block-tridiagonal discrete-action Hessians.

Symmetric systems with diagonal blocks A_i, superdiagonal coupling blocks B_i
(the subdiagonal is B_i^T) and, for periodic chains, a corner block coupling
the last site with the first. Every system is assembled dense and solved by
one pivoted LU, numpy's LAPACK gesv (getrf + getrs), once per factor object:
every caller solves each factor once. No chain here has more than a few
hundred rows, where this is as fast as a block elimination and needs no pivot
blocks of its own. A right-hand side block may be a vector (d_i,) or a matrix
(d_i, k), so the sup norm of a window inverse takes one solve against the
identity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class BlockTridiagonalFactor:
    """Symmetric block-tridiagonal matrix, cyclic or not, for one pivoted LU solve."""

    def __init__(self, A: Sequence[np.ndarray], B: Sequence[np.ndarray],
                 corner: Optional[np.ndarray] = None):
        if len(B) != len(A) - 1:
            raise ValueError("need one coupling block between consecutive diagonals")
        self.dims = [a.shape[0] for a in A]
        self._M = assemble_dense(A, B, corner)
        if not np.all(np.isfinite(self._M)):
            raise np.linalg.LinAlgError("non-finite entry in the chain matrix")

    def solve(self, rhs_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        rhs = np.concatenate([np.asarray(r, dtype=float) for r in rhs_blocks])
        try:
            x = np.linalg.solve(self._M, rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("singular chain matrix") from exc
        return split_blocks(x, self.dims)


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
    """Solve a Dirichlet window system."""
    return BlockTridiagonalFactor(A, B).solve(rhs_blocks)


def inverse_inf_norm(A, B) -> float:
    """Exact sup-norm of the inverse of a block-tridiagonal window: the
    largest row sum of |M^{-1}|, from one solve against the identity."""
    fac = BlockTridiagonalFactor(A, B)
    X = np.vstack(fac.solve([np.eye(sum(fac.dims))]))
    return float(np.abs(X).sum(axis=1).max())
