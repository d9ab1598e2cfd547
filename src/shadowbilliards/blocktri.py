"""The chain matrix: per-link action Hessian blocks into one dense symmetric
matrix, solved by one pivoted LU.

Each link carries the blocks (D--, D-+, D++) of its action's second
derivative in its (minus slot, plus slot) coordinates, and a chain hands
them over stacked over its links, three (n_links, d, d) arrays. Site i of
the chain collects D++ of its incoming link and D-- of its outgoing link,
and the link from site i to site i+1 couples them through D-+ and its
transpose. A periodic chain of n links joins site j to site j+1 mod n by
link j; where the blocks of a short cycle land on one place (n = 1 or 2)
they are added. An open chain of n+1 links over n sites gives its first and
last links one site each, and the blocks of their other slots are not read:
fixed chains, whose outermost slots have no chart coordinates, and
Dirichlet windows of a periodic chain alike. Every site has the same chart
dimension, and the matrix is assembled by whole-array operations.

Every system is solved by numpy's LAPACK gesv (getrf + getrs), once per
factor object: every caller solves each factor at most once. No chain here has more
than a few hundred rows, where this is as fast as a block elimination and
needs no pivot blocks of its own. A right-hand side stacks one block per
site, (n, d), or (n, d, k) for k columns, so the sup norm of a window
inverse takes one solve against the identity.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

LinkBlocks = Tuple[np.ndarray, np.ndarray, np.ndarray]   # (D--, D-+, D++), (n_links, d, d) each


class BlockTridiagonalFactor:
    """Dense chain matrix of stacked link blocks, periodic or open, for one pivoted LU solve."""

    def __init__(self, blocks: LinkBlocks, periodic: bool):
        mm, mp, pp = (np.asarray(b, dtype=float) for b in blocks)
        d = mm.shape[1]
        if periodic:
            n = len(mm)
            diagonal, coupling = np.roll(pp, 1, axis=0) + mm, mp
            left = np.arange(n)
            right = (left + 1) % n
        else:
            n = len(mm) - 1
            diagonal, coupling = pp[:-1] + mm[1:], mp[1:-1]
            left = np.arange(n - 1)
            right = left + 1
        M = np.zeros((n, d, n, d))
        M[np.arange(n), :, np.arange(n), :] = diagonal
        M[left, :, right, :] += coupling
        M[right, :, left, :] += np.swapaxes(coupling, 1, 2)
        self.dims = [d] * n
        self.matrix = M.reshape(n * d, n * d)
        if not np.all(np.isfinite(self.matrix)):
            raise np.linalg.LinAlgError("non-finite entry in the chain matrix")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of M x = rhs, with one block per site stacked in rhs
        and x alike: (n, d), or (n, d, k) for k right-hand sides."""
        rhs = np.asarray(rhs, dtype=float)
        try:
            x = np.linalg.solve(self.matrix, rhs.reshape((-1,) + rhs.shape[2:]))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("singular chain matrix") from exc
        return x.reshape(rhs.shape)


def solve_window(blocks: LinkBlocks, rhs: np.ndarray) -> np.ndarray:
    """Solve the Dirichlet window system of an open chain of links."""
    return BlockTridiagonalFactor(blocks, False).solve(rhs)


def inverse_inf_norm(blocks: LinkBlocks) -> float:
    """Exact sup-norm of the inverse of the window matrix of an open chain of
    links: the largest row sum of |M^{-1}|, from one solve against the identity."""
    fac = BlockTridiagonalFactor(blocks, False)
    N = sum(fac.dims)
    X = fac.solve(np.eye(N).reshape(len(fac.dims), -1, N))
    return float(np.abs(X).sum(axis=2).max())
