"""The chain matrix: per-link action Hessian blocks into one dense symmetric
matrix, solved by one pivoted LU.

Each link carries the blocks (D--, D-+, D++) of its action's second
derivative in its (minus slot, plus slot) coordinates. Site i of the chain
collects D++ of its incoming link and D-- of its outgoing link, and the link
from site i to site i+1 couples them through D-+ and its transpose. A
periodic chain of n links joins site j to site j+1 mod n by link j; where
the blocks of a short cycle land on one place (n = 1 or 2) they are added.
An open chain of n+1 links over n sites gives its first and last links one
site each: fixed chains, whose outermost slots have no chart coordinates,
and Dirichlet windows of a periodic chain alike. Every site has the same
chart dimension, and the matrix is assembled by whole-array operations.

Every system is solved by numpy's LAPACK gesv (getrf + getrs), once per
factor object: every caller solves each factor at most once. No chain here has more
than a few hundred rows, where this is as fast as a block elimination and
needs no pivot blocks of its own. A right-hand side block may be a vector
(d,) or a matrix (d, k), so the sup norm of a window inverse takes one solve
against the identity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

LinkBlocks = Tuple[np.ndarray, np.ndarray, np.ndarray]   # (D--, D-+, D++) of one link


class BlockTridiagonalFactor:
    """Dense chain matrix of per-link blocks, periodic or open, for one pivoted LU solve."""

    def __init__(self, blocks: Sequence[LinkBlocks], periodic: bool):
        links = list(blocks)
        if periodic:
            n = len(links)
            incoming, outgoing, couplings = links[-1:] + links[:-1], links, links
            left = np.arange(n)
            right = (left + 1) % n
        else:
            n = len(links) - 1
            incoming, outgoing, couplings = links[:-1], links[1:], links[1:-1]
            left = np.arange(n - 1)
            right = left + 1
        d = links[0][2].shape[0]

        def stack(rows):
            return np.array(rows, dtype=float).reshape(len(rows), d, d)

        coupling = stack([b[1] for b in couplings])
        M = np.zeros((n, d, n, d))
        M[np.arange(n), :, np.arange(n), :] = (stack([b[2] for b in incoming])
                                               + stack([b[0] for b in outgoing]))
        M[left, :, right, :] += coupling
        M[right, :, left, :] += np.swapaxes(coupling, 1, 2)
        self.dims = [d] * n
        self.matrix = M.reshape(n * d, n * d)
        if not np.all(np.isfinite(self.matrix)):
            raise np.linalg.LinAlgError("non-finite entry in the chain matrix")

    def solve(self, rhs_blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        rhs = np.concatenate([np.asarray(r, dtype=float) for r in rhs_blocks])
        try:
            x = np.linalg.solve(self.matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError("singular chain matrix") from exc
        return split_blocks(x, self.dims)


def split_blocks(v: np.ndarray, dims: Sequence[int]) -> List[np.ndarray]:
    offs = np.concatenate([[0], np.cumsum(dims)])
    return [v[offs[i]:offs[i + 1]] for i in range(len(dims))]


def solve_window(blocks: Sequence[LinkBlocks], rhs_blocks) -> List[np.ndarray]:
    """Solve the Dirichlet window system of an open chain of links."""
    return BlockTridiagonalFactor(blocks, False).solve(rhs_blocks)


def inverse_inf_norm(blocks: Sequence[LinkBlocks]) -> float:
    """Exact sup-norm of the inverse of the window matrix of an open chain of
    links: the largest row sum of |M^{-1}|, from one solve against the identity."""
    fac = BlockTridiagonalFactor(blocks, False)
    X = np.vstack(fac.solve([np.eye(sum(fac.dims))]))
    return float(np.abs(X).sum(axis=1).max())
