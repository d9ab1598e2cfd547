"""Collision graph of labeled orbits and its topological Markov chain.

Vertices are collision-orbit labels carrying endpoint ids and boundary
momenta; a directed edge k -> k' needs matching endpoints and a genuine
momentum jump. Chain codes are paths in this graph; the entropy of the
subshift is the log spectral radius of the adjacency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class OrbitVertex:
    """Labeled collision orbit reduced to its graph data."""

    label: object
    start: object            # endpoint id on the scatterer
    end: object
    p_minus: np.ndarray      # momentum leaving `start`
    p_plus: np.ndarray       # momentum arriving at `end`
    v_minus: Optional[np.ndarray] = None
    v_plus: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "p_minus", np.asarray(self.p_minus, dtype=float))
        object.__setattr__(self, "p_plus", np.asarray(self.p_plus, dtype=float))


@dataclass
class CollisionGraph:
    vertices: List[OrbitVertex]
    adjacency: np.ndarray     # integer (n, n), A[i, j] = edge i -> j

    def __post_init__(self):
        self.adjacency = np.asarray(self.adjacency, dtype=np.int64)

    def dump(self) -> str:
        lines = []
        for i, v in enumerate(self.vertices):
            succ = [str(self.vertices[j].label)
                    for j in range(len(self.vertices)) if self.adjacency[i, j]]
            lines.append(f"{v.label} -> {', '.join(succ) if succ else '(none)'}")
        return "\n".join(lines)


def build_graph(orbits: Sequence[OrbitVertex],
                no_straight_reflection: bool = False) -> CollisionGraph:
    """Adjacency by endpoint matching plus the momentum-jump condition.

    Edge k -> k' iff end(k) == start(k') (exact id comparison) and
    |p_plus(k) - p_minus(k')| > 1e-9. With no_straight_reflection, head-on
    continuations v_plus(k) = -v_minus(k') (to within an angle of 1e-6) are
    removed as well (needed when the limit is an attracting singular flow).
    """
    n = len(orbits)
    A = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(orbits):
        for j, b in enumerate(orbits):
            if a.end != b.start:
                continue
            if np.linalg.norm(a.p_plus - b.p_minus) <= 1e-9:
                continue
            if no_straight_reflection:
                va = a.v_plus if a.v_plus is not None else a.p_plus
                vb = b.v_minus if b.v_minus is not None else b.p_minus
                den = np.linalg.norm(va) * np.linalg.norm(vb)
                if den > 0:
                    cosang = float(va @ vb) / den
                    if np.arccos(np.clip(-cosang, -1.0, 1.0)) < 1e-6:
                        continue
            A[i, j] = 1
    return CollisionGraph(list(orbits), A)


@dataclass(frozen=True)
class EntropyReport:
    value: float
    spectral_radius: float


_TOL = 1e-10        # spectral radius below which rho is 0


def entropy(g: CollisionGraph) -> EntropyReport:
    """Topological entropy: log of the adjacency spectral radius.

    The radius is the largest over the strongly connected components that
    carry a cycle, each from a dense eigensolve of the component. A graph in
    which no vertex reaches itself has spectral radius 0 and reports entropy
    -inf ("no chain dynamics"); reducible graphs report the dominant
    component's value.
    """
    A = g.adjacency
    n = A.shape[0]
    if n == 0:
        raise ValueError("empty graph")
    R = np.eye(n, dtype=bool) | (A > 0)
    for _ in range(int(np.ceil(np.log2(max(n, 2))))):
        R = R @ R                               # reflexive transitive closure
    on_cycle = np.diag((A > 0) @ R)             # vertices that reach themselves
    rho = 0.0
    for i in np.flatnonzero(on_cycle):
        comp = np.flatnonzero(R[i] & R[:, i])
        if comp[0] != i:
            continue                            # component done at its first vertex
        B = A[np.ix_(comp, comp)].astype(float)
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(B)))))
    if rho <= _TOL:
        return EntropyReport(NEG_INF, 0.0)
    return EntropyReport(float(np.log(rho)), float(rho))


class PathBudgetError(RuntimeError):
    """Enumeration would exceed the path budget."""


_PATH_BUDGET = 2_000_000    # most codes paths() materializes


def count_paths(g: CollisionGraph, n: int) -> int:
    """Number of length-n edge paths: sum of entries of the n-th power."""
    A = g.adjacency.astype(object)  # exact integer arithmetic
    P = np.linalg.matrix_power(A, n)
    return int(np.sum(P))


def paths(g: CollisionGraph, length: Optional[int] = None,
          periodic: Optional[int] = None) -> List[Tuple]:
    """Exhaustive enumeration of codes: paths of a given edge length, or
    periodic codes of a given period (closed walks, counted with phase).

    Deterministic output order (lexicographic in vertex indices); raises
    PathBudgetError before materializing more than _PATH_BUDGET codes.
    """
    if (length is None) == (periodic is None):
        raise ValueError("pass exactly one of length or periodic")
    n = length if length is not None else periodic
    if n < 1:
        raise ValueError("n must be at least 1")
    A = g.adjacency
    if length is not None:
        expected = count_paths(g, n)
    else:
        expected = int(np.trace(np.linalg.matrix_power(A.astype(object), n)))
    if expected > _PATH_BUDGET:
        raise PathBudgetError(f"{expected} codes exceed the budget {_PATH_BUDGET}")

    nv = len(g.vertices)
    out: List[Tuple] = []

    def extend(prefix: List[int]):
        last = prefix[-1]
        if periodic is not None and len(prefix) == n:
            if A[last, prefix[0]]:
                out.append(tuple(g.vertices[i].label for i in prefix))
            return
        if length is not None and len(prefix) == n + 1:
            out.append(tuple(g.vertices[i].label for i in prefix))
            return
        for j in range(nv):
            if A[last, j]:
                extend(prefix + [j])

    for i in range(nv):
        extend([i])
    return out
