"""Scatterer geometry: point sets and chart-immersed submanifolds.

A scatterer N sits inside a flat ambient space; the flat exponential map makes
the boundary of its epsilon-tube a graph over N x S, where S is a strictly
convex cross-section of the normal space (the unit sphere by default). Frames
are gauge-fixed by Gram-Schmidt against the ambient basis in a fixed order so
normal coordinates of boundary points are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .dynamics import AmbientSpace, central_diff

ChartPoint = Union[int, np.ndarray]


class FrameRankError(RuntimeError):
    """Chart Jacobian lost rank; frames are undefined."""


@dataclass(frozen=True)
class NearestResult:
    x: ChartPoint
    distance: float
    ambiguous: bool = False


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the tube boundary: base on N, unit normal direction, radius."""

    x: ChartPoint
    s: np.ndarray
    eps: float
    ambient: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "ambient", np.asarray(self.ambient, dtype=float))


class SphereSection:
    """Unit sphere of the normal space: the default convex cross-section."""

    def contains(self, s: np.ndarray, tol: float = 1e-12) -> bool:
        return abs(np.linalg.norm(s) - 1.0) <= tol


class SphereChart:
    """Local chart of the unit sphere around a center direction.

    s(sigma) = (c + T sigma) / |c + T sigma| with T an orthonormal basis of
    the tangent plane at c; sigma = 0 maps to the center.
    """

    def __init__(self, center: np.ndarray):
        c = np.asarray(center, dtype=float)
        n = np.linalg.norm(c)
        if n == 0:
            raise ValueError("chart center must be nonzero")
        self.center = c / n
        self.dim = c.size - 1
        self.basis = _complete_orthonormal(self.center[:, None])  # (d, d-1)

    def value(self, sigma: np.ndarray) -> np.ndarray:
        v = self.center + self.basis @ np.asarray(sigma, dtype=float)
        return v / np.linalg.norm(v)

    def jacobian(self, sigma: np.ndarray) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        v = self.center + self.basis @ sigma
        n = np.linalg.norm(v)
        s = v / n
        return (self.basis - np.outer(s, s @ self.basis)) / n

    def invert(self, s: np.ndarray) -> np.ndarray:
        """Chart coordinates of a sphere point in the chart's hemisphere."""
        s = np.asarray(s, dtype=float)
        c = float(self.center @ s)
        if c <= 0:
            raise ValueError("point outside the chart hemisphere")
        return (self.basis.T @ s) / c


def _gram_schmidt(cols: np.ndarray, against: Optional[np.ndarray] = None,
                  tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize columns in order; drop columns below the rank tolerance."""
    out = [] if against is None else [against[:, i] for i in range(against.shape[1])]
    kept = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(float).copy()
        norm0 = np.linalg.norm(v)
        for u in out:
            v -= (u @ v) * u
        n = np.linalg.norm(v)
        if n <= tol * max(1.0, norm0):
            continue
        v /= n
        out.append(v)
        kept.append(v)
    if not kept:
        return np.zeros((cols.shape[0], 0))
    return np.column_stack(kept)


def _complete_orthonormal(basis: np.ndarray) -> np.ndarray:
    """Extend an orthonormal column set to a full basis; returns the new columns."""
    d = basis.shape[0]
    return _gram_schmidt(np.eye(d), against=basis)


class Scatterer:
    """Common interface: embedding, frames, tube points, nearest projection."""

    space: AmbientSpace
    section: SphereSection
    codim: int
    dim: int  # intrinsic dimension m

    def embed(self, x: ChartPoint) -> np.ndarray:
        raise NotImplementedError

    def frames(self, x: ChartPoint) -> Tuple[np.ndarray, np.ndarray]:
        """(tangent, normal) orthonormal frames as (d, m) and (d, codim) columns."""
        raise NotImplementedError

    def nearest(self, q: np.ndarray, x0: Optional[ChartPoint] = None) -> NearestResult:
        raise NotImplementedError

    def declared_tube_radius(self) -> float:
        raise NotImplementedError

    def tube_point(self, x: ChartPoint, s: np.ndarray, eps: float) -> np.ndarray:
        """f(x, eps s) = psi(x) + eps * (normal frame) s; flat exponential."""
        _, nor = self.frames(x)
        return self.embed(x) + eps * (nor @ np.asarray(s, dtype=float))

    def boundary_point(self, x: ChartPoint, s: np.ndarray, eps: float) -> BoundaryPoint:
        s = np.asarray(s, dtype=float)
        if not self.section.contains(s):
            raise ValueError("direction s does not satisfy the cross-section equation")
        return BoundaryPoint(x, s, eps, self.tube_point(x, s, eps))

    def distance(self, q: np.ndarray) -> float:
        return self.nearest(q).distance

    def normal_coordinates(self, x: ChartPoint, v: np.ndarray) -> np.ndarray:
        """Components of an ambient vector in the normal frame at x."""
        _, nor = self.frames(x)
        return nor.T @ np.asarray(v, dtype=float)


class PointScatterer(Scatterer):
    """Zero-dimensional scatterer: a finite list of points, addressed by index."""

    def __init__(self, space: AmbientSpace, points):
        self.space = space
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.points.shape[1] != space.dim:
            raise ValueError("point dimension does not match the ambient space")
        self.dim = 0
        self.codim = space.dim
        self.section = SphereSection()

    def __len__(self):
        return len(self.points)

    def embed(self, x: ChartPoint) -> np.ndarray:
        return self.points[int(x)].copy()

    def frames(self, x: ChartPoint):
        d = self.space.dim
        return np.zeros((d, 0)), np.eye(d)

    def nearest(self, q, x0=None) -> NearestResult:
        q = np.asarray(q, dtype=float)
        rel = self.space.centered(q[None, :] - self.points)
        dists = np.linalg.norm(rel, axis=1)
        i = int(np.argmin(dists))
        best = float(dists[i])
        others = np.delete(dists, i)
        ambiguous = bool(others.size and np.min(others) - best <= 1e-9 * max(1.0, best))
        return NearestResult(i, best, ambiguous)

    def declared_tube_radius(self) -> float:
        rad = np.inf
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                rad = min(rad, self.space.distance(self.points[i], self.points[j]) / 2)
        if self.space.is_torus:
            rad = min(rad, float(np.min(self.space.periods)) / 2)
        return float(rad)


class ChartScatterer(Scatterer):
    """Submanifold given by a chart immersion psi: R^m -> ambient."""

    def __init__(self, space: AmbientSpace, psi: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 dim: int = 1, tube_radius: float = np.inf):
        self.space = space
        self._psi = psi
        self._jac = jac
        self.dim = dim
        self.codim = space.dim - dim
        if self.codim < 1:
            raise ValueError("scatterer must have positive codimension")
        self.section = SphereSection()
        self._tube_radius = float(tube_radius)

    def embed(self, x: ChartPoint) -> np.ndarray:
        return np.asarray(self._psi(np.atleast_1d(np.asarray(x, dtype=float))), dtype=float)

    def jacobian(self, x: ChartPoint) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        return central_diff(self.embed, x, 1e-7)

    def frames(self, x: ChartPoint):
        J = self.jacobian(x)
        tan = _gram_schmidt(J)
        if tan.shape[1] != self.dim:
            raise FrameRankError(f"chart Jacobian rank-deficient at x={x}")
        nor = _complete_orthonormal(tan)
        return tan, nor

    def nearest(self, q, x0=None, tol: float = 1e-12, max_iter: int = 80) -> NearestResult:
        """Gauss-Newton on the squared distance; needs a seed for curved charts."""
        q = np.asarray(q, dtype=float)
        x = np.zeros(self.dim) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
        ambiguous = False
        for _ in range(max_iter):
            r = self.space.centered(q - self.embed(x))
            J = self.jacobian(x)
            g = J.T @ r
            A = J.T @ J
            try:
                step = np.linalg.solve(A, g)
            except np.linalg.LinAlgError:
                ambiguous = True
                break
            x = x + step
            if np.linalg.norm(step) < tol * max(1.0, np.linalg.norm(x)):
                break
        r = self.space.centered(q - self.embed(x))
        return NearestResult(x, float(np.linalg.norm(r)), ambiguous)

    def declared_tube_radius(self) -> float:
        return self._tube_radius


class DiagonalScatterer(ChartScatterer):
    """Collision set {q1 = q2} of two bodies in a common factor space.

    Ambient space is the product of two copies of a d-dimensional factor;
    chart coordinate c maps to (c, c). The orthogonal projection is exact.
    """

    def __init__(self, space: AmbientSpace):
        if space.dim % 2 != 0:
            raise ValueError("product space must have even dimension")
        self.factor_dim = space.dim // 2
        super().__init__(space, self._embed_diag, self._jac_diag, dim=self.factor_dim)
        # the chart is linear, so its frames are the same at every point
        self._frames = super().frames(np.zeros(self.factor_dim))
        for frame in self._frames:
            frame.flags.writeable = False

    def _embed_diag(self, c):
        return np.concatenate([c, c])

    def _jac_diag(self, c):
        d = self.factor_dim
        return np.vstack([np.eye(d), np.eye(d)])

    def frames(self, x: ChartPoint):
        return self._frames

    def nearest(self, q, x0=None) -> NearestResult:
        q = np.asarray(q, dtype=float)
        d = self.factor_dim
        q1, q2 = q[:d], q[d:]
        rel = self.space.centered(np.concatenate([q1 - q2, np.zeros(d)]))[:d]
        mid = q1 - rel / 2
        dist = float(np.linalg.norm(rel)) / np.sqrt(2.0)
        return NearestResult(mid, dist, False)

    def declared_tube_radius(self) -> float:
        if self.space.is_torus:
            return float(np.min(self.space.periods)) / (2 * np.sqrt(2.0))
        return self._tube_radius
