"""Scatterer geometry: finite point sets and the two-body collision diagonal.

A scatterer N sits inside a flat ambient space; the flat exponential map makes
the boundary of its epsilon-tube a graph over N x S, where S is the unit
sphere of the normal space. The tube billiard flies the point scatterer; the
diagonal carries the box shadow chains. Frames are gauge-fixed by
Gram-Schmidt against the ambient basis in a fixed order so normal coordinates
of boundary points are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .dynamics import AmbientSpace

ChartPoint = Union[int, np.ndarray]


@dataclass(frozen=True)
class NearestResult:
    x: ChartPoint
    distance: float


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

    def invert(self, s: np.ndarray) -> np.ndarray:
        """Chart coordinates of a sphere point in the chart's hemisphere."""
        s = np.asarray(s, dtype=float)
        c = float(self.center @ s)
        if c <= 0:
            raise ValueError("point outside the chart hemisphere")
        return (self.basis.T @ s) / c


def _gram_schmidt(cols: np.ndarray, against: Optional[np.ndarray] = None) -> np.ndarray:
    """Orthonormalize columns in order; drop a column whose remainder is at
    most 1e-10 of its norm (rank tolerance)."""
    out = [] if against is None else [against[:, i] for i in range(against.shape[1])]
    kept = []
    for j in range(cols.shape[1]):
        v = cols[:, j].astype(float).copy()
        norm0 = np.linalg.norm(v)
        for u in out:
            v -= (u @ v) * u
        n = np.linalg.norm(v)
        if n <= 1e-10 * max(1.0, norm0):
            continue
        v /= n
        out.append(v)
        kept.append(v)
    if not kept:
        return np.zeros((cols.shape[0], 0))
    return np.column_stack(kept)


def _complete_orthonormal(basis: np.ndarray) -> np.ndarray:
    """The d - k columns completing an orthonormal (d, k) set: Gram-Schmidt on the
    axes, or a complete QR when an axis about 1e-10 to 1e-6 from the span leaves
    a remainder above the rank tolerance, and with it a spurious column."""
    d, k = basis.shape
    if k == d:          # nothing to complete (a codimension-one sphere is the points +-1)
        return np.zeros((d, 0))
    new = _gram_schmidt(np.eye(d), against=basis)
    if new.shape[1] != d - k:
        new = np.linalg.qr(basis, mode="complete")[0][:, k:]
    return new


class Scatterer:
    """Common interface: embedding, frames, tube points."""

    space: AmbientSpace
    codim: int
    dim: int  # intrinsic dimension m

    def embed(self, x: ChartPoint) -> np.ndarray:
        """Ambient point of x, or (n, d) points of a stack of chart points."""
        raise NotImplementedError

    def frames(self, x: ChartPoint) -> Tuple[np.ndarray, np.ndarray]:
        """(tangent, normal) orthonormal frames as (d, m) and (d, codim) columns."""
        raise NotImplementedError

    def tube_point(self, x: ChartPoint, s: np.ndarray, eps: float) -> np.ndarray:
        """f(x, eps s) = psi(x) + eps * (normal frame) s; flat exponential."""
        _, nor = self.frames(x)
        return self.embed(x) + eps * (nor @ np.asarray(s, dtype=float))

    def boundary_point(self, x: ChartPoint, s: np.ndarray, eps: float) -> BoundaryPoint:
        s = np.asarray(s, dtype=float)
        if abs(np.linalg.norm(s) - 1.0) > 1e-12:
            raise ValueError("direction s does not satisfy the cross-section equation")
        return BoundaryPoint(x, s, eps, self.tube_point(x, s, eps))

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

    def __len__(self):
        return len(self.points)

    def embed(self, x: ChartPoint) -> np.ndarray:
        return self.points[np.asarray(x, dtype=int)].copy()

    def frames(self, x: ChartPoint):
        d = self.space.dim
        return np.zeros((d, 0)), np.eye(d)

    def nearest(self, q) -> NearestResult:
        q = np.asarray(q, dtype=float)
        rel = self.space.centered(q[None, :] - self.points)
        dists = np.linalg.norm(rel, axis=1)
        i = int(np.argmin(dists))
        return NearestResult(i, float(dists[i]))

    def distance(self, q: np.ndarray) -> float:
        return self.nearest(q).distance

    def declared_tube_radius(self) -> float:
        rad = np.inf
        for i in range(len(self.points)):
            for j in range(i + 1, len(self.points)):
                rad = min(rad, self.space.distance(self.points[i], self.points[j]) / 2)
        if self.space.is_torus:
            rad = min(rad, float(np.min(self.space.periods)) / 2)
        return float(rad)


class DiagonalScatterer(Scatterer):
    """Collision set {q1 = q2} of two bodies in a common factor space.

    Ambient space is the product of two copies of a d-dimensional factor;
    chart coordinate c maps to (c, c). The chart is linear, so its Jacobian
    and its frames are the same at every point; they are built once, read-only.
    """

    def __init__(self, space: AmbientSpace):
        if space.dim % 2 != 0:
            raise ValueError("product space must have even dimension")
        self.space = space
        self.dim = space.dim // 2
        self.codim = space.dim - self.dim
        self._jacobian = np.vstack([np.eye(self.dim), np.eye(self.dim)])
        tan = _gram_schmidt(self._jacobian)
        self._frames = (tan, _complete_orthonormal(tan))
        for a in (self._jacobian, *self._frames):
            a.flags.writeable = False

    def embed(self, x: ChartPoint) -> np.ndarray:
        c = np.atleast_1d(np.asarray(x, dtype=float))
        return np.concatenate([c, c], axis=-1)

    def jacobian(self, x: ChartPoint) -> np.ndarray:
        return self._jacobian

    def frames(self, x: ChartPoint):
        return self._frames
