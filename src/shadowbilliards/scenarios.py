"""Shipped scenario families: concrete Lagrangian branches and chain builders.

Each family wires an ambient space, a Hamiltonian, a scatterer and the
closed-form branch Lagrangians of its collision orbits, and exposes helpers
to build chains. These are the configurations driven by the command line and
exercised by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bvp, dls as dlsmod, symbolic
from .dynamics import ClassicalHamiltonian, euclidean, flat_torus
from .scatterer import DiagonalScatterer, PointScatterer


# ---------------------------------------------------------------------------
# Straight chords between points of a zero-dimensional scatterer
# ---------------------------------------------------------------------------

class ChordLink(dlsmod.LinkEvaluator):
    """Straight collision orbit from a scatterer point along a fixed displacement.

    Zero-dimensional on both slots: constant action and momenta. The label
    (torus winding, or None) selects the branch in bvp.connect.
    """

    def __init__(self, h: ClassicalHamiltonian, E: float, start: np.ndarray,
                 disp: np.ndarray, label=None):
        self.h = h
        self.E = E
        self.label = label
        self.dim_minus = self.dim_plus = 0
        self._start = start
        self._disp = disp
        ell = h.mass_norm(disp)
        self._speed = np.sqrt(2.0 * E)
        self._p = h.mass @ (self._speed * disp / ell)
        self._action = self._speed * ell

    def value(self, xm, xp):
        return float(self._action)

    def grad_minus(self, xm, xp):
        return np.zeros(0)

    def grad_plus(self, xm, xp):
        return np.zeros(0)

    def hess(self, xm, xp):
        z = np.zeros((0, 0))
        return z, z, z

    def momenta(self, xm, xp):
        return self._p.copy(), self._p.copy()

    def ambient_connect(self, qm, qp, eps):
        return bvp.connect(self.h, qm, qp, self.E, label=self.label)

    def reference_path(self, xm, xp):
        ts = np.linspace(0.0, 1.0, 33)
        return self._start[None, :] + ts[:, None] * self._disp[None, :]

    @classmethod
    def torus(cls, h: ClassicalHamiltonian, E: float, winding) -> "ChordLink":
        """Orbit of the point at the origin of the flat torus, one winding class."""
        k = np.asarray(winding, dtype=int)
        if np.all(k == 0):
            raise ValueError("zero winding has no collision orbit")
        return cls(h, E, np.zeros(h.dim), k * h.space.periods,
                   label=tuple(int(v) for v in k))

    @classmethod
    def segment(cls, h: ClassicalHamiltonian, E: float, scat: PointScatterer,
                pair: Tuple[int, int]) -> "ChordLink":
        """Orbit between two labeled centers of a Euclidean point scatterer."""
        i, j = pair
        if i == j:
            raise ValueError("a segment needs distinct centers")
        a = scat.embed(i)
        return cls(h, E, a, scat.embed(j) - a)


@dataclass
class TorusPointScenario:
    h: ClassicalHamiltonian
    scatterer: PointScatterer
    dl: dlsmod.DiscreteLagrangian
    E: float

    def chain(self, code: Sequence[Tuple[int, ...]], bc: str = "periodic"):
        code = [tuple(int(v) for v in k) for k in code]
        pts = [np.zeros(0) for _ in range(len(code) if bc == "periodic" else len(code) - 1)]
        if bc == "periodic":
            return dlsmod.ChainConfiguration(code, pts, "periodic")
        return dlsmod.ChainConfiguration(code, pts, "fixed",
                                         left=np.zeros(0), right=np.zeros(0))


def torus_point_scenario(dim: int = 2, periods: Optional[Sequence[float]] = None,
                         E: float = 0.5) -> TorusPointScenario:
    periods = [1.0] * dim if periods is None else list(periods)
    space = flat_torus(periods)
    h = ClassicalHamiltonian(space)
    scat = PointScatterer(space, [np.zeros(dim)])
    links = dlsmod.LazyLinks(lambda k: ChordLink.torus(h, E, k))
    dl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                   name="torus_point",
                                   site_bases=lambda c, i: 0)
    return TorusPointScenario(h, scat, dl, E)


# ---------------------------------------------------------------------------
# Two balls on a circle (torus factor), translation symmetric
# ---------------------------------------------------------------------------

class TwoBallTorusLink(dlsmod.LinkEvaluator):
    """Pair passage on the circle: each ball winds n_i times between collisions."""

    def __init__(self, h: ClassicalHamiltonian, E: float, masses, period: float,
                 windings: Tuple[int, int]):
        self.h = h
        self.E = E
        self.m = np.asarray(masses, dtype=float)
        self.L = float(period)
        self.n = np.asarray(windings, dtype=int)
        if self.n[0] == self.n[1]:
            raise ValueError("equal windings give a straight passage (no jump)")
        self.dim_minus = self.dim_plus = 1
        self._speed = np.sqrt(2.0 * E)

    def _lengths(self, xm, xp):
        delta = float(np.atleast_1d(xp)[0] - np.atleast_1d(xm)[0])
        return delta + self.n * self.L

    def value(self, xm, xp):
        ell = self._lengths(xm, xp)
        return float(self._speed * np.sqrt(np.sum(self.m * ell**2)))

    def grad_minus(self, xm, xp):
        ell = self._lengths(xm, xp)
        g = np.sqrt(np.sum(self.m * ell**2))
        return np.array([-self._speed * np.sum(self.m * ell) / g])

    def grad_plus(self, xm, xp):
        return -self.grad_minus(xm, xp)

    def momenta(self, xm, xp):
        ell = self._lengths(xm, xp)
        g = np.sqrt(np.sum(self.m * ell**2))
        p = self._speed * self.m * ell / g
        return p.copy(), p.copy()

    def ambient_connect(self, qm, qp, eps):
        return bvp.connect(self.h, qm, qp, self.E,
                           label=(int(self.n[0]), int(self.n[1])))

    def reference_path(self, xm, xp):
        c0 = float(np.atleast_1d(xm)[0])
        ell = self._lengths(xm, xp)
        start = np.array([c0, c0])
        ts = np.linspace(0.0, 1.0, 33)
        return start[None, :] + ts[:, None] * ell[None, :]


@dataclass
class TwoBallTorusScenario:
    h: ClassicalHamiltonian
    scatterer: DiagonalScatterer
    dl: dlsmod.DiscreteLagrangian
    E: float
    masses: np.ndarray
    period: float

    def chain(self, code, points):
        code = [tuple(int(v) for v in k) for k in code]
        return dlsmod.ChainConfiguration(code, [np.atleast_1d(p) for p in points],
                                         "periodic")

    def symmetry(self) -> dlsmod.ChartSymmetry:
        return dlsmod.ChartSymmetry(act=lambda th, x: np.atleast_1d(x) + th,
                                    generator=lambda x: np.ones(1))

    def reduced_mass(self) -> float:
        return float(self.masses[0] * self.masses[1] / np.sum(self.masses))


def two_ball_torus_scenario(masses=(1.0, 1.0), E: float = 0.5,
                            period: float = 1.0) -> TwoBallTorusScenario:
    space = flat_torus([period, period])
    m = np.asarray(masses, dtype=float)
    h = ClassicalHamiltonian(space, mass=np.diag(m))
    scat = DiagonalScatterer(space)
    links = dlsmod.LazyLinks(lambda k: TwoBallTorusLink(h, E, m, period, k))
    dl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                   name="two_ball_torus")
    return TwoBallTorusScenario(h, scat, dl, E, m, period)


# ---------------------------------------------------------------------------
# Two balls in a box (interval factor), wall reflections folded into branches
# ---------------------------------------------------------------------------

def _unfolded_image(y: float, m: int, lo: float, hi: float) -> Tuple[float, float]:
    """Image of y under m wall reflections of [lo, hi]; returns (image, parity)."""
    h = hi - lo
    xi = y - lo
    if m % 2 == 0:
        return lo + m * h + xi, 1.0
    return lo + (m + 1) * h - xi, -1.0


class TwoBallBoxLink(dlsmod.LinkEvaluator):
    """Pair passage on the interval with a per-ball wall-bounce pattern.

    The symbol (m1, m2) counts signed wall reflections of each ball between
    consecutive pair collisions; the connecting orbit is the straight chord
    in the unfolded cover. wall_margin shifts the walls inward (tube billiard
    geometry); the limiting chain uses margin zero. The end links of a fixed
    chain freeze a slot at an ambient pair position (left or right anchor);
    that slot then has no chart coordinates.
    """

    def __init__(self, h: ClassicalHamiltonian, E: float, masses,
                 box: Tuple[float, float], pattern: Tuple[int, int],
                 wall_margin: float = 0.0, left: Optional[np.ndarray] = None,
                 right: Optional[np.ndarray] = None):
        self.h = h
        self.E = E
        self.m = np.asarray(masses, dtype=float)
        self.box = box
        self.pattern = (int(pattern[0]), int(pattern[1]))
        self.margin = float(wall_margin)
        self.left = None if left is None else np.asarray(left, dtype=float)
        self.right = None if right is None else np.asarray(right, dtype=float)
        self.dim_minus = 0 if left is not None else 1
        self.dim_plus = 0 if right is not None else 1
        self._speed = np.sqrt(2.0 * E)

    def _geometry(self, ym: np.ndarray, yp: np.ndarray, margin: float):
        """Unfolded displacements and wall parities of the chord."""
        lo, hi = self.box[0] + margin, self.box[1] - margin
        ell = np.empty(2)
        par = np.empty(2)
        for i in range(2):
            img, pr = _unfolded_image(float(yp[i]), self.pattern[i], lo, hi)
            ell[i] = img - float(ym[i])
            par[i] = pr
        return ell, par

    def _chord(self, xm, xp):
        """Displacements, parities and kinetic length of the link's chord."""
        ell, par = self._geometry(*self._resolve(xm, xp), self.margin)
        return ell, par, np.sqrt(np.sum(self.m * ell**2))

    def _resolve(self, xm, xp):
        """Ambient pair positions of both slots, anchors taking precedence."""
        ym = self.left if self.left is not None else self._pair_positions(xm)
        yp = self.right if self.right is not None else self._pair_positions(xp)
        return ym, yp

    def _pair_positions(self, x):
        c = float(np.atleast_1d(x)[0])
        return np.array([c, c])

    def value(self, xm, xp):
        _, _, g = self._chord(xm, xp)
        return float(self._speed * g)

    def grad_minus(self, xm, xp):
        if self.left is not None:
            return np.zeros(0)
        ell, _, g = self._chord(xm, xp)
        return np.array([-self._speed * np.sum(self.m * ell) / g])

    def grad_plus(self, xm, xp):
        if self.right is not None:
            return np.zeros(0)
        ell, par, g = self._chord(xm, xp)
        return np.array([self._speed * np.sum(self.m * ell * par) / g])

    def hess(self, xm, xp):
        """Closed form: the chord is affine in the free slots, so the Hessian
        is D^T K D with K the chord Hessian and D = d(chord)/d(free slots),
        whose columns are -(1, 1) for the minus slot and the parities for the
        plus slot."""
        ell, par, _ = self._chord(xm, xp)
        cols = ([] if self.left is not None else [-np.ones(2)]) + \
            ([] if self.right is not None else [par])
        D = np.array(cols).reshape(-1, 2).T
        K = bvp.chord_hessian(np.diag(self.m), ell, self._speed)
        return self._blocks(D.T @ K @ D, xm)

    def momenta(self, xm, xp):
        ell, par, g = self._chord(xm, xp)
        return self._speed * self.m * ell / g, self._speed * self.m * ell * par / g

    def in_domain(self, xm, xp):
        ym, yp = self._resolve(xm, xp)
        lo, hi = self.box[0] + self.margin, self.box[1] - self.margin
        if not (lo < ym[0] < hi and lo < ym[1] < hi and lo < yp[0] < hi and lo < yp[1] < hi):
            return False
        ell, _ = self._geometry(ym, yp, self.margin)
        return bool(np.all(np.abs(ell) > 1e-12))

    def ambient_connect(self, qm, qp, eps):
        qm = self.left if self.left is not None else np.asarray(qm, dtype=float)
        qp = self.right if self.right is not None else np.asarray(qp, dtype=float)
        return self._connect_ambient(qm, qp, eps)

    def _connect_ambient(self, qm, qp, eps):
        lo, hi = self.box[0] + eps, self.box[1] - eps
        ell, par = self._geometry(qm, qp, eps)
        g = np.sqrt(np.sum(self.m * ell**2))
        action = self._speed * g
        tau = g / self._speed
        p_minus = self._speed * self.m * ell / g
        p_plus = self._speed * self.m * ell * par / g
        ts = np.linspace(0.0, 1.0, 129)
        unfolded = qm + ts[:, None] * ell
        width = hi - lo
        z = np.remainder(unfolded - lo, 2 * width)
        path = lo + np.where(z <= width, z, 2 * width - z)
        return bvp.CollisionOrbit(self.h, self.E, qm, qp, float(action), float(tau),
                                  p_minus, p_plus, path, label=self.pattern,
                                  backend="unfolded")

    def reference_path(self, xm, xp):
        return self._connect_ambient(*self._resolve(xm, xp), 0.0).path


@dataclass
class TwoBallBoxScenario:
    h: ClassicalHamiltonian
    scatterer: DiagonalScatterer
    E: float
    masses: np.ndarray
    box: Tuple[float, float]

    def lagrangian(self):
        """Periodic-chain branches of the limiting billiard (walls at margin zero)."""
        links = dlsmod.LazyLinks(lambda k: TwoBallBoxLink(self.h, self.E, self.masses,
                                                          self.box, k))
        return dlsmod.DiscreteLagrangian(links, energy=self.E, scatterer=self.scatterer,
                                         name="two_ball_box")

    def periodic_chain(self, code, points):
        code = [tuple(int(v) for v in k) for k in code]
        return dlsmod.ChainConfiguration(code, [np.atleast_1d(p) for p in points],
                                         "periodic")


def two_ball_box_scenario(masses=(1.0, 1.0), E: float = 0.5,
                          box: Tuple[float, float] = (0.0, 1.0)) -> TwoBallBoxScenario:
    space = euclidean(2)
    m = np.asarray(masses, dtype=float)
    h = ClassicalHamiltonian(space, mass=np.diag(m))
    scat = DiagonalScatterer(space)
    return TwoBallBoxScenario(h, scat, E, m, box)


def box_fixed_lagrangian(scn: TwoBallBoxScenario, a, b, code,
                         wall_margin: float = 0.0) -> dlsmod.DiscreteLagrangian:
    """Symbol table for a fixed chain a -> ... -> b with the given code.

    Interior links share the plain branches; the first and last symbols are
    boundary branches frozen at the ambient pair positions a, b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    links: Dict[object, dlsmod.LinkEvaluator] = {}
    code = [tuple(int(v) for v in k) for k in code]
    for j, k in enumerate(code):
        first, last = j == 0, j == len(code) - 1
        link = TwoBallBoxLink(scn.h, scn.E, scn.masses, scn.box, k, wall_margin,
                              left=a if first else None, right=b if last else None)
        links[("end" if first or last else "mid", j, k)] = link
    dl = dlsmod.DiscreteLagrangian(links, energy=scn.E, scatterer=scn.scatterer,
                                   name="two_ball_box_fixed",
                                   ambient_endpoints=lambda c: (a, b))
    return dl


def box_fixed_chain(code, points) -> dlsmod.ChainConfiguration:
    keys = []
    code = [tuple(int(v) for v in k) for k in code]
    for j, k in enumerate(code):
        if j == 0 or j == len(code) - 1:
            keys.append(("end", j, k))
        else:
            keys.append(("mid", j, k))
    return dlsmod.ChainConfiguration(keys, [np.atleast_1d(p) for p in points],
                                     "fixed", left=np.zeros(0), right=np.zeros(0))


# ---------------------------------------------------------------------------
# Planar n-center polygons
# ---------------------------------------------------------------------------

@dataclass
class NCenterScenario:
    h: ClassicalHamiltonian
    scatterer: PointScatterer
    dl: dlsmod.DiscreteLagrangian
    E: float
    alphas: np.ndarray

    def chain(self, code: Sequence[Tuple[int, int]]):
        code = [(int(i), int(j)) for i, j in code]
        for j in range(len(code)):
            if code[j][1] != code[(j + 1) % len(code)][0]:
                raise ValueError(f"code does not concatenate at position {j}")
        pts = [np.zeros(0) for _ in code]
        return dlsmod.ChainConfiguration(code, pts, "periodic")

    def graph_vertices(self) -> List[symbolic.OrbitVertex]:
        out = []
        n = len(self.scatterer)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                link = self.dl.link((i, j))
                out.append(symbolic.OrbitVertex((i, j), i, j, link._p, link._p,
                                                link._p, link._p))
        return out


def ncenter_scenario(centers, alphas=None, E: float = 0.5) -> NCenterScenario:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    space = euclidean(centers.shape[1])
    h = ClassicalHamiltonian(space)
    scat = PointScatterer(space, centers)
    alphas = np.ones(len(centers)) if alphas is None else np.asarray(alphas, dtype=float)
    links = dlsmod.LazyLinks(lambda pair: ChordLink.segment(h, E, scat, pair))

    def site_bases(c, i):
        return c.code[i][0] if c.bc == "periodic" else c.code[i][1]

    dl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                   name="ncenter", site_bases=site_bases)
    return NCenterScenario(h, scat, dl, E, alphas)


def square_centers(side: float = 1.0) -> np.ndarray:
    return np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
