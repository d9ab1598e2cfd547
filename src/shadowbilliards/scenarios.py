"""Shipped scenario families: concrete Lagrangian branches and chain builders.

Each family wires an ambient space, a Hamiltonian, a scatterer and the
closed-form branch Lagrangians of its collision orbits, and exposes helpers
to build chains. These are the configurations driven by the command line and
exercised by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import bvp, dls as dlsmod, symbolic
from .dynamics import ClassicalHamiltonian, euclidean, flat_torus
from .scatterer import DiagonalScatterer, PointScatterer


class ChordLink(dlsmod.LinkEvaluator):
    """Straight collision orbit from a scatterer point along a fixed displacement.

    Zero-dimensional on both slots: constant action and momenta, and no
    gradient or Hessian rows (the tube link differentiates its tube chords).
    The label (torus winding, or None) selects the branch in bvp.connect.
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

    @staticmethod
    def _stack(links):
        """Actions, momenta, masses and speeds of the rows, and on a torus
        their windings as floats."""
        space = links[0].h.space
        return (np.array([link._action for link in links]), np.array([link._p for link in links]),
                np.array([link.h.mass for link in links]),
                np.array([link._speed for link in links]),
                np.array([link.label for link in links], dtype=float) if space.is_torus else None)

    @classmethod
    def values(cls, links, XM, XP):
        return dlsmod.family_constants(links, cls._stack)[0].copy()

    @classmethod
    def momenta_rows(cls, links, XM, XP):
        p = dlsmod.family_constants(links, cls._stack)[1]
        return p.copy(), p.copy()

    def ambient_connect(self, qm, qp, eps):
        return bvp.connect(self.h, qm, qp, self.E, label=self.label)

    @classmethod
    def tube_chords(cls, links, QM, QP, eps):
        """Stacked form of ambient_connect: the straight chords from QM[r] to
        QP[r] (n, d), each displaced by its row's torus winding (the label),
        with the action speed * mass_norm(chord). Every row rounds as
        bvp.connect rounds it; the rows share one ambient space."""
        space = links[0].h.space
        _, _, mass, speed, windings = dlsmod.family_constants(links, cls._stack)
        D = QP - QM
        if space.is_torus:
            D = space.centered(D) + windings * space.periods
        ell = np.sqrt(D[:, None, :] @ mass @ D[:, :, None])[:, 0, 0]
        if np.any(ell == 0):
            raise bvp.ConnectError("coincident endpoints with zero winding")
        p = (mass @ (speed[:, None] * D / ell[:, None])[:, :, None])[..., 0]
        return bvp.Chords(speed * ell, p, p, D, np.ones_like(D), mass, speed)

    def reference_path(self):
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
        pts = np.zeros((len(code) if bc == "periodic" else len(code) - 1, 0))
        return dlsmod.ChainConfiguration(code, pts, bc)


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
    """Pair passage on the circle: each ball winds n_i times between collisions.

    The branch Lagrangian only: no shipped run solves a two-ball torus shadow
    chain, so the family has no ambient momenta (momenta_rows), connecting
    orbit or stacked chord form (tube_chords), and billiard.TwoPointLink
    refuses it. The Hessian is difference_hessians of the exact gradients,
    with which the two_balls_torus outputs were recorded; the closed form
    rounds differently.
    """

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

    @staticmethod
    def _stack(links):
        """Speeds (n,), masses (n, 2) and winding lengths n_i L (n, 2) of the rows."""
        return (np.array([link._speed for link in links]), np.array([link.m for link in links]),
                np.array([link.n * link.L for link in links]))

    @classmethod
    def _passages(cls, links, XM, XP):
        """Speeds (n,), masses (n, 2), ball path lengths (n, 2) and kinetic
        lengths (n,) of the rows: ball i travels x+ - x- plus n_i periods."""
        speed, m, wound = dlsmod.family_constants(links, cls._stack)
        ell = (XP[:, :1] - XM[:, :1]) + wound
        return speed, m, ell, np.sqrt(np.sum(m * ell**2, axis=1))

    @classmethod
    def values(cls, links, XM, XP):
        speed, _, _, g = cls._passages(links, XM, XP)
        return speed * g

    @classmethod
    def grads(cls, links, XM, XP):
        speed, m, ell, g = cls._passages(links, XM, XP)
        gm = (-speed * np.sum(m * ell, axis=1) / g)[:, None]
        return gm, -gm

    @classmethod
    def hessians(cls, links, XM, XP):
        return dlsmod.difference_hessians(cls, links, XM, XP)


@dataclass
class TwoBallTorusScenario:
    h: ClassicalHamiltonian
    scatterer: DiagonalScatterer
    dl: dlsmod.DiscreteLagrangian
    E: float

    def chain(self, code, points):
        code = [tuple(int(v) for v in k) for k in code]
        return dlsmod.ChainConfiguration(code, points, "periodic")

    @staticmethod
    def generator(x) -> np.ndarray:
        """Chart generator of the joint translation of both balls."""
        return np.ones(1)


def two_ball_torus_scenario(masses=(1.0, 1.0), E: float = 0.5,
                            period: float = 1.0) -> TwoBallTorusScenario:
    space = flat_torus([period, period])
    m = np.asarray(masses, dtype=float)
    h = ClassicalHamiltonian(space, mass=np.diag(m))
    scat = DiagonalScatterer(space)
    links = dlsmod.LazyLinks(lambda k: TwoBallTorusLink(h, E, m, period, k))
    dl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                   name="two_ball_torus")
    return TwoBallTorusScenario(h, scat, dl, E)


# ---------------------------------------------------------------------------
# Two balls in a box (interval factor), wall reflections folded into branches
# ---------------------------------------------------------------------------

class _BoxRows(NamedTuple):
    """The per-link constants of a family of box links (TwoBallBoxLink._stack)."""

    pattern: np.ndarray
    box: np.ndarray
    m: np.ndarray
    speed: np.ndarray
    margin: np.ndarray
    left: np.ndarray
    left_at: np.ndarray
    right: np.ndarray
    right_at: np.ndarray


class TwoBallBoxLink(dlsmod.LinkEvaluator):
    """Pair passage on the interval with a per-ball wall-bounce pattern.

    The symbol (m1, m2) counts signed wall reflections of each ball between
    consecutive pair collisions; the connecting orbit is the straight chord
    in the unfolded cover. wall_margin shifts the walls inward (tube billiard
    geometry); the limiting chain uses margin zero. The end links of a fixed
    chain freeze a slot at an ambient pair position (left or right anchor);
    that slot then has no chart coordinates.

    The family methods take rows with one slot dimension each, so an anchored
    slot is anchored in every row; patterns, anchors, masses and walls are
    read per row.
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

    @staticmethod
    def _stack(links):
        """The rows' patterns, boxes and masses (n, 2), speeds and margins
        (n,), and per slot whether each row is anchored and its anchor (n, 2),
        zero where it has none."""
        def anchors(points):
            return (np.array([a is not None for a in points]),
                    np.array([np.zeros(2) if a is None else a for a in points]))

        return _BoxRows(np.array([link.pattern for link in links]),
                        np.array([link.box for link in links], dtype=float),
                        np.array([link.m for link in links]),
                        np.array([link._speed for link in links]),
                        np.array([link.margin for link in links]),
                        *anchors([link.left for link in links]),
                        *anchors([link.right for link in links]))

    @classmethod
    def _fold(cls, links, YM, YP, margin):
        """Unfolded displacements and wall parities, (n, 2) each, of the chords
        from pair positions YM to YP under each row's wall-bounce pattern, the
        walls moved in by margin (a number or one per row)."""
        rows = dlsmod.family_constants(links, cls._stack)
        lo = (rows.box[:, 0] + margin)[:, None]
        width = (rows.box[:, 1] - margin)[:, None] - lo
        xi = YP - lo
        odd = rows.pattern % 2 == 1
        image = np.where(odd, lo + (rows.pattern + 1) * width - xi,
                         lo + rows.pattern * width + xi)
        return image - YM, np.where(odd, -1.0, 1.0)

    @staticmethod
    def _anchored(Y, anchored, at):
        """Pair positions Y (n, 2), each row replaced by its anchor where it has one."""
        if not anchored.any():
            return Y
        return at if anchored.all() else np.where(anchored[:, None], at, Y)

    @classmethod
    def _ends(cls, links, XM, XP):
        """Ambient pair positions (n, 2) of both slots, anchors taking precedence."""
        rows = dlsmod.family_constants(links, cls._stack)
        return (cls._anchored(np.repeat(XM[:, :1], 2, axis=1), rows.left, rows.left_at),
                cls._anchored(np.repeat(XP[:, :1], 2, axis=1), rows.right, rows.right_at))

    @classmethod
    def _ambient_chords(cls, links, YM, YP, margin):
        """Speeds (n,), masses (n, 2), unfolded displacements and parities
        (n, 2) and kinetic lengths (n,) of the rows' chords from pair
        positions YM to YP, the walls moved in by margin."""
        ell, par = cls._fold(links, YM, YP, margin)
        rows = dlsmod.family_constants(links, cls._stack)
        g = np.sqrt(np.sum(rows.m * ell**2, axis=1))
        return rows.speed, rows.m, ell, par, g

    @classmethod
    def _chords(cls, links, XM, XP):
        """_ambient_chords of the rows at chart coordinates, each at its own
        wall margin."""
        return cls._ambient_chords(links, *cls._ends(links, XM, XP),
                                   dlsmod.family_constants(links, cls._stack).margin)

    @staticmethod
    def _momenta(speed, m, ell, par, g):
        """Boundary momenta (p-, p+), (n, 2) each, of the chords of _ambient_chords."""
        p = speed[:, None] * m * ell
        return p / g[:, None], p * par / g[:, None]

    @classmethod
    def values(cls, links, XM, XP):
        speed, _, _, _, g = cls._chords(links, XM, XP)
        return speed * g

    @classmethod
    def grads(cls, links, XM, XP):
        """A slot has as many gradient entries as chart coordinates: one, or
        none when anchored."""
        speed, m, ell, par, g = cls._chords(links, XM, XP)
        gm = (-speed * np.sum(m * ell, axis=1) / g)[:, None]
        gp = (speed * np.sum(m * ell * par, axis=1) / g)[:, None]
        return gm[:, :XM.shape[1]], gp[:, :XP.shape[1]]

    @classmethod
    def hessians(cls, links, XM, XP):
        """Closed form: the chord is affine in the free slots, so the Hessian
        is D^T K D with K the chord Hessian and D = d(chord)/d(free slots),
        whose columns are -(1, 1) for the minus slot and the parities for the
        plus slot."""
        speed, m, ell, par, _ = cls._chords(links, XM, XP)
        cols = ([np.full_like(ell, -1.0)] if XM.shape[1] else []) \
            + ([par] if XP.shape[1] else [])
        Dt = np.stack(cols, axis=1) if cols else np.empty((len(links), 0, 2))
        K = bvp.chord_hessian(m[:, :, None] * np.eye(2), ell, speed)
        return cls._blocks(Dt @ K @ np.swapaxes(Dt, -1, -2), XM.shape[1])

    @classmethod
    def momenta_rows(cls, links, XM, XP):
        return cls._momenta(*cls._chords(links, XM, XP))

    @classmethod
    def in_domain(cls, links, XM, XP):
        """Both pair positions strictly inside the walls, and every ball moving."""
        YM, YP = cls._ends(links, XM, XP)
        rows = dlsmod.family_constants(links, cls._stack)
        margin, box = rows.margin, rows.box
        lo, hi = box[:, :1] + margin[:, None], box[:, 1:] - margin[:, None]
        inside = np.all((lo < YM) & (YM < hi) & (lo < YP) & (YP < hi), axis=1)
        ell, _ = cls._fold(links, YM, YP, margin)
        return inside & np.all(np.abs(ell) > 1e-12, axis=1)

    def ambient_connect(self, qm, qp, eps):
        qm = self.left if self.left is not None else np.asarray(qm, dtype=float)
        qp = self.right if self.right is not None else np.asarray(qp, dtype=float)
        return self._connect_ambient(qm, qp, eps)

    @classmethod
    def tube_chords(cls, links, QM, QP, eps):
        """Stacked form of ambient_connect: the unfolded chords from QM[r] to
        QP[r] (n, 2), anchors taking precedence, the walls moved in by eps,
        with the action speed * g of the kinetic length g. Every row rounds
        as _connect_ambient rounds it."""
        rows = dlsmod.family_constants(links, cls._stack)
        speed, m, ell, par, g = cls._ambient_chords(
            links, cls._anchored(QM, rows.left, rows.left_at),
            cls._anchored(QP, rows.right, rows.right_at), eps)
        p_minus, p_plus = cls._momenta(speed, m, ell, par, g)
        return bvp.Chords(speed * g, p_minus, p_plus, ell, par, m[:, :, None] * np.eye(2), speed)

    def _connect_ambient(self, qm, qp, eps):
        lo, hi = self.box[0] + eps, self.box[1] - eps
        ell, par = (a[0] for a in self._fold([self], qm[None], qp[None], eps))
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
                                  chord=ell, parity=par)


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
        return dlsmod.ChainConfiguration(code, points, "periodic")


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
    return dlsmod.ChainConfiguration(keys, points, "fixed")


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
        return dlsmod.ChainConfiguration(code, np.zeros((len(code), 0)), "periodic")

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
