"""Closed-form Kepler machinery: fixed-energy arcs and their actions.

All planar, attracting center at the origin, gravitational parameter 1 unless
stated. A fixed-energy two-point arc is located through the vacant focus: it
lies on the intersection of two circles around the endpoints, which yields up
to two ellipses and, with the two senses of traversal, up to four simple arcs.
The Maupertuis action of a simple arc with semimajor axis 1 has the closed
form du + e * d(sin u) in the eccentric anomaly u, and scaling by the energy
reduces every elliptic arc to that normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


class FeasibilityError(ValueError):
    """Endpoints unreachable by an elliptic arc with the requested energy."""


# ---------------------------------------------------------------------------
# Simple arcs with semimajor axis 1
# ---------------------------------------------------------------------------

_DEGENERATE_CHORD = 1e-13


@dataclass(frozen=True)
class EllipseGeometry:
    """Planar ellipse with occupied focus at the origin and a = 1."""

    vacant_focus: np.ndarray
    e: float
    periapsis_dir: np.ndarray   # unit vector from focus toward periapsis
    minor_dir: np.ndarray       # unit vector, 90 degrees ccw from periapsis_dir

    @property
    def b(self) -> float:
        return float(np.sqrt(max(0.0, 1.0 - self.e**2)))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * self.vacant_focus

    def point(self, u) -> np.ndarray:
        """Point at eccentric anomaly u; an array of anomalies gives one row each."""
        u = np.asarray(u, dtype=float)[..., None]
        return self.center + np.cos(u) * self.periapsis_dir + self.b * np.sin(u) * self.minor_dir

    def radius(self, u: float) -> float:
        return 1.0 - self.e * np.cos(u)

    def anomaly_of(self, x: np.ndarray) -> float:
        rel = np.asarray(x, dtype=float) - self.center
        cu = float(rel @ self.periapsis_dir)
        su = float(rel @ self.minor_dir) / self.b if self.b > 0 else 0.0
        return float(np.arctan2(su, cu))


@dataclass(frozen=True)
class SimpleArc:
    """One simple arc (under a full revolution) on a unit-semiaxis ellipse.

    direction +1 traverses eccentric anomaly from u_minus upward to u_plus,
    direction -1 downward; action = |du| + e * (signed sine increment).
    """

    ellipse: EllipseGeometry
    u_minus: float
    u_plus: float
    direction: int
    action: float
    mean_span: float   # |du| - e * signed sine increment = time at a = 1

    def sample(self, num: int = 129, extra_revolutions: int = 0) -> np.ndarray:
        span = self.direction * ((self.u_plus - self.u_minus) * self.direction % (2 * np.pi))
        span += self.direction * 2 * np.pi * extra_revolutions
        return self.ellipse.point(self.u_minus + np.linspace(0.0, span, num))

    def velocity(self, u: float) -> np.ndarray:
        el = self.ellipse
        dxdu = -np.sin(u) * el.periapsis_dir + el.b * np.cos(u) * el.minor_dir
        return self.direction * dxdu / el.radius(u)

    @property
    def v_minus(self) -> np.ndarray:
        return self.velocity(self.u_minus)

    @property
    def v_plus(self) -> np.ndarray:
        return self.velocity(self.u_plus)


def _ellipses_through(xm: np.ndarray, xp: np.ndarray) -> List[EllipseGeometry]:
    rm, rp = np.linalg.norm(xm), np.linalg.norm(xp)
    if not (0 < rm < 2 and 0 < rp < 2):
        raise FeasibilityError("endpoint radius must lie in (0, 2) for a = 1")
    rho_m, rho_p = 2.0 - rm, 2.0 - rp
    chord = xp - xm
    c = float(np.linalg.norm(chord))
    if c > rho_m + rho_p + 1e-14:
        raise FeasibilityError("endpoints too far apart: semiperimeter exceeds 2a")
    if c < _DEGENERATE_CHORD:
        raise FeasibilityError("degenerate chord: coincident endpoints have no simple arc")
    along = (c**2 + rho_m**2 - rho_p**2) / (2 * c)
    h2 = rho_m**2 - along**2
    h = np.sqrt(max(0.0, h2))
    u_chord = chord / c
    u_perp = np.array([-u_chord[1], u_chord[0]])
    base = xm + along * u_chord
    foci = [base + h * u_perp] if h < 1e-13 else [base + h * u_perp, base - h * u_perp]

    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    out = []
    for F in foci:
        fe = float(np.linalg.norm(F)) / 2.0
        if fe >= 1.0 - 1e-15:
            continue
        if fe < 1e-13:
            pdir = xm / rm  # circular orbit: axis gauge-fixed to the first endpoint
        else:
            pdir = -F / np.linalg.norm(F)
        out.append(EllipseGeometry(F, fe, pdir, rot90 @ pdir))
    if not out:
        raise FeasibilityError("no elliptic solution for these endpoints")
    return out


def simple_arc_candidates(xm, xp) -> List[SimpleArc]:
    """All simple arcs with a = 1 joining the endpoints, sorted by action."""
    xm = np.asarray(xm, dtype=float)
    xp = np.asarray(xp, dtype=float)
    arcs: List[SimpleArc] = []
    for el in _ellipses_through(xm, xp):
        um = el.anomaly_of(xm)
        up = el.anomaly_of(xp)
        du_ccw = (up - um) % (2 * np.pi)
        dsin = np.sin(up) - np.sin(um)
        f_ccw = du_ccw + el.e * dsin
        m_ccw = du_ccw - el.e * dsin
        arcs.append(SimpleArc(el, um, up, +1, f_ccw, m_ccw))
        arcs.append(SimpleArc(el, um, up, -1, 2 * np.pi - f_ccw, 2 * np.pi - m_ccw))
    arcs.sort(key=lambda a: a.action)
    return arcs


# ---------------------------------------------------------------------------
# Multi-revolution actions at energy h < 0
# ---------------------------------------------------------------------------

def _scaled_endpoints(h: float, z) -> Tuple[np.ndarray, np.ndarray]:
    """Endpoints scaled to a = 1; both must lie in the Hill region 0 < r < 2."""
    if h >= 0:
        raise FeasibilityError("elliptic action needs h < 0")
    xm, xp = z
    s = -2.0 * h
    zm, zp = s * np.asarray(xm, dtype=float), s * np.asarray(xp, dtype=float)
    if not (0 < np.linalg.norm(zm) < 2 and 0 < np.linalg.norm(zp) < 2):
        raise FeasibilityError("endpoint radius must lie in (0, 2) for a = 1")
    return zm, zp


def J_n(h: float, z, n: int) -> float:
    """Maupertuis action of the n-extra-revolution Kepler orbit joining z = (x-, x+).

    Equals (-2h)^{-1/2} (2 pi |n| + sgn(n) f) where f is the action of the
    least-action simple arc (simple_arc_candidates(...)[0]) after scaling
    the endpoints by -2h. Positive n traverses the arc's own sense plus n
    full loops; negative n runs the complementary way. n = 0 and coincident
    endpoints are refused.
    """
    if n == 0:
        raise ValueError("n = 0 is the simple arc; take simple_arc_candidates(...)[0].action")
    zm, zp = _scaled_endpoints(h, z)
    f = simple_arc_candidates(zm, zp)[0].action
    return float((-2.0 * h) ** (-0.5) * (2 * np.pi * abs(n) + np.sign(n) * f))


def travel_time(h: float, z, n: int) -> float:
    """Time of flight of the same orbit: a^{3/2} (2 pi |n| + sgn(n) m_arc)."""
    if n == 0:
        raise ValueError("n = 0 not supported")
    zm, zp = _scaled_endpoints(h, z)
    m = simple_arc_candidates(zm, zp)[0].mean_span
    a = 1.0 / (-2.0 * h)
    return float(a ** 1.5 * (2 * np.pi * abs(n) + np.sign(n) * m))


def arc_endpoint_velocities(h: float, z, n: int):
    """Physical endpoint velocities of the energy-h orbit joining z = (x-, x+)."""
    zm, zp = _scaled_endpoints(h, z)
    chosen = simple_arc_candidates(zm, zp)[0]
    scale = np.sqrt(-2.0 * h)  # velocity scales like a^{-1/2}
    sense = 1 if n >= 0 else -1
    return scale * sense * chosen.v_minus, scale * sense * chosen.v_plus


def sample_orbit(h: float, z, n: int, num: int = 513) -> np.ndarray:
    """Sampled path of the energy-h orbit (for quadrature cross-checks)."""
    if n == 0:
        raise ValueError("n = 0 not supported")
    zm, zp = _scaled_endpoints(h, z)
    a = 1.0 / (-2.0 * h)
    chosen = simple_arc_candidates(zm, zp)[0]
    if n > 0:
        return a * chosen.sample(num, extra_revolutions=n)
    flipped = SimpleArc(chosen.ellipse, chosen.u_minus, chosen.u_plus,
                        -chosen.direction, 2 * np.pi - chosen.action,
                        2 * np.pi - chosen.mean_span)
    return a * flipped.sample(num, extra_revolutions=abs(n) - 1)


# ---------------------------------------------------------------------------
# Two uncoupled Kepler problems: the discrete Lagrangian of a binary passage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySplit:
    h1: float
    h2: float
    alpha1: float
    alpha2: float
    E: float

    def __post_init__(self):
        if abs(self.alpha1 + self.alpha2 - 1.0) > 1e-12:
            raise ValueError("mass fractions must sum to 1")
        if abs(self.alpha1 * self.h1 + self.alpha2 * self.h2 - self.E) > 1e-12:
            raise ValueError("energy split violates alpha1 h1 + alpha2 h2 = E")


@dataclass(frozen=True)
class ThreeBodyLagrangianResult:
    value: float
    split: EnergySplit
    tau: float                 # common travel time at the optimal split
    d_xm: np.ndarray           # derivative of the value in the first endpoint
    d_xp: np.ndarray


def split_feasible_interval(z, alpha1: float, alpha2: float, E: float) -> Tuple[float, float]:
    """Open interval of h1 for which both scaled endpoint problems are elliptic."""
    xm = np.asarray(z[0], dtype=float)
    xp = np.asarray(z[1], dtype=float)
    rm, rp = np.linalg.norm(xm), np.linalg.norm(xp)
    c = np.linalg.norm(xp - xm)
    s = 0.5 * (rm + rp + c)
    h_floor = -1.0 / s
    lo = max(h_floor, E / alpha1)
    hi = min(0.0, (E - alpha2 * h_floor) / alpha1)
    if not (lo < hi):
        raise FeasibilityError("empty feasible interval for the energy split")
    return lo, hi


def three_body_lagrangian(k: Tuple[int, int], z, alpha1: float, alpha2: float,
                          E: float) -> ThreeBodyLagrangianResult:
    """Discrete Lagrangian of a binary passage: minimize the weighted actions.

    L_k(z) = min over alpha1 h1 + alpha2 h2 = E of alpha1 J_{k1}(h1, z)
    + alpha2 J_{k2}(h2, z), both on short arcs. Golden-section bracketing
    followed by a Newton polish on the synchronization equation tau1 = tau2,
    to a step of 1e-11; a polish that takes all of its 60 steps raises
    FeasibilityError naming |tau1 - tau2|, since the value and derivatives
    of an unsynchronized split are not the Lagrangian's. Endpoint
    derivatives come from the envelope theorem: weighted endpoint velocities.
    """
    k1, k2 = k
    if k1 == 0 or k2 == 0:
        raise ValueError("revolution counts must be nonzero")
    lo, hi = split_feasible_interval(z, alpha1, alpha2, E)
    pad = 1e-9 * (hi - lo)
    lo, hi = lo + pad, hi - pad

    def h2_of(t):
        return (E - alpha1 * t) / alpha2

    def g(t):
        return alpha1 * J_n(t, z, k1) + alpha2 * J_n(h2_of(t), z, k2)

    # golden-section bracketing
    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = g(c1), g(c2)
    for _ in range(200):
        if b - a < max(1e-13, 1e-6 * (hi - lo)):
            break
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = g(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = g(c2)
    t = 0.5 * (a + b)

    # Newton polish on tau1(h1) - tau2(h2) = 0 (stationarity of the split)
    def sync(t):
        return travel_time(t, z, k1) - travel_time(h2_of(t), z, k2)

    dt = max(1e-8 * (hi - lo), 1e-13)
    for _ in range(60):
        s0 = sync(t)
        ds = (sync(min(t + dt, hi)) - sync(max(t - dt, lo))) / (min(t + dt, hi) - max(t - dt, lo))
        if ds == 0:
            break
        t_new = t - s0 / ds
        t_new = min(max(t_new, lo), hi)
        if abs(t_new - t) < 1e-11:
            t = t_new
            break
        t = t_new
    else:
        raise FeasibilityError(f"energy-split polish did not converge in 60 steps: "
                               f"|tau1 - tau2| = {abs(sync(t)):.3e}")
    if not (lo <= t <= hi):
        raise FeasibilityError("energy-split minimization left the feasible interval")

    h1, h2 = float(t), float(h2_of(t))
    tau = travel_time(h1, z, k1)
    v1m, v1p = arc_endpoint_velocities(h1, z, k1)
    v2m, v2p = arc_endpoint_velocities(h2, z, k2)
    d_xm = -(alpha1 * v1m + alpha2 * v2m)
    d_xp = alpha1 * v1p + alpha2 * v2p
    split = EnergySplit(h1, h2, alpha1, alpha2, E)
    return ThreeBodyLagrangianResult(float(g(t)), split, float(tau), d_xm, d_xp)


# ---------------------------------------------------------------------------
# Early-collision filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommensurabilityReport:
    risk: bool
    hits: Tuple[Tuple[int, int], ...]
    periods: Tuple[float, float]


def kepler_period(h: float) -> float:
    if h >= 0:
        raise ValueError("period defined for h < 0")
    return float(2 * np.pi * (-2.0 * h) ** (-1.5))


def commensurability_check(k: Tuple[int, int], h1: float, h2: float) -> CommensurabilityReport:
    """Scan for near-commensurable periods n1 T1 = n2 T2 with 0 < n_i < |k_i|,
    to within 1e-3 of the shorter period.

    A hit flags early-collision risk for the binary passage; the scan reports
    rather than excludes.
    """
    T1, T2 = kepler_period(h1), kepler_period(h2)
    early_tol = 1e-3 * min(T1, T2)
    hits = []
    for n1 in range(1, abs(k[0])):
        for n2 in range(1, abs(k[1])):
            if abs(n1 * T1 - n2 * T2) <= early_tol:
                hits.append((n1, n2))
    return CommensurabilityReport(bool(hits), tuple(hits), (T1, T2))
