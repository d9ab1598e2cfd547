"""Event-driven billiard in the complement of a thin tube, and its shadow chains.

The billiard domain removes an epsilon-tube around the points of a point
scatterer. Trajectories drift freely between events; each event is the
earliest exact tube-entry root over the points, polished by bisection on the
distance-to-boundary function. The generating function of the tube billiard
evaluates two-point actions between tube points (of a point scatterer or of
the two-body collision diagonal); its discrete action in the joint variables
(base point, tube direction) is solved by a damped Newton with the
tube-direction spheres handled in moving local charts, which realizes the
shadowing construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import dls as dlsmod
from .bvp import CollisionOrbit, ConjugateError, ConnectError, chord_hessian
from .dynamics import ClassicalHamiltonian, DomainError, PhaseState
from .kepler import FeasibilityError
from .scatterer import BoundaryPoint, PointScatterer, Scatterer, SphereChart


class GrazingEventError(RuntimeError):
    """Event with near-tangential incidence; the link is rejected."""


class EventSearchError(RuntimeError):
    """No tube event within the drift budget, or a section map of the
    Lyapunov estimate failed (unreachable energy shell, unclosed orbit)."""


class ShadowSolveError(RuntimeError):
    """The shadowing Newton did not produce a critical chain."""


# ---------------------------------------------------------------------------
# Elastic reflection
# ---------------------------------------------------------------------------

_TANGENCY_FLOOR = 1e-12     # |<H_p, n>| at or below this (relative) is a grazing row


def reflect(h: ClassicalHamiltonian, q, p, normal):
    """Elastic reflection of the momentum at a surface with conormal `normal`.

    p' = p - 2 <p, n> n / ||n||^2 with inner products of the inverse-mass
    metric; conserves H exactly and jumps the momentum parallel to n.
    Supports batched inputs broadcast along the leading axis; a grazing row
    raises GrazingEventError in either form.
    """
    p = np.asarray(p, dtype=float)
    n = np.asarray(normal, dtype=float)
    minv = h.mass_inv
    if p.ndim == 1:
        nn = float(n @ minv @ n)
        pn = float(p @ minv @ n)
        v = minv @ p
        vnorm = np.linalg.norm(v)
        if abs(v @ n) <= _TANGENCY_FLOOR * max(1.0, vnorm * np.linalg.norm(n)):
            raise GrazingEventError("tangential incidence: <H_p, n> = 0")
        return p - (2.0 * pn / nn) * n
    v = p @ minv.T                            # H_p of each row
    pn = np.einsum("bi,bi->b", v, n)
    graze = np.abs(pn) <= _TANGENCY_FLOOR * np.maximum(
        1.0, np.linalg.norm(v, axis=1) * np.linalg.norm(n, axis=1))
    if graze.any():
        raise GrazingEventError(f"tangential incidence at row {np.argmax(graze)}: <H_p, n> = 0")
    nn = np.einsum("bi,ij,bj->b", n, minv, n)
    return p - (2.0 * pn / nn)[:, None] * n


# ---------------------------------------------------------------------------
# Billiard domain and event-driven trajectories
# ---------------------------------------------------------------------------

@dataclass
class BilliardDomain:
    """Complement of the eps-tube around the points of a point scatterer."""

    h: ClassicalHamiltonian
    scatterer: PointScatterer
    eps: float

    def __post_init__(self):
        if not isinstance(self.scatterer, PointScatterer):
            raise ValueError("the tube billiard needs a point scatterer")
        if self.eps <= 0:
            raise ValueError("tube radius must be positive")
        if self.eps >= self.scatterer.declared_tube_radius():
            raise ValueError("eps at or above the declared tube radius")

    def gap(self, q: np.ndarray) -> float:
        """Signed distance to the tube boundary (positive inside the domain)."""
        return self.scatterer.distance(q) - self.eps

    def normal(self, q: np.ndarray) -> np.ndarray:
        """Outward (into the domain) unit conormal of the tube near q."""
        near = self.scatterer.nearest(q)
        n = self.h.space.centered(q - self.scatterer.embed(near.x))
        return n / np.linalg.norm(n)


@dataclass
class BilliardEvent:
    t: float
    q: np.ndarray
    p_before: np.ndarray
    p_after: np.ndarray


@dataclass
class BilliardRun:
    events: List[BilliardEvent]
    final: PhaseState


class _FreeFlight:
    """Exact drift between events: with no potential the momentum is constant."""

    def __init__(self, h: ClassicalHamiltonian):
        self.h = h

    def position(self, state: PhaseState, dt: float) -> np.ndarray:
        return state.q + dt * self.h.velocity(state.q, state.p)

    def advance(self, state: PhaseState, dt: float) -> PhaseState:
        return PhaseState(self.position(state, dt), state.p, state.t + dt)


def _entry_time(dom: BilliardDomain, q: np.ndarray, v: np.ndarray,
                dt: float, t_floor: float) -> Optional[float]:
    """Earliest tube-entry time of a drift segment, exactly, or None.

    The gap to each point is a quadratic in time; the entry is its smaller
    root. The segment is assumed shorter than a quarter period on tori so a
    single centered image of each scatterer point is authoritative. Outgoing
    rays never re-enter a ball, so times at or below t_floor are ignored.
    """
    a2 = float(v @ v)
    if a2 == 0:
        return None
    mid = q + 0.5 * dt * v
    roots = []
    for a in dom.scatterer.points:
        w = dom.h.space.centered(mid - a) - 0.5 * dt * v
        a1 = 2.0 * float(w @ v)
        a0 = float(w @ w) - dom.eps**2
        disc = a1 * a1 - 4 * a2 * a0
        if disc > 0:
            root = (-a1 - np.sqrt(disc)) / (2 * a2)
            if t_floor < root <= dt:
                roots.append(root)
    return min(roots, default=None)


def billiard_trajectory(dom: BilliardDomain, s0: PhaseState, n_bounces: int) -> BilliardRun:
    """Flow-with-reflections for a fixed number of tube events.

    Each event is the earliest exact entry root over the scatterer points,
    bracketed and then bisected on the gap function to a machine-width
    interval with the gap at most 1e-12. Drifts without an entry end after a
    quarter of the shortest period on tori (1e9 time units otherwise), and
    2,000,000 of them raise EventSearchError. An event whose velocity makes
    an angle with the surface of sine below 1e-4 raises GrazingEventError.
    Flights between events are free drifts, so a non-zero potential raises
    ValueError before any flight.
    """
    h = dom.h
    if not h.potential.is_zero:
        raise ValueError("billiard flights are free drifts: the potential must be zero")
    flight = _FreeFlight(h)
    speed = float(np.linalg.norm(h.velocity(s0.q, s0.p)))
    budget = 1e9
    if h.space.is_torus:
        budget = min(float(np.min(h.space.periods)) / (4.0 * max(speed, 1e-300)), budget)

    state = s0
    if dom.gap(state.q) < -1e-12:
        raise ValueError("initial state outside the billiard domain")

    events: List[BilliardEvent] = []

    def gap_at(t):
        return dom.gap(flight.position(state, t))

    def bisect(lo, hi):
        """Polish the crossing inside [lo, hi] (gap sign change).

        Runs to machine-width intervals with the gap at most 1e-12.
        """
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            g = gap_at(mid)
            if g < 0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 2 * np.spacing(max(abs(hi), 1.0)) and abs(g) <= 1e-12:
                return mid
        return 0.5 * (lo + hi)

    steps = 0
    while len(events) < n_bounces:
        steps += 1
        if steps > 2_000_000:
            raise EventSearchError("step budget exhausted before the requested events")
        t_entry = _entry_time(dom, state.q, h.velocity(state.q, state.p), budget, 1e-12)
        if t_entry is None:
            state = flight.advance(state, budget)
            continue
        lo = t_entry
        width = max(1e-12, 1e-9 * t_entry)
        for _ in range(60):
            if gap_at(lo) > 0:
                break
            lo -= width
            width *= 4
        hi = t_entry
        width = max(1e-12, 1e-9 * t_entry)
        for _ in range(60):
            if gap_at(hi) < 0:
                break
            hi += width
            width *= 4
        hit = flight.advance(state, bisect(lo, hi))
        normal = dom.normal(hit.q)
        v = h.velocity(hit.q, hit.p)
        if abs(v @ normal) < 1e-4 * np.linalg.norm(v) * np.linalg.norm(normal):
            raise GrazingEventError(f"grazing event at t = {hit.t:.6f}")
        p_new = reflect(h, hit.q, hit.p, normal)
        events.append(BilliardEvent(hit.t, hit.q.copy(), hit.p.copy(), p_new.copy()))
        state = PhaseState(hit.q, p_new, hit.t)

    return BilliardRun(events, state)


# ---------------------------------------------------------------------------
# Generating function of the tube billiard
# ---------------------------------------------------------------------------

def generating_eps(dl: dlsmod.DiscreteLagrangian, k, xm, sm, xp, sp,
                   eps: float) -> float:
    """Two-point action of the tube billiard between boundary points.

    Evaluates the branch-k connecting orbit between f(x-, eps s-) and
    f(x+, eps s+). At eps = 0 this is the branch Lagrangian itself.
    """
    link = dl.link(k)
    scat = dl.scatterer
    qm = scat.tube_point(xm, sm, eps)
    qp = scat.tube_point(xp, sp, eps)
    if eps == 0.0:
        return link.value(np.atleast_1d(xm) if not np.isscalar(xm) else xm,
                          np.atleast_1d(xp) if not np.isscalar(xp) else xp) \
            if scat.dim > 0 else link.value(np.zeros(0), np.zeros(0))
    return float(link.ambient_connect(qm, qp, eps).action)


def expansion_residual(dl: dlsmod.DiscreteLagrangian, k, xm, sm, xp, sp,
                       eps: float) -> float:
    """|L^eps - L + eps <p-, s-> - eps <p+, s+>|, the quadratic remainder."""
    link = dl.link(k)
    scat = dl.scatterer
    x_m = np.zeros(0) if scat.dim == 0 else np.atleast_1d(np.asarray(xm, dtype=float))
    x_p = np.zeros(0) if scat.dim == 0 else np.atleast_1d(np.asarray(xp, dtype=float))
    L0 = link.value(x_m, x_p)
    p_minus, p_plus = link.momenta(x_m, x_p)
    _, nor_m = scat.frames(xm)
    _, nor_p = scat.frames(xp)
    corr = -eps * float(p_minus @ (nor_m @ np.asarray(sm, dtype=float))) \
        + eps * float(p_plus @ (nor_p @ np.asarray(sp, dtype=float)))
    Leps = generating_eps(dl, k, xm, sm, xp, sp, eps)
    return abs(Leps - L0 - corr)


# ---------------------------------------------------------------------------
# Joint-variable links and the shadow chain solver
# ---------------------------------------------------------------------------

class _SiteChart:
    """Chart of one shadow unknown: base chart coordinates plus a sphere chart.

    u = (dx, sigma) relative to the current base point and sphere center;
    Q(u) is the ambient tube point and columns of DQ(u) pair with momenta.
    Both scatterers are flat (a point set, or the linear diagonal chart with
    constant frames), so DQ and the second derivatives of Q are exact.
    """

    def __init__(self, scat: Scatterer, base_ref, s_center: np.ndarray, eps: float):
        self.scat = scat
        self.base_ref = base_ref          # chart point (array) or point id
        self.eps = eps
        self.sphere = SphereChart(np.asarray(s_center, dtype=float))
        self.x_dim = scat.dim
        self.s_dim = self.sphere.dim
        self.dim = self.x_dim + self.s_dim

    def split(self, u: np.ndarray):
        u = np.asarray(u, dtype=float)
        return u[:self.x_dim], u[self.x_dim:]

    def base_point(self, u):
        dx, _ = self.split(u)
        if self.x_dim == 0:
            return self.base_ref
        return np.asarray(self.base_ref, dtype=float) + dx

    def direction(self, u):
        _, sigma = self.split(u)
        return self.sphere.value(sigma)

    def ambient(self, u) -> np.ndarray:
        return self.scat.tube_point(self.base_point(u), self.direction(u), self.eps)

    def jacobian(self, u) -> np.ndarray:
        d = self.scat.space.dim
        J = np.empty((d, self.dim))
        _, sigma = self.split(u)
        x = self.base_point(u)
        _, nor = self.scat.frames(x)
        if self.x_dim:
            J[:, :self.x_dim] = self.scat.jacobian(x)
        J[:, self.x_dim:] = self.eps * nor @ self.sphere.jacobian(sigma)
        return J

    def curvature(self, u, p: np.ndarray) -> np.ndarray:
        """sum_k p_k d^2 Q_k / du du of a flat chart: only the sphere block.

        With s = v / n, v = c + T sigma, n = |v|, beta = T^T s and
        w = T^T (y - s (s.y)) for the normal components y of p:
        y . d^2 s = -(w beta^T + beta w^T + (s.y)(I - beta beta^T)) / n^2.
        """
        _, sigma = self.split(u)
        _, nor = self.scat.frames(self.base_point(u))
        v = self.sphere.center + self.sphere.basis @ sigma
        n = np.linalg.norm(v)
        s = v / n
        y = nor.T @ p
        beta = self.sphere.basis.T @ s
        w = self.sphere.basis.T @ (y - s * (s @ y))
        C = np.zeros((self.dim, self.dim))
        C[self.x_dim:, self.x_dim:] = -self.eps * (
            np.outer(w, beta) + np.outer(beta, w)
            + (s @ y) * (np.eye(self.s_dim) - np.outer(beta, beta))) / n**2
        return C


class _FrozenChart:
    """Zero-dimensional slot pinned to a fixed ambient point (chain endpoints)."""

    def __init__(self, point: np.ndarray):
        self.point = np.asarray(point, dtype=float)
        self.dim = 0
        self.x_dim = 0
        self.s_dim = 0

    def ambient(self, u) -> np.ndarray:
        return self.point

    def jacobian(self, u) -> np.ndarray:
        return np.zeros((self.point.size, 0))

    def curvature(self, u, p) -> np.ndarray:
        return np.zeros((0, 0))


class TwoPointLink(dlsmod.LinkEvaluator):
    """Branch of the tube-billiard action in joint chart coordinates.

    The gradient is exact: boundary momenta of the connecting orbit pulled
    back through the endpoint charts. The connector must return chord orbits
    (straight or unfolded), for which the Hessian is exact too: with S the
    ambient action, H = J^T D^2 S J plus the boundary momenta contracted
    with the second derivatives of the charts. An orbit without a chord
    raises ShadowSolveError.
    """

    def __init__(self, connector: Callable, left, right, eps: float):
        self.connector = connector
        self.left = left
        self.right = right
        self.eps = eps
        self.dim_minus = left.dim
        self.dim_plus = right.dim

    def _orbit(self, um, up) -> CollisionOrbit:
        return self.connector(self.left.ambient(um), self.right.ambient(up), self.eps)

    def value(self, um, up):
        return float(self._orbit(um, up).action)

    def _grad_pair(self, um, up):
        orb = self._orbit(um, up)
        return -self.left.jacobian(um).T @ orb.p_minus, self.right.jacobian(up).T @ orb.p_plus

    def hess(self, um, up):
        orb = self._orbit(um, up)
        if orb.chord is None:
            raise ShadowSolveError(f"tube link on a connector without a chord (label "
                                   f"{orb.label!r}): its Hessian has no closed form")
        # S(q-, q+) = sqrt(2E) |parity * q+ - q- + const|_M
        K = chord_hessian(orb.h.mass, orb.chord, np.sqrt(2.0 * orb.E))
        KP = K * orb.parity
        Jm, Jp = self.left.jacobian(um), self.right.jacobian(up)
        return (Jm.T @ K @ Jm - self.left.curvature(um, orb.p_minus),
                -Jm.T @ KP @ Jp,
                Jp.T @ (orb.parity[:, None] * KP) @ Jp + self.right.curvature(up, orb.p_plus))


@dataclass
class ShadowChain:
    """Converged critical point of the tube-billiard discrete action."""

    code: List[object]
    boundary: List[BoundaryPoint]
    orbits: List[CollisionOrbit]
    eps: float
    bc: str
    residual_inf: float
    joint_dl: dlsmod.DiscreteLagrangian
    joint_chain: dlsmod.ChainConfiguration
    diagnostics: dict = field(default_factory=dict)


def _predictor_directions(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration):
    """Unit tube directions maximizing <Delta p, s> per free site."""
    scat = dl.scatterer
    out = []
    for i, p_minus, p_plus in dlsmod.momentum_jumps(dl, c):
        dp = p_minus - p_plus
        x = c.points[i] if scat.dim > 0 else _site_base(dl, c, i)
        s = scat.normal_coordinates(x, dp)
        nrm = np.linalg.norm(s)
        if nrm == 0:
            raise ShadowSolveError(f"zero momentum jump at site {i}: inadmissible code")
        out.append(s / nrm)
    return out


def _site_base(dl, c, i):
    """Base reference of a site for zero-dimensional scatterers (point id)."""
    if dl.site_bases is not None:
        return dl.site_bases(c, i)
    return 0


_SHADOW_ITERS = 60      # Newton steps of shadow_solve before ShadowSolveError


def shadow_solve(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                 eps: float, tol_factor: float = 1e-10) -> ShadowChain:
    """Critical chain of the tube billiard near a critical chain of the limit.

    Starts from the convex predictor (tube directions aligned with the
    momentum jumps), then runs a damped Newton on the joint residual in the
    variables (base point, tube direction), re-centering the sphere charts at
    every step. Terminal sup-norm residual is tol_factor * sqrt(2E), reached
    within 60 Newton steps.
    """
    scat = dl.scatterer
    if scat is None:
        raise ValueError("the Lagrangian must carry its scatterer")
    reports = dlsmod.admissible(dl, c)
    bad = [r.site for r in reports if not r.admissible]
    if bad:
        raise ShadowSolveError(f"inadmissible code at sites {bad}: momentum jump below tolerance")

    E = dl.energy if dl.energy is not None else 0.5
    tol = tol_factor * np.sqrt(2.0 * E)

    s_list = _predictor_directions(dl, c)
    x_list = [c.points[i].copy() for i in range(c.n_free)]

    def build(charts):
        links = {}
        code = []
        n_sites = len(charts)
        for j, k in enumerate(c.code):
            if c.bc == "periodic":
                lc = charts[j % n_sites]
                rc = charts[(j + 1) % n_sites]
            else:
                lc = _FrozenChart(_ambient_endpoint(dl, c, "left")) if j == 0 else charts[j - 1]
                rc = _FrozenChart(_ambient_endpoint(dl, c, "right")) if j == c.n_links - 1 else charts[j]
            key = ("eps", j)
            links[key] = TwoPointLink(dl.link(k).ambient_connect, lc, rc, eps)
            code.append(key)
        jdl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                        name=(dl.name + f"/eps={eps:g}"))
        pts = [np.zeros(ch.dim) for ch in charts]
        return jdl, dlsmod.ChainConfiguration(code, pts, c.bc)

    def make_charts():
        return [_SiteChart(scat, (x_list[i] if scat.dim > 0 else _site_base(dl, c, i)),
                           s_list[i], eps) for i in range(c.n_free)]

    charts = make_charts()
    jdl, jc = build(charts)
    res = dlsmod.residual(jdl, jc)
    rn = dlsmod.residual_norm(res)
    it = 0
    while rn > tol:
        if it == _SHADOW_ITERS:
            raise ShadowSolveError(f"shadow Newton did not converge: |r| = {rn:.3e}")
        H = dlsmod.hessian(jdl, jc)
        try:
            step = H.solve([-r for r in res])
        except np.linalg.LinAlgError as exc:
            raise ShadowSolveError("singular joint Hessian") from exc
        lam = 1.0
        accepted = False
        for _ in range(40):
            trial_x, trial_s = [], []
            for i, ch in enumerate(charts):
                du = lam * step[i]
                dx, dsig = du[:ch.x_dim], du[ch.x_dim:]
                trial_x.append(x_list[i] + dx if ch.x_dim else x_list[i])
                trial_s.append(ch.sphere.value(dsig))
            save_x, save_s = x_list, s_list
            x_list, s_list = trial_x, trial_s
            charts_t = make_charts()
            jdl_t, jc_t = build(charts_t)
            try:
                res_t = dlsmod.residual(jdl_t, jc_t)
                rn_t = dlsmod.residual_norm(res_t)
            except (ConnectError, ConjugateError, FeasibilityError, DomainError,
                    dlsmod.ChainDomainError, np.linalg.LinAlgError):
                # the trial point has no connecting orbit: halve the step
                rn_t = np.inf
            if rn_t < rn:
                charts, jdl, jc, res, rn = charts_t, jdl_t, jc_t, res_t, rn_t
                accepted = True
                break
            x_list, s_list = save_x, save_s
            lam *= 0.5
        if not accepted:
            raise ShadowSolveError(f"shadow Newton stalled at |r| = {rn:.3e}")
        it += 1

    boundary = []
    for i in range(c.n_free):
        x = x_list[i] if scat.dim > 0 else _site_base(dl, c, i)
        boundary.append(scat.boundary_point(x, s_list[i], eps))
    orbits = []
    for j in range(c.n_links):
        key = ("eps", j)
        um, up = jc.link_endpoints(j)
        link = jdl.links[key]
        orbits.append(link._orbit(um, up))
    return ShadowChain(list(c.code), boundary, orbits, eps, c.bc, rn, jdl, jc,
                       diagnostics={"iterations": it, "tolerance": tol})


def _ambient_endpoint(dl, c, side):
    if dl.ambient_endpoints is None:
        raise ShadowSolveError("fixed chains need ambient endpoints on the Lagrangian")
    return dl.ambient_endpoints(c)[0 if side == "left" else 1]


# ---------------------------------------------------------------------------
# Shadowing error and Lyapunov estimates
# ---------------------------------------------------------------------------

def shadow_error(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                 sc: ShadowChain) -> float:
    """Sup distance between the shadow chain and the limiting collision chain.

    Base-point mismatch at the collisions plus the per-link path deviation
    between the shadow orbit and the limiting connecting orbit.
    """
    if sc.eps == 0.0:
        return 0.0
    if list(sc.code) != list(c.code):
        raise ValueError("codes of the chain and shadow chain differ")
    scat = dl.scatterer
    space = scat.space
    base_err = 0.0
    for i in range(c.n_free):
        xc = c.points[i] if scat.dim > 0 else _site_base(dl, c, i)
        xs = sc.boundary[i].x
        base_err = max(base_err, float(np.linalg.norm(
            space.centered(scat.embed(xs) - scat.embed(xc)))))
    dev = 0.0
    for j in range(c.n_links):
        xm, xp = c.link_endpoints(j)
        ref = dl.link(c.code[j]).reference_path(xm, xp)
        dev = max(dev, space.sup_segment_distance(sc.orbits[j].path, ref[:-1], ref[1:]))
    return float(base_err + dev)


def replay(sc: ShadowChain, dom: BilliardDomain) -> BilliardRun:
    """Re-run the shadow chain as an actual billiard trajectory.

    Starts at the first physical point of the chain (a tube point for
    periodic chains, the frozen endpoint for fixed ones) with the outgoing
    momentum of the first link and plays the chain's collisions, one event
    per link.
    """
    q0 = sc.orbits[0].path[0]
    p0 = sc.orbits[0].p_minus
    return billiard_trajectory(dom, PhaseState(q0, p0, 0.0), len(sc.orbits))


def _section_lift(dom: BilliardDomain, chart: _SiteChart, xi: np.ndarray,
                  y: np.ndarray, E: float) -> PhaseState:
    q = chart.ambient(xi)
    J = chart.jacobian(xi)
    s_dir = chart.direction(xi)
    _, nor = dom.scatterer.frames(chart.base_point(xi))
    n_amb = nor @ s_dir
    G = J.T @ J
    coef = np.linalg.solve(G, y)
    p0 = J @ coef
    h = dom.h
    minv = h.mass_inv
    a = 0.5 * float(n_amb @ minv @ n_amb)
    b = float(n_amb @ minv @ p0)
    c0 = 0.5 * float(p0 @ minv @ p0) + h.potential.value(q) - E
    disc = b * b - 4 * a * c0
    if disc < 0:
        raise EventSearchError("section lift infeasible: energy shell unreachable")
    beta = (-b + np.sqrt(disc)) / (2 * a)
    return PhaseState(q, p0 + beta * n_amb, 0.0)


def _section_project(dom: BilliardDomain, chart: _SiteChart, q: np.ndarray,
                     p: np.ndarray):
    base = chart.base_ref
    n = dom.h.space.centered(q - dom.scatterer.embed(base))
    s = dom.scatterer.normal_coordinates(base, n / np.linalg.norm(n))
    xi = chart.sphere.invert(s / np.linalg.norm(s))
    J = chart.jacobian(xi)
    y = J.T @ p
    return xi, y


def lyapunov_estimate(sc: ShadowChain, dom: BilliardDomain) -> np.ndarray:
    """Per-bounce Lyapunov exponents of a periodic shadow orbit.

    Assembles the monodromy of the period map from finite differences of the
    event-to-event map in boundary-section coordinates (chart of the boundary
    plus the conjugate momenta of that chart), in which the billiard map is
    symplectic, and returns sorted log-moduli of its eigenvalues divided by
    the number of bounces.
    """
    if sc.bc != "periodic":
        raise ValueError("Lyapunov estimate needs a periodic shadow chain")
    h = dom.h
    n = len(sc.boundary)
    E = h.energy(sc.boundary[0].ambient, sc.orbits[0].p_minus)
    charts = []
    for i, bp in enumerate(sc.boundary):
        base = bp.x
        charts.append(_SiteChart(dom.scatterer, base, bp.s, sc.eps))

    # reference section coordinates (post-reflection states)
    xs, ys = [], []
    for i in range(n):
        xi, y = _section_project(dom, charts[i], sc.boundary[i].ambient,
                                 sc.orbits[i].p_minus)
        xs.append(xi)
        ys.append(y)

    def bounce_map(i, xi, y):
        state = _section_lift(dom, charts[i], xi, y, E)
        ev = billiard_trajectory(dom, state, 1).events[-1]
        return _section_project(dom, charts[(i + 1) % n], ev.q, ev.p_after)

    dim = charts[0].dim
    # closure check of the periodic orbit through the dynamical map
    xi_c, y_c = xs[0].copy(), ys[0].copy()
    for i in range(n):
        xi_c, y_c = bounce_map(i, xi_c, y_c)
    closure = np.linalg.norm(xi_c - xs[0]) + np.linalg.norm(y_c - ys[0]) / max(
        1.0, np.linalg.norm(ys[0]))
    if closure > 1e-6:
        raise EventSearchError(f"periodic orbit does not close: defect {closure:.2e}")

    # work in similarity-scaled coordinates (xi, y/eps) so both blocks are O(1)
    yscale = max(sc.eps, 1e-12)
    links: List[np.ndarray] = []
    out_target = 1e-3  # output displacement (chart units) the stencil aims for
    for i in range(n):
        D = np.empty((2 * dim, 2 * dim))
        z0 = np.concatenate([xs[i], ys[i] / yscale])

        def evaluate(z):
            xi1, y1 = bounce_map(i, z[:dim], z[dim:] * yscale)
            return np.concatenate([xi1, y1 / yscale])

        for a in range(2 * dim):
            # calibrate the step so the map's expansion stays in the linear range
            h = 3e-3 * yscale
            delta = None
            for _ in range(60):
                e = np.zeros(2 * dim)
                e[a] = h
                try:
                    delta = np.linalg.norm(evaluate(z0 + 2 * e) - evaluate(z0 - 2 * e))
                except (ValueError, EventSearchError, GrazingEventError):
                    h *= 0.25
                    continue
                if delta > 4 * out_target:
                    h *= 0.5
                    continue
                break
            if delta is None:
                raise EventSearchError("could not calibrate a finite-difference step")
            if delta > 0:
                h = min(h, h * (4 * out_target / delta))
            e = np.zeros(2 * dim)
            e[a] = h
            vals = [evaluate(z0 + fac * e) for fac in (-2, -1, 1, 2)]
            D[:, a] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        links.append(D)

    # eigen-moduli of the period map via the cyclic block-companion matrix:
    # its spectrum consists of n-th roots of the monodromy eigenvalues, so the
    # ill-conditioned product is never formed and small moduli stay accurate
    m = 2 * dim
    C = np.zeros((n * m, n * m))
    for i in range(n):
        j = (i + 1) % n
        C[j * m:(j + 1) * m, i * m:(i + 1) * m] = links[i]
    mods = np.sort(np.log(np.abs(np.linalg.eigvals(C))))[::-1]
    exps = np.array([np.mean(mods[k * n:(k + 1) * n]) for k in range(m)])
    return exps
