"""Event-driven billiard in the complement of a thin tube, and its shadow chains.

The billiard domain removes an epsilon-tube around the points of a point
scatterer. Trajectories drift freely between events; each event is the
earliest exact tube-entry root over the points, polished by bisection on the
distance-to-boundary function. The generating function of the tube billiard
evaluates two-point actions between tube points (of a point scatterer or of
the two-body collision diagonal); its discrete action in the joint variables
(base point, tube direction) is solved by a damped Newton with the
tube-direction spheres handled in moving local charts, which realizes the
shadowing construction. The joint chain's links are evaluated by family:
the tube points and chart Jacobians of all rows, the chords between them
and their closed-form Hessians are array expressions, each row rounding as
the per-link evaluation through the connector's orbit; each sampled orbit
is built only for the returned chain, on its first access.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import dls as dlsmod
from .bvp import CollisionOrbit, ConnectError
from .dynamics import ClassicalHamiltonian, PhaseState
from .scatterer import BoundaryPoint, PointScatterer, Scatterer, SphereChart


class GrazingEventError(RuntimeError):
    """Event with near-tangential incidence; the link is rejected."""


class EventSearchError(RuntimeError):
    """No tube event within the drift budget, or a bounce of the Lyapunov
    estimate's shadow orbit does not close."""


class ShadowSolveError(RuntimeError):
    """The shadowing Newton did not produce a critical chain."""


# ---------------------------------------------------------------------------
# Elastic reflection
# ---------------------------------------------------------------------------

def reflect(h: ClassicalHamiltonian, p, normal):
    """Elastic reflection of the momentum at a surface with conormal `normal`.

    p' = p - 2 <p, n> n / ||n||^2 with inner products of the inverse-mass
    metric; conserves H exactly and jumps the momentum parallel to n. One
    momentum (d,) or a stack (B, d) with one conormal per row, each row
    rounding as it does alone. Incidence is not checked: billiard_trajectory
    refuses grazing events before it reflects.
    """
    p = np.asarray(p, dtype=float)
    n = np.asarray(normal, dtype=float)
    minv = h.mass_inv
    pn = (p[..., None, :] @ minv @ n[..., :, None])[..., 0, 0]
    nn = (n[..., None, :] @ minv @ n[..., :, None])[..., 0, 0]
    return p - (2.0 * pn / nn)[..., None] * n


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
                dt: Optional[float], t_floor: float) -> Optional[float]:
    """Earliest tube-entry time of a drift segment, exactly, or None.

    The gap to each point is a quadratic in time; the entry is its smaller
    root. The segment is assumed shorter than a quarter period on tori so a
    single centered image of each scatterer point is authoritative; dt None
    is the whole ray, on a Euclidean space only. Outgoing rays never re-enter
    a ball, so times at or below t_floor are ignored.
    """
    a2 = float(v @ v)
    if a2 == 0:
        return None
    half = 0.0 if dt is None else 0.5 * dt
    mid = q + half * v
    roots = []
    for a in dom.scatterer.points:
        w = dom.h.space.centered(mid - a) - half * v
        a1 = 2.0 * float(w @ v)
        a0 = float(w @ w) - dom.eps**2
        disc = a1 * a1 - 4 * a2 * a0
        if disc > 0:
            root = (-a1 - np.sqrt(disc)) / (2 * a2)
            if t_floor < root and (dt is None or root <= dt):
                roots.append(root)
    return min(roots, default=None)


def billiard_trajectory(dom: BilliardDomain, s0: PhaseState, n_bounces: int) -> BilliardRun:
    """Flow-with-reflections for a fixed number of tube events.

    Each event is the earliest exact entry root over the scatterer points,
    bracketed and then bisected on the gap function to a machine-width
    interval with the gap at most 1e-12. On tori a drift without an entry
    ends after a quarter of the shortest period, where a later image may
    still be hit, and 2,000,000 of them raise EventSearchError. On a
    Euclidean space a drift ends after 1e9 time units, and a ray with no
    entry root at any later time raises EventSearchError at once. An event
    whose velocity makes an angle with the surface of sine below 1e-4
    raises GrazingEventError.
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

    def widen(t, sign):
        """t moved by -sign * width, 4x wider per step (60 at most), to sign * gap > 0."""
        width = max(1e-12, 1e-9 * t)
        for _ in range(60):
            if sign * gap_at(t) > 0:
                break
            t -= sign * width
            width *= 4
        return t

    steps = 0
    while len(events) < n_bounces:
        steps += 1
        if steps > 2_000_000:
            raise EventSearchError("step budget exhausted before the requested events")
        t_entry = _entry_time(dom, state.q, h.velocity(state.q, state.p), budget, 1e-12)
        if t_entry is None:
            if not h.space.is_torus and _entry_time(
                    dom, state.q, h.velocity(state.q, state.p), None, 1e-12) is None:
                raise EventSearchError("ray misses every tube")
            state = flight.advance(state, budget)
            continue
        hit = flight.advance(state, bisect(widen(t_entry, 1.0), widen(t_entry, -1.0)))
        normal = dom.normal(hit.q)
        v = h.velocity(hit.q, hit.p)
        if abs(v @ normal) < 1e-4 * np.linalg.norm(v) * np.linalg.norm(normal):
            raise GrazingEventError(f"grazing event at t = {hit.t:.6f}")
        p_new = reflect(h, hit.p, normal)
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
    scat = dl.scatterer
    qm = scat.tube_point(xm, sm, eps)
    qp = scat.tube_point(xp, sp, eps)
    return float(dl.link(k).ambient_connect(qm, qp, eps).action)


def expansion_residual(dl: dlsmod.DiscreteLagrangian, k, xm, sm, xp, sp,
                       eps: float) -> float:
    """|L^eps - L + eps <p-, s-> - eps <p+, s+>|, the quadratic remainder."""
    link = dl.link(k)
    scat = dl.scatterer
    XM, XP = (np.asarray(x, dtype=float).reshape(1, scat.dim) if scat.dim else np.zeros((1, 0))
              for x in (xm, xp))
    rows = type(link).stack([link])
    L0 = float(type(link).values(rows, XM, XP)[0])
    (p_minus,), (p_plus,) = type(link).momenta_rows(rows, XM, XP)
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
    constant frames), so DQ and the second derivatives of Q are exact, and
    one frames() and jacobian() call serves a whole stack of charts. rows()
    is the one evaluation of the chart geometry.
    """

    def __init__(self, scat: Scatterer, base_ref, sphere: SphereChart, eps: float):
        self.scat = scat
        self.base_ref = base_ref          # chart point (array) or point id
        self.eps = eps
        self.sphere = sphere
        self.x_dim = scat.dim
        self.s_dim = self.sphere.dim
        self.dim = self.x_dim + self.s_dim

    @staticmethod
    def rows(charts: List["_SiteChart"], U: np.ndarray):
        """Tube points (n, d) and chart Jacobians (n, d, dim) of a stack of
        charts of one scatterer and eps at chart coordinates U (n, dim), and
        the map from momenta P (n, d) to the curvature blocks (n, dim, dim),
        sum_k P_k d^2 Q_k / du du. Each row rounds as the one-chart formulas
        (Scatterer.tube_point; eps nor (T - s s^T T) / |v| for the sphere
        columns): the dot products are batched matmuls.

        A flat chart's curvature is its sphere block: with s = v / n,
        v = c + T sigma, n = |v|, beta = T^T s and w = T^T (y - s (s.y)) for
        the normal components y of p,
        y . d^2 s = -(w beta^T + beta w^T + (s.y)(I - beta beta^T)) / n^2.
        """
        ch = charts[0]
        scat, eps, xd, k = ch.scat, ch.eps, ch.x_dim, ch.s_dim
        n, d = len(charts), scat.space.dim
        refs = [c.base_ref for c in charts]
        X = np.array(refs, dtype=float) + U[:, :xd] if xd else np.array(refs)
        C = np.array([c.sphere.center for c in charts])
        T = np.array([c.sphere.basis for c in charts]) if k else np.zeros(C.shape + (0,))
        V = C + (T @ U[:, xd:, None])[..., 0]
        nv = np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0, 0]
        S = V / nv[:, None]
        _, nor = scat.frames(X[0])
        Q = scat.embed(X) + eps * (nor @ S[:, :, None])[..., 0]
        J = np.empty((n, d, xd + k))
        if xd:
            J[:, :, :xd] = scat.jacobian(X[0])
        J[:, :, xd:] = eps * nor @ ((T - S[:, :, None] * (S[:, None, :] @ T))
                                    / nv[:, None, None])

        def curvature(P):
            # libm pow per row, as n**2 of one chart: the array square rounds differently
            n2 = np.array([v ** 2 for v in nv.tolist()])[:, None, None]
            Tt = np.swapaxes(T, 1, 2)
            beta = (Tt @ S[:, :, None])[..., 0]
            Y = (nor.T @ P[:, :, None])[..., 0]
            sy = (S[:, None, :] @ Y[:, :, None])[:, 0, 0]
            w = (Tt @ (Y - S * sy[:, None])[:, :, None])[..., 0]
            Cv = np.zeros((n, xd + k, xd + k))
            Cv[:, xd:, xd:] = -eps * (
                w[:, :, None] * beta[:, None, :] + beta[:, :, None] * w[:, None, :]
                + sy[:, None, None] * (np.eye(k) - beta[:, :, None] * beta[:, None, :])) / n2
            return Cv

        return Q, J, curvature


class _FrozenChart:
    """Zero-dimensional slot pinned to a fixed ambient point (chain endpoints)."""

    def __init__(self, point: np.ndarray):
        self.point = np.asarray(point, dtype=float)
        self.dim = 0
        self.x_dim = 0
        self.s_dim = 0

    @staticmethod
    def rows(charts: List["_FrozenChart"], U: np.ndarray):
        """The rows of _SiteChart.rows for frozen slots: the fixed points, and
        empty Jacobians and curvatures."""
        Q = np.array([c.point for c in charts])
        n, d = Q.shape
        return Q, np.zeros((n, d, 0)), lambda P: np.zeros((n, 0, 0))


class TwoPointLink(dlsmod.LinkEvaluator):
    """Branch of the tube-billiard action in joint chart coordinates.

    A link joins the tube points of its left and right charts by the base
    link's connecting chord (straight, or unfolded at the walls of the box)
    at tube radius eps. The family methods evaluate the rows of one family
    in array expressions: the tube points and chart Jacobians of both slots
    (_SiteChart.rows), the chords between them (the base class's stacked
    tube_chords form), and from those the action, the gradient (boundary
    momenta pulled back through the charts) and the exact Hessian: with S
    the ambient action, H = J^T D^2 S J plus the boundary momenta contracted
    with the second derivatives of the charts. Each row rounds as the
    connector's CollisionOrbit and the one-chart formulas round it. The rows
    of a family share eps and the class of their base links. A base link
    without tube_chords raises ShadowSolveError here, before any evaluation;
    tube_points gives the ends from which the base link's ambient_connect
    builds a sampled orbit, only where its path is read.
    """

    def __init__(self, base: dlsmod.LinkEvaluator, left, right, eps: float):
        if not hasattr(base, "tube_chords"):
            raise ShadowSolveError(f"tube link on {type(base).__name__}, which has no "
                                   f"stacked chord form (tube_chords)")
        self.base = base
        self.left = left
        self.right = right
        self.eps = eps

    @classmethod
    def stack(cls, links):
        """Both slots' charts of the rows, the class of their base links, the
        base links' rows and the shared eps."""
        base = type(links[0].base)
        return ([link.left for link in links], [link.right for link in links], base,
                base.stack([link.base for link in links]), links[0].eps)

    @staticmethod
    def _geometry(rows, XM, XP):
        """The rows() of both slots' charts (a slot's charts share their class,
        as rows are grouped by which slots have a site and only frozen slots
        have none) and the chords between their tube points."""
        lefts, rights, base, base_rows, eps = rows
        left = type(lefts[0]).rows(lefts, XM)
        right = type(rights[0]).rows(rights, XP)
        return left, right, base.tube_chords(base_rows, left[0], right[0], eps)

    @classmethod
    def tube_points(cls, rows, XM, XP):
        """Tube points (QM, QP), (n, d) each, of both slots of every row."""
        (QM, _, _), (QP, _, _), _ = cls._geometry(rows, XM, XP)
        return QM, QP

    @classmethod
    def values(cls, rows, XM, XP):
        return cls._geometry(rows, XM, XP)[2].action

    @classmethod
    def grads(cls, rows, XM, XP):
        (_, Jm, _), (_, Jp, _), ch = cls._geometry(rows, XM, XP)
        return ((-np.swapaxes(Jm, 1, 2) @ ch.p_minus[:, :, None])[..., 0],
                (np.swapaxes(Jp, 1, 2) @ ch.p_plus[:, :, None])[..., 0])

    @classmethod
    def hessians(cls, rows, XM, XP):
        (_, Jm, curv_m), (_, Jp, curv_p), ch = cls._geometry(rows, XM, XP)
        # S(q-, q+) = sqrt(2E) |parity * q+ - q- + const|_M
        K = ch.hessian()
        KP = K * ch.parity[:, None, :]
        JmT, JpT = np.swapaxes(Jm, 1, 2), np.swapaxes(Jp, 1, 2)
        return (JmT @ K @ Jm - curv_m(ch.p_minus),
                -JmT @ KP @ Jp,
                JpT @ (ch.parity[:, :, None] * KP) @ Jp + curv_p(ch.p_plus))


class _Orbits(Sequence):
    """The connecting orbits of a shadow chain: orbit j is built by base link
    j's ambient_connect between its tube points ends[j] on first access, and
    kept, so every later access returns the same object."""

    def __init__(self, bases: List[dlsmod.LinkEvaluator], ends: list, eps: float):
        self._bases, self._ends, self._eps = bases, ends, eps
        self._built: List[Optional[CollisionOrbit]] = [None] * len(bases)

    def __len__(self) -> int:
        return len(self._bases)

    def __getitem__(self, j: int) -> CollisionOrbit:
        j = range(len(self._bases))[j]
        if self._built[j] is None:
            qm, qp = self._ends[j]
            self._built[j] = self._bases[j].ambient_connect(qm, qp, self._eps)
        return self._built[j]


@dataclass
class ShadowChain:
    """Converged critical point of the tube-billiard discrete action. Its
    orbits are built on first access (the box pipeline reads two of them)."""

    code: List[object]
    boundary: List[BoundaryPoint]
    orbits: Sequence[CollisionOrbit]
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
        s = scat.normal_coordinates(_site_base(dl, c, i), dp)
        nrm = np.linalg.norm(s)
        if nrm == 0:
            raise ShadowSolveError(f"zero momentum jump at site {i}: inadmissible code")
        out.append(s / nrm)
    return out


def _site_base(dl, c, i):
    """Base reference of free site i: a copy of its chart point, or on a point
    scatterer the point id that the Lagrangian's site_bases names."""
    return c.points[i].copy() if dl.scatterer.dim else dl.site_bases(c, i)


_SHADOW_ITERS = 60      # Newton steps of shadow_solve before ShadowSolveError


def shadow_solve(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                 eps: float, tol_factor: float = 1e-10) -> ShadowChain:
    """Critical chain of the tube billiard near a critical chain of the limit.

    Starts from the convex predictor (tube directions aligned with the
    momentum jumps of the limit chain, evaluated by family), then runs
    dls.damped_newton on the joint residual in the variables (base point, tube
    direction), re-centering the sphere charts at every step. The joint
    chain's links are TwoPointLink families, built once per Newton trial,
    so residuals and Hessians are array expressions over the rows; the
    connectors' sampled orbits are built for the returned chain between the
    tube points of one tube_points evaluation per family, each on its first
    access. A base link
    without a stacked chord form raises ShadowSolveError before any joint
    evaluation. Terminal sup-norm residual is tol_factor * sqrt(2E), reached
    within 60 Newton steps. The Lagrangian must carry its scatterer, energy and
    (on a point scatterer) site_bases: a ValueError names the one missing.
    """
    scat = dl.scatterer
    if scat is None:
        raise ValueError("the Lagrangian must carry its scatterer")
    if dl.energy is None:
        raise ValueError("the Lagrangian must carry its energy")
    if scat.dim == 0 and dl.site_bases is None:
        raise ValueError("a point scatterer's Lagrangian must carry its site_bases")
    reports = dlsmod.admissible(dl, c)
    bad = [r.site for r in reports if not r.admissible]
    if bad:
        raise ShadowSolveError(f"inadmissible code at sites {bad}: momentum jump below tolerance")

    E = dl.energy
    tol = tol_factor * np.sqrt(2.0 * E)

    s_list = _predictor_directions(dl, c)
    if c.bc == "fixed":
        if dl.ambient_endpoints is None:
            raise ShadowSolveError("fixed chains need ambient endpoints on the Lagrangian")
        ends = [_FrozenChart(q) for q in dl.ambient_endpoints(c)]

    def build(charts):
        """The joint Lagrangian and chain: link j joins sites[j] to sites[j + 1]."""
        sites = charts + charts[:1] if c.bc == "periodic" else [ends[0], *charts, ends[1]]
        code = [("eps", j) for j in range(c.n_links)]
        links = {key: TwoPointLink(dl.link(k), sites[j], sites[j + 1], eps)
                 for j, (key, k) in enumerate(zip(code, c.code))}
        jdl = dlsmod.DiscreteLagrangian(links, energy=E, scatterer=scat,
                                        name=(dl.name + f"/eps={eps:g}"))
        pts = np.zeros((len(charts), charts[0].dim if charts else 0))
        return jdl, dlsmod.ChainConfiguration(code, pts, c.bc)

    def step(state):
        _, _, jdl, jc, res = state
        try:
            return dlsmod.hessian(jdl, jc).solve(-res)
        except np.linalg.LinAlgError as exc:
            raise ShadowSolveError("singular joint Hessian") from exc

    def trial(state, d, lam):
        s_t, charts_t = [], []
        for ch, du in zip(state[0], d):
            du = lam * du
            x = ch.base_ref + du[:ch.x_dim] if ch.x_dim else ch.base_ref
            s_t.append(ch.sphere.value(du[ch.x_dim:]))
            charts_t.append(_SiteChart(scat, x, SphereChart(s_t[-1]), eps))
        jdl_t, jc_t = build(charts_t)
        try:
            res_t = dlsmod.residual(jdl_t, jc_t)
        except ConnectError:
            return None     # the trial point has no connecting chord
        return (charts_t, s_t, jdl_t, jc_t, res_t), dlsmod.residual_norm(res_t)

    charts = [_SiteChart(scat, _site_base(dl, c, i), SphereChart(s), eps)
              for i, s in enumerate(s_list)]
    jdl, jc = build(charts)
    res = dlsmod.residual(jdl, jc)
    (charts, s_list, jdl, jc, _), rn, it, status = dlsmod.run(dlsmod.damped_newton(
        (charts, s_list, jdl, jc, res), dlsmod.residual_norm(res), lambda _, rn: rn <= tol,
        step, trial, _SHADOW_ITERS, 40))
    if status != "converged":
        raise ShadowSolveError(f"shadow Newton {status}: |r| = {rn:.3e}")

    boundary = [scat.boundary_point(ch.base_ref, s, eps) for ch, s in zip(charts, s_list)]
    orbits = _Orbits([jdl.links[key].base for key in jc.code],
                     dlsmod._per_link(jdl, jc, "tube_points"), eps)
    return ShadowChain(list(c.code), boundary, orbits, eps, c.bc, rn, jdl, jc,
                       diagnostics={"iterations": it, "tolerance": tol})


# ---------------------------------------------------------------------------
# Shadowing error and Lyapunov estimates
# ---------------------------------------------------------------------------

def shadow_error(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                 sc: ShadowChain) -> float:
    """Sup distance between the shadow chain and the limiting collision chain.

    Base-point mismatch at the collisions plus the per-link path deviation
    between the shadow orbit and the limiting connecting orbit.
    """
    if list(sc.code) != list(c.code):
        raise ValueError("codes of the chain and shadow chain differ")
    scat = dl.scatterer
    space = scat.space
    base_err = 0.0
    for i in range(c.n_free):
        xc = _site_base(dl, c, i)
        xs = sc.boundary[i].x
        base_err = max(base_err, float(np.linalg.norm(
            space.centered(scat.embed(xs) - scat.embed(xc)))))
    dev = 0.0
    for j in range(c.n_links):
        ref = dl.link(c.code[j]).reference_path()
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


def _section_project(dom: BilliardDomain, charts: List[_SiteChart], Q: np.ndarray,
                     P: np.ndarray):
    """Section coordinates (XI, Y) of tube points Q with momenta P (n, d), row r
    on charts[r]: the sphere-chart coordinates of the direction from the base
    point to Q[r], and y = J^T p with the Jacobian J of _SiteChart.rows there."""
    XI = []
    for chart, q in zip(charts, Q):
        base = chart.base_ref
        n = dom.h.space.centered(q - dom.scatterer.embed(base))
        s = dom.scatterer.normal_coordinates(base, n / np.linalg.norm(n))
        XI.append(chart.sphere.invert(s / np.linalg.norm(s)))
    XI = np.array(XI)
    _, J, _ = _SiteChart.rows(charts, XI)
    return XI, (np.swapaxes(J, 1, 2) @ np.asarray(P)[:, :, None])[..., 0]


def lyapunov_estimate(sc: ShadowChain, dom: BilliardDomain) -> np.ndarray:
    """Per-bounce Lyapunov exponents of a periodic shadow orbit.

    In section coordinates (u, y = J^T p) of the tube boundary the billiard
    map is the twist map generated by the link action, so its exact tangent
    map follows from the action's second derivatives (MacKay & Meiss 1983):
    with (A, B, C) = (D--, D-+, D++) of the link from bounce i to bounce i+1
    at the converged joint chain, dy = -(A du + B du') and dy' = B^T du + C du'
    give D_i = [[-B^-1 A, -B^-1], [B^T - C B^-1 A, -C B^-1]]. Each bounce is
    also flown once, from the chain's own tube point and outgoing momentum,
    and its hit must project onto the next section state to within 1e-6: the
    chart angle absolutely, the momentum y relative to eps |p|, its size
    (EventSearchError naming the first bounce that does not close and its
    defect). Returns the sorted log-moduli of the period map's eigenvalues
    divided by the number of bounces.
    """
    if sc.bc != "periodic":
        raise ValueError("Lyapunov estimate needs a periodic shadow chain")
    n = len(sc.boundary)
    charts = [_SiteChart(dom.scatterer, bp.x, SphereChart(bp.s), sc.eps) for bp in sc.boundary]
    P = np.array([orbit.p_minus for orbit in sc.orbits])
    XI, Y = _section_project(dom, charts, [bp.ambient for bp in sc.boundary], P)

    # per-bounce closure: the multiple-shooting defect of the flown orbit
    hits = [billiard_trajectory(dom, PhaseState(sc.boundary[i].ambient, P[i], 0.0),
                                1).events[-1] for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    XI1, Y1 = _section_project(dom, [charts[j] for j in nxt], [ev.q for ev in hits],
                               np.array([ev.p_after for ev in hits]))
    y_size = sc.eps * np.linalg.norm(P[nxt], axis=1)
    defect = (np.linalg.norm(XI1 - XI[nxt], axis=1)
              + np.linalg.norm(Y1 - Y[nxt], axis=1) / y_size)
    bad = np.flatnonzero(defect > 1e-6)
    if bad.size:
        raise EventSearchError(f"bounce {bad[0]} does not close: defect {defect[bad[0]]:.2e}")

    A, B, C = dlsmod.link_hessians(sc.joint_dl, sc.joint_chain)
    Bi = np.linalg.inv(B)
    BiA = Bi @ A
    links = np.concatenate([np.concatenate([-BiA, -Bi], axis=2),
                            np.concatenate([np.swapaxes(B, 1, 2) - C @ BiA, -C @ Bi], axis=2)],
                           axis=1)

    # eigen-moduli of the period map via the cyclic block-companion matrix:
    # its spectrum consists of n-th roots of the monodromy eigenvalues, so the
    # ill-conditioned product is never formed and small moduli stay accurate
    m = links.shape[1]
    Cm = np.zeros((n * m, n * m))
    for i in range(n):
        j = (i + 1) % n
        Cm[j * m:(j + 1) * m, i * m:(i + 1) * m] = links[i]
    mods = np.sort(np.log(np.abs(np.linalg.eigvals(Cm))))[::-1]
    return np.array([np.mean(mods[k * n:(k + 1) * n]) for k in range(m)])
