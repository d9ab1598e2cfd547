"""Flows with Newtonian singularities at point centers, and their shadow orbits.

The perturbed Hamiltonian adds mu * V to free flight, with
V = -sum_i alpha_i / |q - a_i| over the centers a_i (attracting for
alpha_i > 0). Near-collision passages are resolved by shrinking the
integration step like d^{3/2}; no regularization is performed, and approaches
inside the exclusion radius mu^2 abort a flight. The shadowing experiment is a
multiple shooting Newton over the chain with one section per link, the
chord's perpendicular bisector, so that each flight crosses one whole passage
from far field to far field. A node's unknowns are its offset on the section
and its momentum angle, on the energy shell H = E; the predictor is the chain
corrected at first order in mu (asymptote offsets of the two-body passages
and the Born deflection by the other centers).

All integration goes through one RK4 kernel on stacked planar states
[q, p], with a step and center weights mu * alpha per row; a lockstep step
of any number of rows is a fixed number of whole-array numpy calls. The
Newton solves of a whole mu sweep run in lockstep, one call per round: it
flies every row that the unfinished solves ask for (the flights of a
full-step trial with every perturbed flight of the central-difference
Jacobian there, a Jacobian alone, a line-search trial). Each row keeps its
own mu, section, time budget, minimum distance and outcome, and its numbers
are bit-equal to the row flown alone. The rows that cross their sections keep
the step that crossed and are bisected together after the last step: one
bisection per flight. The flights run on Euclidean space only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

import numpy as np

from . import dls as dlsmod
from .dynamics import ClassicalHamiltonian
from .scatterer import PointScatterer


class ExclusionRadiusError(RuntimeError):
    """Trajectory entered the exclusion radius around the singular set."""


class NonPlanarChainError(ValueError):
    """The chain shooting takes planar center chains only."""


class SingularShadowError(RuntimeError):
    """Multiple-shooting Newton for the singular flow failed; one that failed
    past its predictor keeps its last |R| and iteration count."""

    def __init__(self, message, residual=np.nan, iterations=0):
        super().__init__(message)
        self.residual, self.iterations = residual, iterations


@dataclass
class SingularPerturbation:
    """H_mu = H_base + mu V with V = -sum_i alpha_i / |q - a_i| over the
    centers of a point scatterer (alphas positive: attracting force).

    Approaches within the exclusion radius r_min = mu^2 abort a flight.
    """

    base: ClassicalHamiltonian
    scatterer: PointScatterer
    mu: float
    alphas: np.ndarray

    def __post_init__(self):
        if not isinstance(self.scatterer, PointScatterer):
            raise ValueError("the singular set must be a point scatterer")
        if self.base.space.is_torus:
            raise ValueError("the singular flow runs on Euclidean space")
        n = len(self.scatterer)
        self.alphas = np.asarray(self.alphas, dtype=float)
        if self.alphas.shape != (n,):
            raise ValueError("one coefficient per center required")

    @property
    def r_min(self) -> float:
        return self.mu**2


# ---------------------------------------------------------------------------
# Lockstep integration near the singular set
# ---------------------------------------------------------------------------

class _PointCenterKernel:
    """Lockstep RK4 step of planar free flight among point centers on B rows
    of state Y = [q, p], shape (2, B, 2), one dt and one row of center weights
    mu * alpha per row, with the step shrinking like d(q, N)^{3/2} near the
    centers. The stages run on the stacked state with K = [velocity, force],
    so each is one Y + h K, and every elementwise operation of the q and p
    updates keeps its order.

    A row of a B-row call is bit-equal to the same row flown alone: the
    weights enter elementwise, and the sums over centers and over the inverse
    mass go through matmul, which reduces each row as the one-row product does
    (einsum and a transposed product sum in another order).
    """

    def __init__(self, sp: SingularPerturbation):
        if not sp.base.potential.is_zero:
            raise ValueError("the kernel flies free flight among the centers")
        if sp.base.dim != 2:
            raise ValueError("the kernel flies planar rows")
        self.minv = sp.base.mass_inv
        self.unit_mass = sp.base.unit_mass
        # offsets as q repeated per center minus the flat centers: one flat
        # subtraction, cheaper than broadcasting (B, 1, 2) against (n, 2)
        self.coords = np.tile([0, 1], len(sp.scatterer))
        self.centers = sp.scatterer.points.ravel()

    def _field(self, Y, W):
        """K = [velocity, force] of each row of Y under its weights W, and
        the row's distances to every center, (2, B, 2) and (B, n)."""
        rel = (Y[0].take(self.coords, axis=1) - self.centers).reshape(len(W), -1, 2)
        sq = rel * rel
        r2 = sq[..., 0] + sq[..., 1]    # rounds as einsum("bij,bij->bi"), at half the cost
        r = np.sqrt(r2)
        w = -(W / (r2 * r))
        K = np.empty_like(Y)
        K[0] = self.velocity(Y[1])
        np.matmul(w[:, None, :], rel, out=K[1][:, None, :])
        return K, r

    def field_distance(self, Y, W):
        """K of each row of Y and its distance to the nearest center, (B,)."""
        K, r = self._field(Y, W)
        return K, r.T.min(axis=0)

    @staticmethod
    def step_sizes(D, H, k_near: float) -> np.ndarray:
        """Step min(h_far, k_near d^{3/2}) of each row from its distance D to N
        and its far-field step H.

        np.float_power calls the C pow, which rounds d**1.5 as Python's float
        power does; np.power rounds it differently on about 5% of distances.
        fmin keeps h_far where d is nan, as min(h, nan) does.
        """
        return np.fmin(H, k_near * np.float_power(D, 1.5))

    def velocity(self, P):
        return P if self.unit_mass else (self.minv @ P[:, :, None])[:, :, 0]

    def rk4(self, Y, dt, K, W):
        """One step of each row under its weights W; K = _field(Y, W)[0],
        which the caller already has from the distance check at Y."""
        dt = dt[:, None]
        half = 0.5 * dt
        K2 = self._field(Y + half * K, W)[0]
        K3 = self._field(Y + half * K2, W)[0]
        K4 = self._field(Y + dt * K3, W)[0]
        return Y + dt / 6.0 * (K + 2 * K2 + 2 * K3 + K4)


# ---------------------------------------------------------------------------
# Two-body deflection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflectionData:
    r_p: float                  # periapsis distance
    impact_parameter: float     # asymptote offset from the center
    chi: float                  # turning angle between asymptotes


def rutherford_deflection(kappa: float, E: float, u_in: np.ndarray,
                          u_out: np.ndarray) -> DeflectionData:
    """Attracting two-body hyperbola matching the given asymptote turn.

    kappa = mu * alpha is the gravitational parameter of the local passage;
    the turn chi between unit asymptote directions fixes the impact parameter
    b = kappa / (v^2 tan(chi/2)) and periapsis r_p = (kappa/v^2)(1/sin(chi/2) - 1).
    Both asymptotes pass the center on the outer side of the turn.
    """
    v2 = 2.0 * E
    chi = float(np.arccos(np.clip(np.asarray(u_in, dtype=float) @ u_out, -1.0, 1.0)))
    if chi < 1e-12:
        raise SingularShadowError("straight continuation: no deflection to match")
    if np.pi - chi < 1e-12:
        raise SingularShadowError("head-on reversal: collision orbit required")
    b = kappa / (v2 * np.tan(chi / 2.0))
    r_p = (kappa / v2) * (1.0 / np.sin(chi / 2.0) - 1.0)
    return DeflectionData(float(r_p), float(b), chi)


# ---------------------------------------------------------------------------
# Multiple-shooting shadow experiment
# ---------------------------------------------------------------------------

@dataclass
class SingularShadowRow:
    mu: float
    converged: bool
    sup_error: float
    min_distance: float
    predicted_r_p: float
    residual: float             # the Newton's last |R|; nan if the predictor failed
    iterations: int
    reason: str = ""            # why the row failed; empty when it converged


_FD_STEP = 1e-7     # central-difference step of every shooting unknown (offset, angle)


@lru_cache(maxsize=None)
def _gauss_legendre():
    """Nodes and weights of the Born quadrature on [0, 1], made on first use
    (numpy.polynomial is not imported with the package)."""
    x, w = np.polynomial.legendre.leggauss(64)
    return (x + 1.0) / 2.0, w / 2.0


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _turn(p, p2):
    """Signed angle from the direction of p to that of p2."""
    return float(np.arctan2(_cross(p, p2), p @ p2))


class _ChainShooting:
    """One mu-value multiple-shooting problem over a periodic polygon chain.

    Node j sits on section j, the perpendicular bisector of link j: anchored
    at the chord's midpoint, normal along the chord. Its unknowns are the
    offset xi along the chord's left normal and the momentum angle theta,
    with |p| from the energy shell H = E. Flight j runs from node j through
    the passage at center j+1 to section j+1, far field to far field, and its
    residual is the offset mismatch there and the turn from node j+1's
    direction to the arrival's. Planar chains, unit mass.
    """

    def __init__(self, sp: SingularPerturbation, centers: List[int],
                 directions: List[np.ndarray], E: float):
        if sp.base.dim != 2:
            raise NonPlanarChainError(f"centers in dimension {sp.base.dim}: the chain "
                                      "shooting and its predictor are planar")
        self.sp = sp
        self.centers = centers          # point ids, one per collision
        self.E = E
        self.n = len(centers)
        self.points = [sp.scatterer.embed(i) for i in centers]
        self.speed = np.sqrt(2.0 * E)
        self.dirs = np.array(directions, dtype=float)   # unit chord directions, one per link
        self.lefts = self.dirs[:, ::-1] * [-1.0, 1.0]   # their left normals
        ends = np.array(self.points)
        self.mids = 0.5 * (ends + np.roll(ends, -1, axis=0))    # section anchors
        self.lengths = np.linalg.norm(np.roll(ends, -1, axis=0) - ends, axis=1)
        self.weights = sp.mu * sp.alphas
        self.defl = [rutherford_deflection(self.weights[c], E, self.dirs[j - 1], self.dirs[j])
                     for j, c in enumerate(centers)]
        flown = 0.5 * (self.lengths + np.roll(self.lengths, -1))
        self.budgets = 4.0 * (flown / self.speed + 1.0)     # time per flight
        self.r_detect = 0.45 * self.lengths.min()
        self.h_far = 0.02 * self.lengths.min() / self.speed
        self.kernel = _PointCenterKernel(sp)

    def node_state(self, j, x):
        """[q, p] of node j at its unknowns x = (xi, theta)."""
        q = self.mids[j] + x[0] * self.lefts[j]
        r = np.linalg.norm(self.sp.scatterer.points - q, axis=1)
        speed = np.sqrt(2.0 * (self.E + self.weights @ (1.0 / r)))
        return np.array([q, speed * np.array([np.cos(x[1]), np.sin(x[1])])])

    def first_order_offsets(self, t):
        """Offset along each chord's left normal of the first-order chain at
        the chord fractions t, and its slope, (n, len(t)) each (Bolotin &
        MacKay's anti-integrable limit, corrected at first order in mu).

        Between the signed asymptote offsets of the passages at its two ends
        (each on the outer side of its turn), a link is the straight line plus
        the Born deflection y'' = F_perp / v^2 by the other centers, pinned at
        both ends: the quadrature of F_perp against the chord's Green's
        function s_<(L - s_>)/L, on each side of s.
        """
        x, w = _gauss_legendre()
        pts = self.sp.scatterer.points
        beta = [-d.impact_parameter * np.sign(_cross(self.dirs[j - 1], self.dirs[j]))
                for j, d in enumerate(self.defl)]
        offsets, slopes = [], []
        for j in range(self.n):
            L, u = self.lengths[j], self.dirs[j]
            ids = [i for i in range(len(pts))
                   if i not in (self.centers[j], self.centers[(j + 1) % self.n])]
            s = np.asarray(t, dtype=float)[:, None] * L
            sig = np.array([s * x, s + (L - s) * x])    # chord nodes below and above s
            rel = pts[ids] - (self.points[j] + sig[..., None, None] * u)
            pull = np.sum(self.weights[ids] * (rel @ self.lefts[j])     # F_perp / v^2
                          / np.sum(rel * rel, axis=-1)**1.5, axis=-1) / (2.0 * self.E)
            below = np.sum(s * w * sig[0] * pull[0], axis=1)
            above = np.sum((L - s) * w * (L - sig[1]) * pull[1], axis=1)
            s = s[:, 0]
            rise = beta[(j + 1) % self.n] - beta[j]
            offsets.append(beta[j] + rise * s / L - ((L - s) * below + s * above) / L)
            slopes.append((rise + below - above) / L)
        return np.array(offsets), np.array(slopes)

    def predictor(self):
        """The first-order chain at each section: the mid-chord offset, and
        the chord direction turned by the mid-chord slope."""
        y, dy = self.first_order_offsets([0.5])
        theta = np.arctan2(self.dirs[:, 1], self.dirs[:, 0]) + dy[:, 0]
        return np.column_stack([y[:, 0], theta]).ravel()

    def _section(self, Q, A, N):
        """Signed offset of each row past its section plane (A, N), and its
        distance to the section's anchor A."""
        rel = Q - A
        phi = (rel[:, None, :] @ N[:, :, None])[:, 0, 0]
        return phi, np.sqrt((rel[:, None, :] @ rel[:, :, None])[:, 0, 0])

    def fly_link(self, rows, collect=()):
        """Flow each row (shooter, start node j, its unknowns x) from node j of
        its shooter until it crosses that shooter's section j+1 near its anchor;
        all rows step in lockstep, each under its shooter's mu, exclusion
        radius, far-field step, detection radius and time budget. The
        shooters of one call share this one's space, centers and mass.

        Returns one outcome per row: (q_hit, p_hit, dmin, path), where path
        holds the samples of the rows whose index is in collect and is None
        otherwise, or the SingularShadowError / ExclusionRadiusError that
        ended the row.
        """
        kernel = self.kernel
        shooters = [s for s, _, _ in rows]
        starts = [j for _, j, _ in rows]
        targets = [(j + 1) % s.n for s, j in zip(shooters, starts)]
        Y = np.array([s.node_state(j, x) for s, j, x in rows]).transpose(1, 0, 2)
        A = np.array([s.mids[jn] for s, jn in zip(shooters, targets)])
        N = np.array([s.dirs[jn] for s, jn in zip(shooters, targets)])
        W = np.array([s.weights for s in shooters])
        budget = np.array([s.budgets[j] for s, j in zip(shooters, starts)])
        r_min = np.array([s.sp.r_min for s in shooters])
        H = np.array([s.h_far for s in shooters])
        r_detect = np.array([s.r_detect for s in shooters])
        T = np.zeros(len(rows))
        K, D = kernel.field_distance(Y, W)
        dmin = D.copy()
        phi, dist = self._section(Y[0], A, N)
        near = dist < r_detect
        out = [None] * len(rows)
        live = np.arange(len(rows))
        sections = A, N, W
        hits = []                       # per crossing step: ids, states, fields, steps, dmin
        trail = [(live, Y)]             # every step's ids and states, for the paths

        def drop(mask):
            nonlocal live, Y, K, A, N, W, budget, r_min, H, r_detect, T, D, dmin, phi, near
            keep = ~mask
            Y, K = Y[:, keep], K[:, keep]
            live, A, N, W, budget, r_min, H, r_detect, T, D, dmin, phi, near = (
                x[keep] for x in (live, A, N, W, budget, r_min, H, r_detect, T, D, dmin,
                                  phi, near))

        while live.size:
            stop = (T >= budget) | (D <= r_min)
            if stop.any():
                for k in np.flatnonzero(stop):
                    i = live[k]
                    out[i] = (SingularShadowError(f"link {starts[i]} missed section {targets[i]}")
                              if T[k] >= budget[k] else ExclusionRadiusError(
                                  f"approach {D[k]:.3e} inside exclusion radius {r_min[k]:.3e}"))
                drop(stop)
                continue
            dt = kernel.step_sizes(D, H, 0.2)
            Y2 = kernel.rk4(Y, dt, K, W)
            K2, D2 = kernel.field_distance(Y2, W)
            dmin = np.minimum(dmin, D2)
            phi2, dist2 = self._section(Y2[0], A, N)
            near2 = dist2 < r_detect
            hit = near2 & near & (phi < 0.0) & (phi2 >= 0.0)
            if hit.any():
                hits.append((live[hit], Y[:, hit], K[:, hit], dt[hit], dmin[hit]))
            Y, K, T, D, phi, near = Y2, K2, T + dt, D2, phi2, near2
            if hit.any():
                drop(hit)
            if collect:
                trail.append((live, Y))
        if hits:
            ids, Ys, Ks, dts, dmins = zip(*hits)
            ids = np.concatenate(ids)
            q_hit, p_hit = self._bisect(np.concatenate(Ys, axis=1), np.concatenate(Ks, axis=1),
                                        np.concatenate(dts), *(x[ids] for x in sections))
            for i, q, p, dm in zip(ids.tolist(), q_hit, p_hit, np.concatenate(dmins).tolist()):
                out[i] = (q, p, dm, None)
        if collect:
            ids = np.concatenate([ids for ids, _ in trail])
            pts = np.concatenate([y for _, y in trail], axis=1)[0]
            for i in collect:
                if not isinstance(out[i], Exception):
                    out[i] = out[i][:3] + (np.vstack([pts[ids == i], out[i][0]]),)
        return out

    def _bisect(self, Y, K, dt, A, N, W):
        """Section crossing of each row inside its step [0, dt], in lockstep;
        K is the field at Y under the weights W."""
        kernel = self.kernel
        lo, hi = np.zeros(len(dt)), dt.copy()
        tol = 1e-15 * np.maximum(dt, 1.0)
        act = np.arange(len(dt))
        for _ in range(80):
            mid = 0.5 * (lo[act] + hi[act])
            qm = kernel.rk4(Y[:, act], mid, K[:, act], W[act])[0]
            below = self._section(qm, A[act], N[act])[0] < 0
            lo[act] = np.where(below, mid, lo[act])
            hi[act] = np.where(below, hi[act], mid)
            act = act[~(hi[act] - lo[act] < tol[act])]
            if not act.size:
                break
        return kernel.rk4(Y, 0.5 * (lo + hi), K, W)

    # --- Newton as generators of flights: residual, jacobian and newton yield
    # (rows, k), the rows they need flown with the paths of the first k, and
    # receive those rows' outcomes from _lockstep ---

    def _arrival(self, j, flight):
        """Offset of flight j's hit on section j+1, and its momentum."""
        q, p = flight[:2]
        jn = (j + 1) % self.n
        return (q - self.mids[jn]) @ self.lefts[jn], p

    def residual(self, U, stencil):
        """Residual at U, least distance to N and each flight's path, from one
        flight: per flight, its arrival's offset minus node j+1's and the turn
        from node j+1's direction to the arrival's. With stencil set, the
        perturbed flights of the Jacobian at U fly in the same flight; their
        outcomes come fourth (None without)."""
        X = U.reshape(self.n, 2)
        extra = self._stencil_rows(U) if stencil else []
        flights = yield [(self, j, X[j]) for j in range(self.n)] + extra, self.n
        res = []
        for j, flight in enumerate(flights[:self.n]):
            if isinstance(flight, Exception):
                raise flight
            xi, p = self._arrival(j, flight)
            xi_next, theta = X[(j + 1) % self.n]
            res += [xi - xi_next, _turn(np.array([np.cos(theta), np.sin(theta)]), p)]
        return (np.array(res), float(min(flight[2] for flight in flights[:self.n])),
                [flight[3] for flight in flights[:self.n]], flights[self.n:] if stencil else None)

    def _stencil_rows(self, U):
        """The (+h, -h) perturbed node of each unknown, as flight rows."""
        X = U.reshape(self.n, 2)
        rows = []
        for c in range(U.size):
            for sign in (1.0, -1.0):
                x = X[c // 2].copy()
                x[c % 2] += sign * _FD_STEP
                rows.append((self, c // 2, x))
        return rows

    def jacobian(self, U, flights):
        """Shooting Jacobian at U: -I couplings plus central differences of
        each flight's arrival. All 4n perturbed flights fly in one flight,
        unless their outcomes are given as flights (flown with the residual at
        U); a failed one fails the Jacobian."""
        J = -np.roll(np.eye(U.size), 2, axis=1)     # residual block j against node j+1
        if flights is None:
            flights = yield self._stencil_rows(U), 0
        for c in range(U.size):
            j = c // 2
            plus, minus = flights[2 * c], flights[2 * c + 1]
            if isinstance(plus, Exception) or isinstance(minus, Exception):
                raise SingularShadowError(f"finite differences infeasible at node {j}")
            (xi_p, p_p), (xi_m, p_m) = self._arrival(j, plus), self._arrival(j, minus)
            J[2 * j:2 * j + 2, c] += np.array([xi_p - xi_m, _turn(p_m, p_p)]) / (2 * _FD_STEP)
        return J

    def newton(self):
        """dls.damped_newton over the flights from the predictor: (U, |R|,
        iterations, dmin, paths).

        Converged at |R| <= 1e-8 sqrt(2E); after 30 iterations of 25 trials
        it fails. A trial whose flight fails or passes a center inside r_p / 5
        is refused. A full-step trial flies its Jacobian's stencil too, kept
        if accepted. A failure after the predictor's flight keeps the last |R|
        and iteration count in its SingularShadowError."""
        tol, scale = 1e-8, self.speed
        dmin_floor = min(dd.r_p for dd in self.defl) / 5.0
        started = []            # |R| at the start of each iteration

        def step(state):
            U, R, _, _, stencil = state
            started.append(np.linalg.norm(R, ord=np.inf))
            J = yield from self.jacobian(U, stencil)
            try:
                return np.linalg.solve(J, -R)
            except np.linalg.LinAlgError as exc:
                raise SingularShadowError("singular shooting Jacobian") from exc

        def trial(state, dU, lam):
            U = state[0] + lam * dU
            try:
                flown = yield from self.residual(U, lam == 1.0)
            except (SingularShadowError, ExclusionRadiusError):
                return None
            if flown[1] >= dmin_floor:
                return (U, *flown), np.linalg.norm(flown[0], ord=np.inf)
            return None

        U = self.predictor()
        R, dmin, paths, stencil = yield from self.residual(U, True)
        try:
            (U, _, dmin, paths, _), rn, it, status = yield from dlsmod.damped_newton(
                (U, R, dmin, paths, stencil), np.linalg.norm(R, ord=np.inf),
                lambda _, rn: rn <= tol * scale, step, trial, 30, 25)
        except SingularShadowError as exc:
            raise SingularShadowError(str(exc), started[-1], len(started) - 1) from exc
        if status != "converged":
            raise SingularShadowError(f"Newton {status}: |R| = {rn:.2e}", rn, it)
        return U, rn, it, dmin, paths

    def solve(self):
        """This shooting's Newton driven alone: (U, |R|, iterations, dmin, paths)."""
        (out,) = _lockstep([self.newton()])
        if isinstance(out, Exception):
            raise out
        return out

    def sup_error_to_chain(self, paths) -> float:
        """Sup distance of the flown link paths to the chain polygon."""
        a = np.asarray(self.points, dtype=float)
        b = a + (np.roll(a, -1, axis=0) - a)    # the rounding the reported errors have
        return self.sp.base.space.sup_segment_distance(np.concatenate(paths), a, b)


def _lockstep(runs) -> list:
    """Drive shooting generators together. Each round flies every row that
    the unfinished ones ask for in one fly_link call and sends each its own
    outcomes. Returns what each run returned, or the SingularShadowError or
    ExclusionRadiusError that ended it while the others went on."""
    results = [None] * len(runs)
    asks = {}

    def advance(k, outcomes):
        try:
            asks[k] = runs[k].send(outcomes)
        except StopIteration as done:
            results[k] = done.value
        except (SingularShadowError, ExclusionRadiusError) as exc:
            results[k] = exc

    for k in range(len(runs)):
        advance(k, None)
    while asks:
        rows, collect, spans = [], [], []
        for k, (ask, keep) in asks.items():
            collect += range(len(rows), len(rows) + keep)
            spans.append((k, len(rows), len(rows) + len(ask)))
            rows += ask
        asks.clear()
        flights = rows[0][0].fly_link(rows, collect)
        for k, a, b in spans:
            advance(k, flights[a:b])
    return results


def shadow_experiment(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                      mu_list: Sequence[float],
                      alphas: np.ndarray) -> List[SingularShadowRow]:
    """Near-collision shadowing of a polygon chain under a mu-sweep.

    For each mu, a multiple-shooting Newton from the first-order chain finds
    the periodic orbit of energy E through the chords' perpendicular
    bisectors; the Newtons of all mu run in lockstep, and a failure ends only
    its own row, which keeps its last |R| and iteration count. Rows report
    convergence, the sup distance to the chain and the minimum approach
    distance. alphas holds one force coefficient per center. Not a
    proof-grade certificate.
    """
    scat = dl.scatterer
    if not isinstance(scat, PointScatterer):
        raise ValueError("the experiment runs on point-center chains")
    if c.bc != "periodic":
        raise ValueError("periodic chains only")
    reports = dlsmod.admissible(dl, c, attracting=True)
    bad = [r.site for r in reports if not r.admissible]
    if bad:
        raise SingularShadowError(f"chain inadmissible at sites {bad}")

    E = dl.energy
    n = c.n_links
    centers = [dl.site_bases(c, i) for i in range(n)]
    dirs = [p / np.linalg.norm(p) for _, p, _ in dlsmod.momentum_jumps(dl, c)]

    base = ClassicalHamiltonian(scat.space)     # free flight among the centers
    shooters = [_ChainShooting(SingularPerturbation(base, scat, float(mu), alphas=alphas),
                               centers, dirs, E) for mu in mu_list]
    rows: List[SingularShadowRow] = []
    for shooter, out in zip(shooters, _lockstep([s.newton() for s in shooters])):
        mu = shooter.sp.mu
        predicted = min(d.r_p for d in shooter.defl)
        if isinstance(out, Exception):
            rows.append(SingularShadowRow(mu, False, np.nan, np.nan, predicted,
                                          getattr(out, "residual", np.nan),
                                          getattr(out, "iterations", 0),
                                          f"{type(out).__name__}: {out}"))
        else:
            _, rn, it, dmin, paths = out
            rows.append(SingularShadowRow(mu, True, shooter.sup_error_to_chain(paths),
                                          dmin, predicted, float(rn), it))
    return rows
