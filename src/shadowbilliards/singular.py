"""Flows with Newtonian singularities at point centers, and their shadow orbits.

The perturbed Hamiltonian adds mu * V to free flight, with
V = -sum_i alpha_i / |q - a_i| over the centers a_i (attracting for
alpha_i > 0). Near-collision passages are resolved by shrinking the
integration step like d^{3/2}; no regularization is performed, and approaches
inside the exclusion radius mu^2 abort a flight. The shadowing experiment is a
multiple shooting Newton over the chain with one section plane per collision,
seeded by the two-body deflection that matches the chain's momentum jumps.

All integration goes through one RK4 kernel on stacked planar states
[q, p], with a step and center weights mu * alpha per row; a lockstep step
of any number of rows is a fixed number of whole-array numpy calls. The
Newton solves of a whole mu sweep run in lockstep, one call per round: it
flies every row that the unfinished solves ask for (the links of a full-step
trial with every perturbed link of the central-difference Jacobian there, a
Jacobian's retried columns, a line-search trial). Each row keeps its own mu,
section, time budget, minimum distance and outcome, and its numbers are
bit-equal to the row flown alone. The rows that cross their sections keep
the step that crossed and are bisected together after the last step: one
bisection per flight. The flights run on Euclidean space only.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Multiple-shooting Newton for the singular flow failed."""


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
# Two-body deflection predictor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflectionData:
    periapsis: np.ndarray       # predicted closest-approach point
    momentum: np.ndarray        # momentum at periapsis
    r_p: float
    impact_parameter: float
    chi: float                  # turning angle between asymptotes


def rutherford_deflection(center: np.ndarray, kappa: float, E: float,
                          u_in: np.ndarray, u_out: np.ndarray) -> DeflectionData:
    """Attracting two-body hyperbola matching the given asymptote turn.

    kappa = mu * alpha is the gravitational parameter of the local passage;
    the turn chi between unit asymptote directions fixes the impact parameter
    b = kappa / (v^2 tan(chi/2)) and periapsis r_p = (kappa/v^2)(1/sin(chi/2) - 1),
    with the periapsis on the -(u_out - u_in) side.
    """
    u_in = np.asarray(u_in, dtype=float)
    u_out = np.asarray(u_out, dtype=float)
    v2 = 2.0 * E
    cosc = float(np.clip(u_in @ u_out, -1.0, 1.0))
    chi = float(np.arccos(cosc))
    if chi < 1e-12:
        raise SingularShadowError("straight continuation: no deflection to match")
    if np.pi - chi < 1e-12:
        raise SingularShadowError("head-on reversal: collision orbit required")
    shalf = np.sin(chi / 2.0)
    b = kappa / (v2 * np.tan(chi / 2.0))
    r_p = (kappa / v2) * (1.0 / shalf - 1.0)
    apse = (u_in - u_out)
    apse = apse / np.linalg.norm(apse)
    tdir = (u_in + u_out)
    tdir = tdir / np.linalg.norm(tdir)
    v_p = np.sqrt(v2 + 2.0 * kappa / r_p)
    return DeflectionData(np.asarray(center) + r_p * apse, v_p * tdir,
                          float(r_p), float(b), chi)


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
    residual: float
    iterations: int
    reason: str = ""            # why the row failed; empty when it converged


def _plane_basis(normal: np.ndarray) -> np.ndarray:
    d = normal.size
    M = np.eye(d) - np.outer(normal, normal)
    q, r = np.linalg.qr(M)
    cols = [q[:, i] for i in range(d) if abs(r[i, i]) > 1e-10]
    return np.column_stack(cols[:d - 1])


_FD_REL = 1e-7      # central-difference step of the shooting Jacobian, relative to
                    # the norm of each node's unknowns


class _ChainShooting:
    """One mu-value multiple-shooting problem over a periodic polygon chain."""

    def __init__(self, sp: SingularPerturbation, centers: List[int],
                 directions: List[np.ndarray], E: float):
        if sp.base.dim != 2:
            raise NonPlanarChainError(f"centers in dimension {sp.base.dim}: the chain "
                                      "shooting and its predictor are planar")
        self.sp = sp
        self.centers = centers          # point ids, one per collision
        self.dirs = directions          # unit outgoing directions, one per link
        self.E = E
        self.n = len(centers)
        self.points = [sp.scatterer.embed(i) for i in centers]
        self.speed = np.sqrt(2.0 * E)
        self.normals = []
        self.bases = []
        self.defl = []
        link_lengths = []
        for j in range(self.n):
            u_in = self.dirs[(j - 1) % self.n]
            u_out = self.dirs[j]
            kappa = sp.mu * sp.alphas[centers[j]]
            defl = rutherford_deflection(self.points[j], kappa, E, u_in, u_out)
            self.defl.append(defl)
            tdir = (u_in + u_out)
            tdir /= np.linalg.norm(tdir)
            self.normals.append(tdir)
            self.bases.append(_plane_basis(tdir))
            link_lengths.append(np.linalg.norm(self.points[(j + 1) % self.n] - self.points[j]))
        self.budgets = [4.0 * (L / self.speed + 1.0) for L in link_lengths]  # time per link
        self.r_detect = 0.45 * min(link_lengths)
        self.h_far = 0.02 * min(link_lengths) / self.speed
        self.weights = sp.mu * sp.alphas
        self.kernel = _PointCenterKernel(sp)

    # --- unknown packing: per node, d-1 plane coordinates and d momentum ---

    def pack(self, xi_list, p_list):
        return np.concatenate([np.concatenate([xi, p]) for xi, p in zip(xi_list, p_list)])

    def unpack(self, U):
        d = self.sp.base.dim
        blocks = U.reshape(self.n, 2 * d - 1)
        return list(blocks[:, :d - 1]), list(blocks[:, d - 1:])

    def node_state(self, j, xi):
        return self.defl[j].periapsis + self.bases[j] @ xi

    def _ballistic_correction(self):
        """First-order mean-field correction of the two-body predictor.

        Far centers bend each link by an angle comparable to the local impact
        parameter over inverse energy, so the raw two-body periapsis states sit
        at the edge of the Newton basin. Integrating the background force along
        the straight links gives the asymptote-offset defect of every passage;
        rotating each local hyperbola about its focus cancels it. Planar
        chains only.
        """
        pts = self.sp.scatterer.points
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        angles = []
        for j in range(self.n):
            cj, cn = self.centers[j], self.centers[(j + 1) % self.n]
            a0 = self.points[j]
            disp = self.points[(j + 1) % self.n] - a0
            L = np.linalg.norm(disp)
            tau = L / self.speed
            others = [i for i in range(len(pts)) if i not in (cj, cn)]
            ts = np.linspace(0.0, 1.0, 256)
            F = np.zeros((ts.size, 2))
            for i in others:
                rel = a0[None, :] + ts[:, None] * disp[None, :] - pts[i]
                r2 = np.einsum("kj,kj->k", rel, rel)
                F -= self.sp.mu * self.sp.alphas[i] * rel / (r2 * np.sqrt(r2))[:, None]
            dxe = np.trapezoid((1.0 - ts)[:, None] * F, ts, axis=0) * tau**2

            n_hat = rot90 @ (disp / L)
            u_out = self.dirs[j]
            u_in_next = self.dirs[j]
            d_out = self.defl[j]
            d_in = self.defl[(j + 1) % self.n]
            p_out = d_out.periapsis - self.points[j]
            p_in = d_in.periapsis - self.points[(j + 1) % self.n]
            off_out = p_out - (p_out @ u_out) * u_out
            off_in = p_in - (p_in @ u_in_next) * u_in_next
            b_out = self.defl[j].impact_parameter * np.sign(off_out @ n_hat) \
                if np.linalg.norm(off_out) else 0.0
            b_in = d_in.impact_parameter * np.sign(off_in @ n_hat) \
                if np.linalg.norm(off_in) else 0.0
            angles.append(float((b_in - b_out - dxe @ n_hat) / L))
        return angles

    def predictor(self):
        xi = [np.zeros(self.sp.base.dim - 1) for _ in range(self.n)]
        p = [self.defl[j].momentum.copy() for j in range(self.n)]
        angles = self._ballistic_correction()
        for j in range(self.n):
            ca, sa = np.cos(angles[j]), np.sin(angles[j])
            R = np.array([[ca, -sa], [sa, ca]])
            p[j] = R @ p[j]
            peri = self.defl[j].periapsis - self.points[j]
            xi[j] = self.bases[j].T @ (R @ peri - peri)
        return self.pack(xi, p)

    def _section(self, Q, A, N):
        """Signed offset of each row past its section plane (A, N), and its
        distance to the section's center A."""
        rel = Q - A
        phi = (rel[:, None, :] @ N[:, :, None])[:, 0, 0]
        return phi, np.sqrt((rel[:, None, :] @ rel[:, :, None])[:, 0, 0])

    def fly_link(self, rows, collect=()):
        """Flow each row (shooter, start node j, xi, p) from node j of its
        shooter until it crosses that shooter's section j+1 near its center;
        all rows step in lockstep, each under its shooter's mu, exclusion
        radius, far-field step, detection radius and time budget. The
        shooters of one call share this one's space, centers and mass.

        Returns one outcome per row: (q_hit, p_hit, dmin, path), where path
        holds the samples of the rows whose index is in collect and is None
        otherwise, or the SingularShadowError / ExclusionRadiusError that
        ended the row.
        """
        kernel = self.kernel
        shooters = [s for s, _, _, _ in rows]
        starts = [j for _, j, _, _ in rows]
        targets = [(j + 1) % s.n for s, j in zip(shooters, starts)]
        Y = np.array([[s.node_state(j, xi) for s, j, xi, _ in rows],
                      [p for _, _, _, p in rows]], dtype=float)
        A = np.array([s.points[jn] for s, jn in zip(shooters, targets)])
        N = np.array([s.normals[jn] for s, jn in zip(shooters, targets)])
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

    def residual(self, U, fd_rel):
        """Residual at U, least distance to N and each link's path, from one
        flight. With fd_rel the stencil rows of the Jacobian at U fly in the
        same flight; their outcomes come fourth (None without fd_rel)."""
        xi_list, p_list = self.unpack(U)
        stencil = self._stencil_rows(U, self._fd_steps(U, fd_rel)) if fd_rel else []
        flights = yield [(self, j, xi_list[j], p_list[j]) for j in range(self.n)] + stencil, self.n
        res = []
        dmin = np.inf
        for j, flight in enumerate(flights[:self.n]):
            if isinstance(flight, Exception):
                raise flight
            q_hit, p_hit, dm, _ = flight
            jn = (j + 1) % self.n
            dmin = min(dmin, dm)
            res.append(self.bases[jn].T @ (q_hit - self.defl[jn].periapsis) - xi_list[jn])
            res.append(p_hit - p_list[jn])
        return (np.concatenate(res), float(dmin), [flight[3] for flight in flights[:self.n]],
                flights[self.n:] if fd_rel else None)

    def _fd_steps(self, U, fd_rel):
        """Central-difference step of every unknown, scaled by its node's block."""
        per = 2 * self.sp.base.dim - 1
        return [fd_rel * max(1.0, np.linalg.norm(U[j * per:(j + 1) * per]))
                for j in range(self.n) for _ in range(per)]

    def _stencil_rows(self, U, hs, cols=None):
        """The (+h, -h) perturbed link of each column (all columns by default)."""
        d = self.sp.base.dim
        per = 2 * d - 1
        rows = []
        for c in range(per * self.n) if cols is None else cols:
            j = c // per
            for sign in (1.0, -1.0):
                blk = U[j * per:(j + 1) * per].copy()
                blk[c % per] += sign * hs[c]
                rows.append((self, j, blk[:d - 1], blk[d - 1:]))
        return rows

    def jacobian(self, U, fd_rel, flights):
        """Shooting Jacobian at U: -I couplings plus central differences.

        All 2 (2d - 1) n perturbed links fly in one flight, unless their
        outcomes are given as flights (flown with the residual at U). A
        column with a failed flight is flown again at a quarter of its step,
        at most four times in all.
        """
        per = 2 * self.sp.base.dim - 1
        size = per * self.n  # analytic coupling of residual block j to node j+1: -I
        J = np.zeros((size, size)) - np.roll(np.eye(size), per, axis=1)
        hs = self._fd_steps(U, fd_rel)
        pending = list(range(size))
        for _ in range(4):
            if flights is None:
                flights = yield self._stencil_rows(U, hs, pending), 0
            failed = []
            for m, c in enumerate(pending):
                plus, minus = flights[2 * m], flights[2 * m + 1]
                if isinstance(plus, Exception) or isinstance(minus, Exception):
                    hs[c] *= 0.25
                    failed.append(c)
                    continue
                j = c // per
                jn = (j + 1) % self.n
                h = hs[c]
                drel = (plus[0] - minus[0]) / (2 * h)
                dcol = np.concatenate([self.bases[jn].T @ drel, (plus[1] - minus[1]) / (2 * h)])
                J[j * per:(j + 1) * per, c] += dcol
            pending, flights = failed, None
            if not pending:
                return J
        raise SingularShadowError(
            f"finite differences infeasible at node {pending[0] // per}")

    def newton(self):
        """dls.damped_newton over the flights: (U, |R|, iterations, dmin, paths).

        Stops at |R| <= 1e-8 sqrt(2E) or after 30 iterations of 25 trials,
        accepts up to 30 times that residual, and refuses a trial whose flight
        fails or passes a center inside r_p / 5. A full-step trial flies its
        Jacobian's stencil too, kept if accepted."""
        tol, scale = 1e-8, self.speed
        dmin_floor = min(dd.r_p for dd in self.defl) / 5.0

        def step(state):
            U, R, _, _, stencil = state
            J = yield from self.jacobian(U, _FD_REL, stencil)
            try:
                return np.linalg.solve(J, -R)
            except np.linalg.LinAlgError as exc:
                raise SingularShadowError("singular shooting Jacobian") from exc

        def trial(state, dU, lam):
            U = state[0] + lam * dU
            try:
                flown = yield from self.residual(U, _FD_REL if lam == 1.0 else None)
            except (SingularShadowError, ExclusionRadiusError):
                return None
            if flown[1] >= dmin_floor:
                return (U, *flown), np.linalg.norm(flown[0], ord=np.inf)
            return None

        U = self.predictor()
        R, dmin, paths, stencil = yield from self.residual(U, _FD_REL)
        (U, _, dmin, paths, _), rn, it, status = yield from dlsmod.damped_newton(
            (U, R, dmin, paths, stencil), np.linalg.norm(R, ord=np.inf),
            lambda _, rn: rn <= tol * scale, step, trial, 30, 25)
        if rn > 30 * tol * scale:   # above the finite-difference noise floor
            raise SingularShadowError(f"Newton {status}: |R| = {rn:.2e}")
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

    For each mu, a multiple-shooting Newton matches the local two-body
    deflections to the chain's momentum jumps; the Newtons of all mu run in
    lockstep, and a failure ends only its own row. Rows report convergence,
    the sup distance to the chain and the minimum approach distance. alphas
    holds one force coefficient per center. Not a proof-grade certificate.
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
            rows.append(SingularShadowRow(mu, False, np.nan, np.nan, predicted, np.nan, 0,
                                          f"{type(out).__name__}: {out}"))
        else:
            _, rn, it, dmin, paths = out
            rows.append(SingularShadowRow(mu, True, shooter.sup_error_to_chain(paths),
                                          dmin, predicted, float(rn), it))
    return rows
