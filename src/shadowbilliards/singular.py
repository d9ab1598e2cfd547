"""Flows with Newtonian singularities on the scatterer, and their shadow orbits.

The perturbed Hamiltonian adds mu * V to a classical base, where V has a
Newtonian singularity -phi / d(q, N) on the scatterer (attracting for
phi > 0). Near-collision passages are resolved by shrinking the integration
step like d^{3/2}; no regularization is performed, and approaches inside the
exclusion radius abort the run. The shadowing experiment is a multiple
shooting Newton over the chain with one section plane per collision, seeded
by the two-body deflection that matches the chain's momentum jumps.

All integration goes through one RK4 kernel on (B, d) rows with a step per
row. The shooting flies every link of a residual, and every perturbed link
of a central-difference Jacobian, in one lockstep call; each row keeps its
own section, time budget, minimum distance and outcome, and its numbers are
bit-equal to the row flown alone. flow_singular flies one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import dls as dlsmod
from .dynamics import (ClassicalHamiltonian, DomainError, PhaseState,
                       StepUnderflowError, Trajectory, central_diff)
from .scatterer import PointScatterer, Scatterer


class ExclusionRadiusError(RuntimeError):
    """Trajectory entered the exclusion radius around the singular set."""


class SingularShadowError(RuntimeError):
    """Multiple-shooting Newton for the singular flow failed."""


@dataclass
class SingularPerturbation:
    """H_mu = H_base + mu V with V = -phi(q, mu) / d(q, N).

    For a point scatterer the classical form V = -sum_i alpha_i / |q - a_i|
    is used (alphas positive: attracting force).
    """

    base: ClassicalHamiltonian
    scatterer: Scatterer
    mu: float
    alphas: Optional[np.ndarray] = None
    phi: Optional[Callable[[np.ndarray, float], float]] = None
    exclusion_guard: float = 1.0

    def __post_init__(self):
        if isinstance(self.scatterer, PointScatterer):
            n = len(self.scatterer)
            if self.alphas is None:
                self.alphas = np.ones(n)
            self.alphas = np.asarray(self.alphas, dtype=float)
            if self.alphas.shape != (n,):
                raise ValueError("one coefficient per center required")
        elif self.phi is None:
            raise ValueError("submanifold scatterers need an explicit phi")

    @property
    def r_min(self) -> float:
        return self.exclusion_guard * self.mu**2

    def distance(self, q) -> float:
        return self.scatterer.distance(np.asarray(q, dtype=float))

    def potential(self, q) -> float:
        q = np.asarray(q, dtype=float)
        if isinstance(self.scatterer, PointScatterer):
            rel = self.base.space.centered(q[None, :] - self.scatterer.points)
            r = np.linalg.norm(rel, axis=1)
            if np.any(r <= 0):
                raise DomainError("evaluation on the singular set")
            return float(-np.sum(self.alphas / r))
        d = self.distance(q)
        if d <= 0:
            raise DomainError("evaluation on the singular set")
        return -self.phi(q, self.mu) / d

    def potential_gradient(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if isinstance(self.scatterer, PointScatterer):
            rel = self.base.space.centered(q[None, :] - self.scatterer.points)
            r = np.linalg.norm(rel, axis=1)
            if np.any(r <= 0):
                raise DomainError("evaluation on the singular set")
            return (self.alphas / r**3) @ rel
        return central_diff(self.potential, q, 1e-7)

    def energy(self, q, p) -> float:
        return self.base.energy(q, p) + self.mu * self.potential(q)

    def force(self, q) -> np.ndarray:
        """- grad(W_base + mu V)."""
        return -(self.base.grad_W(q) + self.mu * self.potential_gradient(q))


def eval_singular(sp: SingularPerturbation, q, r_floor: Optional[float] = None):
    """(V, grad V) at q; raises inside the exclusion radius."""
    floor = sp.r_min if r_floor is None else r_floor
    if sp.distance(q) <= floor:
        raise ExclusionRadiusError(f"point within the exclusion radius {floor:.3e}")
    return sp.potential(q), sp.potential_gradient(q)


# ---------------------------------------------------------------------------
# Adaptive integration near the singular set
# ---------------------------------------------------------------------------

class _PointCenterKernel:
    """Lockstep RK4 step of the singular flow on (B, d) rows, one dt per row.

    For free flight among point centers the distance and the force are fused
    array expressions over rows and centers; any other perturbation falls
    back to sp.distance and sp.force row by row. A row of a B-row call is
    bit-equal to the same row flown alone: the sums over centers and over the
    inverse mass go through matmul, which reduces each row as the one-row
    product does (einsum and a transposed product sum in another order).
    """

    def __init__(self, sp: SingularPerturbation):
        self.sp = sp
        self.minv = sp.base.mass_inv
        self.identity_mass = bool(np.allclose(self.minv, np.eye(self.minv.shape[0])))
        self.centered = sp.base.space.centered
        self.fused = isinstance(sp.scatterer, PointScatterer) and sp.base.potential.is_zero
        if self.fused:
            self.centers = sp.scatterer.points
            self.mu_alphas = sp.mu * sp.alphas

    def distance(self, Q):
        """Distance of each row of Q to the singular set, shape (B,)."""
        if not self.fused:
            return np.array([self.sp.distance(q) for q in Q])
        rel = self.centered(Q[:, None, :] - self.centers)
        return np.sqrt(np.einsum("bij,bij->bi", rel, rel)).min(axis=1)

    def force(self, Q):
        if not self.fused:
            return np.array([self.sp.force(q) for q in Q])
        rel = self.centered(Q[:, None, :] - self.centers)
        r2 = np.einsum("bij,bij->bi", rel, rel)
        w = -(self.mu_alphas / (r2 * np.sqrt(r2)))
        return (w[:, None, :] @ rel)[:, 0, :]

    def velocity(self, P):
        return P if self.identity_mass else (self.minv @ P[:, :, None])[:, :, 0]

    def rk4(self, Q, P, dt):
        dt = dt[:, None]
        k1q, k1p = self.velocity(P), self.force(Q)
        k2q, k2p = self.velocity(P + 0.5 * dt * k1p), self.force(Q + 0.5 * dt * k1q)
        k3q, k3p = self.velocity(P + 0.5 * dt * k2p), self.force(Q + 0.5 * dt * k2q)
        k4q, k4p = self.velocity(P + dt * k3p), self.force(Q + dt * k3q)
        return (Q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q),
                P + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p))


@dataclass
class SingularFlowResult:
    trajectory: Trajectory
    min_distance: float
    energy_drift: float


class _SingularStepper:
    """RK4 rows with the step shrinking like d(q, N)^{3/2} near the tube."""

    def __init__(self, sp: SingularPerturbation, h_far: float, k_near: float = 0.08):
        self.sp = sp
        self.h_far = h_far
        self.k_near = k_near
        self.kernel = _PointCenterKernel(sp)

    def step_sizes(self, D) -> np.ndarray:
        """Step of each row from its distance D to N.

        Python's float power per row: np.power rounds d**1.5 differently.
        """
        return np.array([min(self.h_far, self.k_near * d**1.5) for d in D.tolist()])

    def exclusion_error(self, d: float) -> ExclusionRadiusError:
        return ExclusionRadiusError(
            f"approach {d:.3e} inside exclusion radius {self.sp.r_min:.3e}")


def flow_singular(sp: SingularPerturbation, s0: PhaseState, duration: float,
                  h_far: Optional[float] = None, k_near: float = 0.08,
                  energy_tol: float = 1e-6, max_retries: int = 3,
                  record_every: int = 1, max_steps: int = 5_000_000) -> SingularFlowResult:
    """Integrate the singular flow for the given duration.

    The step follows min(h_far, k d^{3/2}); the run aborts if the trajectory
    enters the exclusion radius, and the step constants are tightened until
    the relative energy drift meets energy_tol.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if h_far is None:
        h_far = duration / 400.0
    E0 = sp.energy(s0.q, s0.p)
    scaleE = max(1.0, abs(E0))
    for attempt in range(max_retries + 1):
        stepper = _SingularStepper(sp, h_far / 2**attempt, k_near / 2**attempt)
        kernel = stepper.kernel
        Q, P, t = s0.q[None, :], s0.p[None, :], 0.0
        ts, qs, ps = [0.0], [Q[0]], [P[0]]
        D = kernel.distance(Q)
        dmin = float(D[0])
        nstep = 0
        while t < duration:
            nstep += 1
            if nstep > max_steps:
                raise StepUnderflowError("singular flow exceeded the step budget")
            if D[0] <= sp.r_min:
                raise stepper.exclusion_error(float(D[0]))
            dt = min(float(stepper.step_sizes(D)[0]), duration - t)
            Q, P = kernel.rk4(Q, P, np.array([dt]))
            t += dt
            D = kernel.distance(Q)
            dmin = min(dmin, float(D[0]))
            if nstep % record_every == 0 or t >= duration:
                ts.append(t)
                qs.append(Q[0])
                ps.append(P[0])
        drift = abs(sp.energy(Q[0], P[0]) - E0) / scaleE
        if drift <= energy_tol:
            traj = Trajectory(np.asarray(ts) + s0.t, np.asarray(qs), np.asarray(ps))
            return SingularFlowResult(traj, float(dmin), float(drift))
    raise StepUnderflowError(f"energy drift {drift:.2e} above {energy_tol:.1e} "
                             f"after {max_retries} refinements")


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


class _ChainShooting:
    """One mu-value multiple-shooting problem over a periodic polygon chain."""

    def __init__(self, sp: SingularPerturbation, centers: List[int],
                 directions: List[np.ndarray], E: float, k_near: float = 0.2):
        self.sp = sp
        self.centers = centers          # point ids, one per collision
        self.dirs = directions          # unit outgoing directions, one per link
        self.E = E
        self.n = len(centers)
        self.points = [sp.scatterer.embed(i) for i in centers]
        self.speed = np.sqrt(2.0 * E)
        self.k_near = k_near
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
            link_lengths.append(np.linalg.norm(
                sp.base.space.centered(self.points[(j + 1) % self.n] - self.points[j])))
        self.r_detect = 0.45 * min(link_lengths)
        self.h_far = 0.02 * min(link_lengths) / self.speed
        self._stepper = _SingularStepper(sp, self.h_far, self.k_near)

    # --- unknown packing: per node, d-1 plane coordinates and d momentum ---

    def pack(self, xi_list, p_list):
        return np.concatenate([np.concatenate([xi, p]) for xi, p in zip(xi_list, p_list)])

    def unpack(self, U):
        d = self.sp.base.dim
        per = (d - 1) + d
        xi_list, p_list = [], []
        for j in range(self.n):
            blk = U[j * per:(j + 1) * per]
            xi_list.append(blk[:d - 1])
            p_list.append(blk[d - 1:])
        return xi_list, p_list

    def node_state(self, j, xi):
        return self.defl[j].periapsis + self.bases[j] @ xi

    def _ballistic_correction(self, samples: int = 256):
        """First-order mean-field correction of the two-body predictor.

        Far centers bend each link by an angle comparable to the local impact
        parameter over inverse energy, so the raw two-body periapsis states sit
        at the edge of the Newton basin. Integrating the background force along
        the straight links gives the asymptote-offset defect of every passage;
        rotating each local hyperbola about its focus cancels it.
        """
        if self.sp.base.dim != 2:
            return [0.0] * self.n
        space = self.sp.base.space
        pts = self.sp.scatterer.points
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        angles = []
        for j in range(self.n):
            cj, cn = self.centers[j], self.centers[(j + 1) % self.n]
            a0 = self.points[j]
            disp = space.centered(self.points[(j + 1) % self.n] - a0)
            L = np.linalg.norm(disp)
            tau = L / self.speed
            others = [i for i in range(len(pts)) if i not in (cj, cn)]
            ts = np.linspace(0.0, 1.0, samples)
            F = np.zeros((samples, 2))
            for i in others:
                rel = space.centered(a0[None, :] + ts[:, None] * disp[None, :] - pts[i])
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
        if self.sp.base.dim == 2:
            angles = self._ballistic_correction()
            for j in range(self.n):
                ca, sa = np.cos(angles[j]), np.sin(angles[j])
                R = np.array([[ca, -sa], [sa, ca]])
                p[j] = R @ p[j]
                peri = self.defl[j].periapsis - self.points[j]
                xi[j] = self.bases[j].T @ (R @ peri - peri)
        return self.pack(xi, p)

    def _section(self, Q, A, N):
        """Signed offset of each row past its section plane (A, N), and
        whether the row is within r_detect of the section's center A."""
        rel = self.sp.base.space.centered(Q - A)
        phi = (rel[:, None, :] @ N[:, :, None])[:, 0, 0]
        near = np.sqrt((rel[:, None, :] @ rel[:, :, None])[:, 0, 0]) < self.r_detect
        return phi, near

    def fly_link(self, rows, collect=False):
        """Flow each row (start node j, xi, p) from node j until it crosses
        section j+1 near its center; all rows step in lockstep.

        Returns one outcome per row: (q_hit, p_hit, dmin, path), where path
        holds the samples if collect and is None otherwise, or the
        SingularShadowError / ExclusionRadiusError that ended the row.
        """
        space = self.sp.base.space
        stepper = self._stepper
        kernel = stepper.kernel
        r_min = self.sp.r_min
        starts = [j for j, _, _ in rows]
        targets = [(j + 1) % self.n for j in starts]
        Q = np.array([self.node_state(j, xi) for j, xi, _ in rows])
        P = np.array([np.asarray(p, dtype=float) for _, _, p in rows])
        A = np.array([self.points[jn] for jn in targets])
        N = np.array([self.normals[jn] for jn in targets])
        budget = np.array([4.0 * (np.linalg.norm(space.centered(
            self.points[jn] - self.points[j])) / self.speed + 1.0)
            for j, jn in zip(starts, targets)])
        T = np.zeros(len(rows))
        D = kernel.distance(Q)
        dmin = D.copy()
        phi, near = self._section(Q, A, N)
        samples = [[q] for q in Q] if collect else None
        out = [None] * len(rows)
        live = np.arange(len(rows))

        def drop(mask):
            nonlocal live, Q, P, A, N, budget, T, D, dmin, phi, near
            keep = ~mask
            live, Q, P, A, N, budget, T, D, dmin, phi, near = (
                x[keep] for x in (live, Q, P, A, N, budget, T, D, dmin, phi, near))

        while live.size:
            stop = (T >= budget) | (D <= r_min)
            if stop.any():
                for k in np.flatnonzero(stop):
                    i = live[k]
                    out[i] = (SingularShadowError(f"link {starts[i]} missed section {targets[i]}")
                              if T[k] >= budget[k] else stepper.exclusion_error(float(D[k])))
                drop(stop)
                continue
            dt = stepper.step_sizes(D)
            Q2, P2 = kernel.rk4(Q, P, dt)
            D2 = kernel.distance(Q2)
            dmin = np.minimum(dmin, D2)
            phi2, near2 = self._section(Q2, A, N)
            hit = near2 & near & (phi < 0.0) & (phi2 >= 0.0)
            if hit.any():
                k = np.flatnonzero(hit)
                q_hit, p_hit = self._bisect(Q[k], P[k], dt[k], A[k], N[k])
                for m, kk in enumerate(k):
                    i = live[kk]
                    path = None
                    if collect:
                        samples[i].append(q_hit[m])
                        path = np.asarray(samples[i])
                    out[i] = (q_hit[m], p_hit[m], float(dmin[kk]), path)
            Q, P, T, D, phi, near = Q2, P2, T + dt, D2, phi2, near2
            if collect:
                for k in np.flatnonzero(~hit):
                    samples[live[k]].append(Q[k])
            if hit.any():
                drop(hit)
        return out

    def _bisect(self, Q, P, dt, A, N):
        """Section crossing of each row inside its step [0, dt], in lockstep."""
        kernel = self._stepper.kernel
        lo, hi = np.zeros(len(dt)), dt.copy()
        tol = 1e-15 * np.maximum(dt, 1.0)
        act = np.arange(len(dt))
        for _ in range(80):
            mid = 0.5 * (lo[act] + hi[act])
            qm, _ = kernel.rk4(Q[act], P[act], mid)
            below = self._section(qm, A[act], N[act])[0] < 0
            lo[act] = np.where(below, mid, lo[act])
            hi[act] = np.where(below, hi[act], mid)
            act = act[~(hi[act] - lo[act] < tol[act])]
            if not act.size:
                break
        return kernel.rk4(Q, P, 0.5 * (lo + hi))

    def residual(self, U, collect=False):
        xi_list, p_list = self.unpack(U)
        flights = self.fly_link([(j, xi_list[j], p_list[j]) for j in range(self.n)], collect)
        res = []
        dmin = np.inf
        for j, flight in enumerate(flights):
            if isinstance(flight, Exception):
                raise flight
            q_hit, p_hit, dm, _ = flight
            jn = (j + 1) % self.n
            dmin = min(dmin, dm)
            rel = self.sp.base.space.centered(q_hit - self.defl[jn].periapsis)
            res.append(self.bases[jn].T @ rel - xi_list[jn])
            res.append(p_hit - p_list[jn])
        paths = [flight[3] for flight in flights] if collect else None
        return np.concatenate(res), float(dmin), paths

    def jacobian(self, U, fd_rel: float = 1e-7) -> np.ndarray:
        """Shooting Jacobian at U: -I couplings plus central differences.

        All 2 (2d - 1) n perturbed links fly in one lockstep call. A column
        with a failed flight is flown again at a quarter of its step, at most
        four times in all.
        """
        d = self.sp.base.dim
        per = (d - 1) + d
        J = np.zeros((per * self.n, per * self.n))
        # analytic coupling of residual block j to node j+1: -I
        for j in range(self.n):
            jn = (j + 1) % self.n
            J[j * per:(j + 1) * per, jn * per:(jn + 1) * per] -= np.eye(per)
        cols = [(j, a) for j in range(self.n) for a in range(per)]
        hs = [fd_rel * max(1.0, np.linalg.norm(U[j * per:(j + 1) * per])) for j, _ in cols]
        pending = list(range(len(cols)))
        for _ in range(4):
            rows = []
            for c in pending:
                j, a = cols[c]
                for sign in (1.0, -1.0):
                    blk = U[j * per:(j + 1) * per].copy()
                    blk[a] += sign * hs[c]
                    rows.append((j, blk[:d - 1], blk[d - 1:]))
            flights = self.fly_link(rows)
            failed = []
            for m, c in enumerate(pending):
                plus, minus = flights[2 * m], flights[2 * m + 1]
                if isinstance(plus, Exception) or isinstance(minus, Exception):
                    hs[c] *= 0.25
                    failed.append(c)
                    continue
                j, a = cols[c]
                jn = (j + 1) % self.n
                h = hs[c]
                drel = self.sp.base.space.centered(plus[0] - minus[0]) / (2 * h)
                dcol = np.concatenate([self.bases[jn].T @ drel, (plus[1] - minus[1]) / (2 * h)])
                J[j * per:(j + 1) * per, j * per + a] += dcol
            pending = failed
            if not pending:
                return J
        raise SingularShadowError(
            f"finite differences infeasible at node {cols[pending[0]][0]}")

    def solve(self, tol: float = 1e-8, max_iter: int = 30, fd_rel: float = 1e-7):
        U = self.predictor()
        R, dmin, _ = self.residual(U)
        rn = np.linalg.norm(R, ord=np.inf)
        scale = self.speed
        dmin_floor = min(dd.r_p for dd in self.defl) / 5.0
        it = 0
        while rn > tol * scale and it < max_iter:
            J = self.jacobian(U, fd_rel)
            try:
                step = np.linalg.solve(J, -R)
            except np.linalg.LinAlgError as exc:
                raise SingularShadowError("singular shooting Jacobian") from exc
            lam = 1.0
            for _ in range(25):
                try:
                    R_t, dmin_t, _ = self.residual(U + lam * step)
                except (SingularShadowError, ExclusionRadiusError):
                    lam *= 0.5
                    continue
                rn_t = np.linalg.norm(R_t, ord=np.inf)
                if rn_t < rn and dmin_t >= dmin_floor:
                    break
                lam *= 0.5
            else:
                if rn <= 30 * tol * scale:
                    break  # stalled at the finite-difference noise floor
                raise SingularShadowError(f"no descent (|R| = {rn:.2e})")
            U, R, rn, dmin = U + lam * step, R_t, rn_t, dmin_t
            it += 1
        if rn > 30 * tol * scale:
            raise SingularShadowError(f"Newton did not converge: |R| = {rn:.2e}")
        return U, rn, it

    def sup_error_to_chain(self, U) -> Tuple[float, float]:
        """Sup distance of the solved orbit to the chain polygon, min distance to N."""
        _, dmin, paths = self.residual(U, collect=True)
        segs = []
        for j in range(self.n):
            a = self.points[j]
            b = a + self.sp.base.space.centered(self.points[(j + 1) % self.n] - a)
            segs.append((a, b))
        worst = 0.0
        for path in paths:
            for pt in path:
                best = np.inf
                for a, b in segs:
                    ab = b - a
                    ap = self.sp.base.space.centered(pt - a)
                    tt = np.clip(ap @ ab / (ab @ ab), 0.0, 1.0)
                    best = min(best, np.linalg.norm(ap - tt * ab))
                worst = max(worst, best)
        return float(worst), float(dmin)


def shadow_experiment(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                      mu_list: Sequence[float], alphas: Optional[np.ndarray] = None,
                      exclusion_guard: float = 1.0,
                      tol: float = 1e-8) -> List[SingularShadowRow]:
    """Near-collision shadowing of a polygon chain under a mu-sweep.

    For each mu, a multiple-shooting Newton matches the local two-body
    deflections to the chain's momentum jumps; rows report convergence, the
    sup distance to the chain and the minimum approach distance. Not a
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
    dirs = []
    for j in range(n):
        pm, _ = dl.link(c.code[j]).momenta(*c.link_endpoints(j))
        v = np.asarray(pm, dtype=float)
        dirs.append(v / np.linalg.norm(v))

    rows: List[SingularShadowRow] = []
    for mu in mu_list:
        sp = SingularPerturbation(_base_hamiltonian(dl), scat, float(mu),
                                  alphas=alphas, exclusion_guard=exclusion_guard)
        shooter = _ChainShooting(sp, centers, dirs, E)
        predicted = min(d.r_p for d in shooter.defl)
        try:
            U, rn, it = shooter.solve(tol=tol)
            sup_err, dmin = shooter.sup_error_to_chain(U)
            rows.append(SingularShadowRow(float(mu), True, sup_err, dmin,
                                          predicted, float(rn), it))
        except (SingularShadowError, ExclusionRadiusError, StepUnderflowError) as exc:
            rows.append(SingularShadowRow(float(mu), False, np.nan, np.nan,
                                          predicted, np.nan, 0,
                                          f"{type(exc).__name__}: {exc}"))
    return rows


def _base_hamiltonian(dl: dlsmod.DiscreteLagrangian) -> ClassicalHamiltonian:
    """Base Hamiltonian of the unperturbed chain (free flight on the same space)."""
    h = getattr(dl, "hamiltonian", None)
    if h is not None:
        return h
    return ClassicalHamiltonian(dl.scatterer.space)
