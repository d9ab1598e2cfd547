"""Flows with Newtonian singularities on the scatterer, and their shadow orbits.

The perturbed Hamiltonian adds mu * V to a classical base, where V has a
Newtonian singularity -phi / d(q, N) on the scatterer (attracting for
phi > 0). Near-collision passages are resolved by shrinking the integration
step like d^{3/2}; no regularization is performed, and approaches inside the
exclusion radius abort the run. The shadowing experiment is a multiple
shooting Newton over the chain with one section plane per collision, seeded
by the two-body deflection that matches the chain's momentum jumps.

All integration goes through one RK4 kernel on (B, d) rows with a step per
row. A Newton step of the shooting is one lockstep call: the links of a
full-step trial fly with every perturbed link of the central-difference
Jacobian there; each row keeps its own section, time budget, minimum distance
and outcome, and its numbers are bit-equal to the row flown alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import dls as dlsmod
from .dynamics import (ClassicalHamiltonian, DomainError, PhaseState,
                       StepUnderflowError, Trajectory, central_diff)
from .scatterer import PointScatterer, Scatterer


class ExclusionRadiusError(RuntimeError):
    """Trajectory entered the exclusion radius around the singular set."""


class NonPlanarChainError(ValueError):
    """The chain shooting takes planar center chains only."""


class SingularShadowError(RuntimeError):
    """Multiple-shooting Newton for the singular flow failed."""


@dataclass
class SingularPerturbation:
    """H_mu = H_base + mu V with V = -phi(q, mu) / d(q, N).

    For a point scatterer the classical form V = -sum_i alpha_i / |q - a_i|
    is used (alphas positive: attracting force). Approaches within the
    exclusion radius r_min = mu^2 abort a flight.
    """

    base: ClassicalHamiltonian
    scatterer: Scatterer
    mu: float
    alphas: Optional[np.ndarray] = None
    phi: Optional[Callable[[np.ndarray, float], float]] = None

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
        return self.mu**2

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


# ---------------------------------------------------------------------------
# Adaptive integration near the singular set
# ---------------------------------------------------------------------------

class _PointCenterKernel:
    """Lockstep RK4 step of the singular flow on (B, d) rows, one dt per row,
    with the step shrinking like d(q, N)^{3/2} near the tube.

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
        self.unit_mass = sp.base.unit_mass
        self.centered = sp.base.space.centered
        self.fused = isinstance(sp.scatterer, PointScatterer) and sp.base.potential.is_zero
        if self.fused:
            self.centers = sp.scatterer.points
            self.mu_alphas = sp.mu * sp.alphas

    def _pull(self, Q):
        """Force on each row and its distances to every center, (B, d), (B, n)."""
        rel = self.centered(Q[:, None, :] - self.centers)
        r2 = np.einsum("bij,bij->bi", rel, rel)
        r = np.sqrt(r2)
        w = -(self.mu_alphas / (r2 * r))
        return (w[:, None, :] @ rel)[:, 0, :], r

    def force(self, Q):
        if not self.fused:
            return np.array([self.sp.force(q) for q in Q])
        return self._pull(Q)[0]

    def force_distance(self, Q):
        """force(Q) and the distance of each row of Q to the singular set,
        shape (B,), from one set of center offsets."""
        if not self.fused:
            return self.force(Q), np.array([self.sp.distance(q) for q in Q])
        F, r = self._pull(Q)
        return F, r.min(axis=1)

    @staticmethod
    def step_sizes(D, h_far: float, k_near: float) -> np.ndarray:
        """Step min(h_far, k_near d^{3/2}) of each row from its distance D to N.

        Python's float power per row: np.power rounds d**1.5 differently.
        """
        return np.array([min(h_far, k_near * d**1.5) for d in D.tolist()])

    def exclusion_error(self, d: float) -> ExclusionRadiusError:
        return ExclusionRadiusError(
            f"approach {d:.3e} inside exclusion radius {self.sp.r_min:.3e}")

    def velocity(self, P):
        return P if self.unit_mass else (self.minv @ P[:, :, None])[:, :, 0]

    def rk4(self, Q, P, dt, F):
        """One step of each row; F = force(Q), which the caller already has
        from the distance check at Q."""
        dt = dt[:, None]
        k1q, k1p = self.velocity(P), F
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


_FLOW_ENERGY_TOL = 1e-6     # relative energy drift flow_singular accepts
_FLOW_RETRIES = 3           # halvings of both step constants before giving up


def flow_singular(sp: SingularPerturbation, s0: PhaseState,
                  duration: float) -> SingularFlowResult:
    """Integrate the singular flow for the given duration, sampled every step.

    The step follows min(h_far, k d^{3/2}) with h_far = duration / 400 and
    k = 0.08; the run aborts if the trajectory enters the exclusion radius,
    and both step constants are halved, at most three times, until the
    relative energy drift is at most 1e-6.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    h_far = duration / 400.0
    E0 = sp.energy(s0.q, s0.p)
    scaleE = max(1.0, abs(E0))
    kernel = _PointCenterKernel(sp)
    for attempt in range(_FLOW_RETRIES + 1):
        h_try, k_try = h_far / 2**attempt, 0.08 / 2**attempt
        Q, P, t = s0.q[None, :], s0.p[None, :], 0.0
        ts, qs, ps = [0.0], [Q[0]], [P[0]]
        F, D = kernel.force_distance(Q)
        dmin = float(D[0])
        nstep = 0
        while t < duration:
            nstep += 1
            if nstep > 5_000_000:
                raise StepUnderflowError("singular flow exceeded the step budget")
            if D[0] <= sp.r_min:
                raise kernel.exclusion_error(float(D[0]))
            dt = min(float(kernel.step_sizes(D, h_try, k_try)[0]), duration - t)
            Q, P = kernel.rk4(Q, P, np.array([dt]), F)
            t += dt
            F, D = kernel.force_distance(Q)
            dmin = min(dmin, float(D[0]))
            ts.append(t)
            qs.append(Q[0])
            ps.append(P[0])
        drift = abs(sp.energy(Q[0], P[0]) - E0) / scaleE
        if drift <= _FLOW_ENERGY_TOL:
            traj = Trajectory(np.asarray(ts) + s0.t, np.asarray(qs), np.asarray(ps))
            return SingularFlowResult(traj, float(dmin), float(drift))
    raise StepUnderflowError(f"energy drift {drift:.2e} above {_FLOW_ENERGY_TOL:.1e} "
                             f"after {_FLOW_RETRIES} refinements")


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
            link_lengths.append(np.linalg.norm(
                sp.base.space.centered(self.points[(j + 1) % self.n] - self.points[j])))
        self.r_detect = 0.45 * min(link_lengths)
        self.h_far = 0.02 * min(link_lengths) / self.speed
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
            ts = np.linspace(0.0, 1.0, 256)
            F = np.zeros((ts.size, 2))
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

    def fly_link(self, rows, collect=0):
        """Flow each row (start node j, xi, p) from node j until it crosses
        section j+1 near its center; all rows step in lockstep.

        Returns one outcome per row: (q_hit, p_hit, dmin, path), where path
        holds the samples of the first `collect` rows and is None otherwise,
        or the SingularShadowError / ExclusionRadiusError that ended the row.
        """
        space = self.sp.base.space
        kernel = self.kernel
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
        F, D = kernel.force_distance(Q)
        dmin = D.copy()
        phi, near = self._section(Q, A, N)
        out = [None] * len(rows)
        live = np.arange(len(rows))
        trail = [(live, Q)]             # the live rows and their positions, step by step

        def drop(mask):
            nonlocal live, Q, P, F, A, N, budget, T, D, dmin, phi, near
            keep = ~mask
            live, Q, P, F, A, N, budget, T, D, dmin, phi, near = (
                x[keep] for x in (live, Q, P, F, A, N, budget, T, D, dmin, phi, near))

        while live.size:
            stop = (T >= budget) | (D <= r_min)
            if stop.any():
                for k in np.flatnonzero(stop):
                    i = live[k]
                    out[i] = (SingularShadowError(f"link {starts[i]} missed section {targets[i]}")
                              if T[k] >= budget[k] else kernel.exclusion_error(float(D[k])))
                drop(stop)
                continue
            dt = kernel.step_sizes(D, self.h_far, 0.2)
            Q2, P2 = kernel.rk4(Q, P, dt, F)
            F2, D2 = kernel.force_distance(Q2)
            dmin = np.minimum(dmin, D2)
            phi2, near2 = self._section(Q2, A, N)
            hit = near2 & near & (phi < 0.0) & (phi2 >= 0.0)
            if hit.any():
                k = np.flatnonzero(hit)
                q_hit, p_hit = self._bisect(Q[k], P[k], F[k], dt[k], A[k], N[k])
                for m, kk in enumerate(k):
                    out[live[kk]] = (q_hit[m], p_hit[m], float(dmin[kk]), None)
            Q, P, F, T, D, phi, near = Q2, P2, F2, T + dt, D2, phi2, near2
            if hit.any():
                drop(hit)
            if collect:
                trail.append((live, Q))
        if collect:
            ids = np.concatenate([ids for ids, _ in trail])
            pts = np.concatenate([q for _, q in trail])
            for i in range(collect):
                if not isinstance(out[i], Exception):
                    out[i] = out[i][:3] + (np.vstack([pts[ids == i], out[i][0]]),)
        return out

    def _bisect(self, Q, P, F, dt, A, N):
        """Section crossing of each row inside its step [0, dt], in lockstep;
        F is the force at Q."""
        kernel = self.kernel
        lo, hi = np.zeros(len(dt)), dt.copy()
        tol = 1e-15 * np.maximum(dt, 1.0)
        act = np.arange(len(dt))
        for _ in range(80):
            mid = 0.5 * (lo[act] + hi[act])
            qm, _ = kernel.rk4(Q[act], P[act], mid, F[act])
            below = self._section(qm, A[act], N[act])[0] < 0
            lo[act] = np.where(below, mid, lo[act])
            hi[act] = np.where(below, hi[act], mid)
            act = act[~(hi[act] - lo[act] < tol[act])]
            if not act.size:
                break
        return kernel.rk4(Q, P, 0.5 * (lo + hi), F)

    def residual(self, U, fd_rel=None):
        """Residual at U, least distance to N and each link's path, from one
        lockstep call. With fd_rel the stencil rows of the Jacobian at U fly
        in the same call; their outcomes come fourth (None without fd_rel)."""
        xi_list, p_list = self.unpack(U)
        stencil = self._stencil_rows(U, self._fd_steps(U, fd_rel)) if fd_rel else []
        flights = self.fly_link([(j, xi_list[j], p_list[j]) for j in range(self.n)] + stencil,
                                collect=self.n)
        res = []
        dmin = np.inf
        for j, flight in enumerate(flights[:self.n]):
            if isinstance(flight, Exception):
                raise flight
            q_hit, p_hit, dm, _ = flight
            jn = (j + 1) % self.n
            dmin = min(dmin, dm)
            rel = self.sp.base.space.centered(q_hit - self.defl[jn].periapsis)
            res.append(self.bases[jn].T @ rel - xi_list[jn])
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
                rows.append((j, blk[:d - 1], blk[d - 1:]))
        return rows

    def jacobian(self, U, fd_rel: float = _FD_REL, flights=None) -> np.ndarray:
        """Shooting Jacobian at U: -I couplings plus central differences.

        All 2 (2d - 1) n perturbed links fly in one lockstep call, unless
        their outcomes are given as flights (flown with the residual at U).
        A column with a failed flight is flown again at a quarter of its
        step, at most four times in all.
        """
        per = 2 * self.sp.base.dim - 1
        size = per * self.n  # analytic coupling of residual block j to node j+1: -I
        J = np.zeros((size, size)) - np.roll(np.eye(size), per, axis=1)
        hs = self._fd_steps(U, fd_rel)
        pending = list(range(size))
        for _ in range(4):
            if flights is None:
                flights = self.fly_link(self._stencil_rows(U, hs, pending))
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
                drel = self.sp.base.space.centered(plus[0] - minus[0]) / (2 * h)
                dcol = np.concatenate([self.bases[jn].T @ drel, (plus[1] - minus[1]) / (2 * h)])
                J[j * per:(j + 1) * per, c] += dcol
            pending, flights = failed, None
            if not pending:
                return J
        raise SingularShadowError(
            f"finite differences infeasible at node {pending[0] // per}")

    def solve(self):
        """Newton with a halving line search: (U, |R|, iterations, dmin, paths).

        Stops at |R| <= 1e-8 sqrt(2E) or after 30 iterations, and accepts up
        to 30 times that residual. A full-step trial flies its Jacobian's
        stencil too, kept if accepted."""
        tol, scale = 1e-8, self.speed
        U = self.predictor()
        R, dmin, paths, stencil = self.residual(U, _FD_REL)
        rn = np.linalg.norm(R, ord=np.inf)
        dmin_floor = min(dd.r_p for dd in self.defl) / 5.0
        it = 0
        while rn > tol * scale and it < 30:
            J = self.jacobian(U, _FD_REL, stencil)
            try:
                step = np.linalg.solve(J, -R)
            except np.linalg.LinAlgError as exc:
                raise SingularShadowError("singular shooting Jacobian") from exc
            lam = 1.0
            for _ in range(25):
                try:
                    flown = self.residual(U + lam * step, _FD_REL if lam == 1.0 else None)
                except (SingularShadowError, ExclusionRadiusError):
                    lam *= 0.5
                    continue
                rn_t = np.linalg.norm(flown[0], ord=np.inf)
                if rn_t < rn and flown[1] >= dmin_floor:
                    break
                lam *= 0.5
            else:
                if rn <= 30 * tol * scale:
                    break  # stalled at the finite-difference noise floor
                raise SingularShadowError(f"no descent (|R| = {rn:.2e})")
            U, rn, (R, dmin, paths, stencil) = U + lam * step, rn_t, flown
            it += 1
        if rn > 30 * tol * scale:
            raise SingularShadowError(f"Newton did not converge: |R| = {rn:.2e}")
        return U, rn, it, dmin, paths

    def sup_error_to_chain(self, paths) -> float:
        """Sup distance of the flown link paths to the chain polygon."""
        space = self.sp.base.space
        a = np.asarray(self.points, dtype=float)
        b = a + space.centered(np.roll(a, -1, axis=0) - a)
        return space.sup_segment_distance(np.concatenate(paths), a, b)


def shadow_experiment(dl: dlsmod.DiscreteLagrangian, c: dlsmod.ChainConfiguration,
                      mu_list: Sequence[float],
                      alphas: Optional[np.ndarray] = None) -> List[SingularShadowRow]:
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

    base = ClassicalHamiltonian(scat.space)     # free flight among the centers
    rows: List[SingularShadowRow] = []
    for mu in mu_list:
        sp = SingularPerturbation(base, scat, float(mu), alphas=alphas)
        shooter = _ChainShooting(sp, centers, dirs, E)
        predicted = min(d.r_p for d in shooter.defl)
        try:
            _, rn, it, dmin, paths = shooter.solve()
            rows.append(SingularShadowRow(float(mu), True, shooter.sup_error_to_chain(paths),
                                          dmin, predicted, float(rn), it))
        except (SingularShadowError, ExclusionRadiusError, StepUnderflowError) as exc:
            rows.append(SingularShadowRow(float(mu), False, np.nan, np.nan,
                                          predicted, np.nan, 0,
                                          f"{type(exc).__name__}: {exc}"))
    return rows

