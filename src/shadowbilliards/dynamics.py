"""Flat ambient spaces, classical Hamiltonians, symplectic flows, Maupertuis action.

The configuration space is flat: Euclidean space or a flat torus. Generality
enters through the potential, an optional magnetic covector field, and a
constant mass matrix. Trajectories are integrated in the universal cover, so
sampled paths carry their winding explicitly and never wrap mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class DomainError(ValueError):
    """Configuration point outside the admissible domain (singular set or E <= W)."""


class StepUnderflowError(RuntimeError):
    """Integrator step control failed to meet the energy tolerance."""


def central_diff(f: Callable, x, h: float) -> np.ndarray:
    """Central differences of f at x along each coordinate axis.

    Entry i of the last axis is (f(x + h e_i) - f(x - h e_i)) / (2 h): the
    gradient of a scalar f, the Jacobian of a vector f; empty for empty x.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(0)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        col = (f(x + e) - f(x - e)) / (2 * h)
        if i == 0:
            out = np.empty(np.shape(col) + (x.size,))
        out[..., i] = col
    return out


# ---------------------------------------------------------------------------
# Ambient space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmbientSpace:
    """Flat configuration space: Euclidean, or a torus with per-axis periods."""

    dim: int
    periods: Optional[np.ndarray] = None  # None -> Euclidean

    def __post_init__(self):
        if not (1 <= self.dim):
            raise ValueError("dimension must be positive")
        if self.periods is not None:
            p = np.asarray(self.periods, dtype=float)
            if p.shape != (self.dim,):
                raise ValueError("periods must have one entry per coordinate")
            if np.any(p <= 0):
                raise ValueError("torus periods must be strictly positive")
            object.__setattr__(self, "periods", p)

    @property
    def is_torus(self) -> bool:
        return self.periods is not None

    def centered(self, dq: np.ndarray) -> np.ndarray:
        """Shortest displacement representative, in [-L/2, L/2) per coordinate."""
        dq = np.asarray(dq, dtype=float)
        if self.periods is None:
            return dq
        return dq - self.periods * np.round(dq / self.periods)

    def displacement(self, q_from, q_to, winding=None) -> np.ndarray:
        """Displacement vector q_to - q_from.

        On the torus the winding (integer vector) selects the homotopy class;
        without it the shortest representative is returned.
        """
        d = np.asarray(q_to, dtype=float) - np.asarray(q_from, dtype=float)
        if self.periods is None:
            return d
        if winding is None:
            return self.centered(d)
        return self.centered(d) + np.asarray(winding, dtype=float) * self.periods

    def distance(self, qa, qb) -> float:
        return float(np.linalg.norm(self.displacement(qa, qb)))

    def sup_segment_distance(self, points, a, b) -> float:
        """Largest distance from one of `points` to its nearest segment [a_k, b_k].

        points has shape (P, dim); a and b hold the segment ends, shape
        (S, dim). The offset of a point from a_k is centered, the segment
        b_k - a_k is not; a zero-length segment measures the distance to a_k.
        Every dot product is a batched matmul, which rounds like the
        one-pair `ap @ ab` and `np.linalg.norm` (einsum and sums do not).
        """
        pts = np.asarray(points, dtype=float)
        a = np.asarray(a, dtype=float)
        ab = np.asarray(b, dtype=float) - a
        ap = self.centered(pts[:, None, :] - a)                  # (P, S, dim)
        denom = (ab[:, None, :] @ ab[:, :, None])[:, 0, 0]       # (S,)
        proj = (ap[..., None, :] @ ab[:, :, None])[..., 0, 0]    # (P, S)
        t = np.clip(np.divide(proj, denom, out=np.zeros_like(proj), where=denom > 0),
                    0.0, 1.0)
        r = ap - t[..., None] * ab
        dist = np.sqrt((r[..., None, :] @ r[..., :, None])[..., 0, 0])
        return float(np.max(np.min(dist, axis=1, initial=np.inf), initial=0.0))


def euclidean(dim: int) -> AmbientSpace:
    return AmbientSpace(dim)


def flat_torus(periods: Sequence[float]) -> AmbientSpace:
    p = np.asarray(periods, dtype=float)
    return AmbientSpace(len(p), p)


# ---------------------------------------------------------------------------
# Potentials and magnetic fields
# ---------------------------------------------------------------------------

class Potential:
    """Scalar potential with gradient; subclasses may declare a singular set."""

    is_zero = False
    center: Optional[np.ndarray] = None

    def value(self, q: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, q: np.ndarray) -> np.ndarray:
        """Gradient at q of shape (d,) or (B, d); a row is bit-equal to its lone gradient."""
        raise NotImplementedError

    def _rel(self, q):
        q = np.asarray(q, dtype=float)
        return q if self.center is None else q - self.center


class ConstantPotential(Potential):
    def __init__(self, c: float):
        self.c = float(c)

    def value(self, q):
        return self.c

    def grad(self, q):
        return np.zeros_like(np.asarray(q, dtype=float))


class ZeroPotential(ConstantPotential):
    is_zero = True

    def __init__(self):
        super().__init__(0.0)


class HarmonicPotential(Potential):
    """W(q) = (k/2) |q - center|^2."""

    def __init__(self, k: float = 1.0, center=None):
        self.k = float(k)
        self.center = None if center is None else np.asarray(center, dtype=float)

    def value(self, q):
        r = self._rel(q)
        return 0.5 * self.k * float(r @ r)

    def grad(self, q):
        return self.k * self._rel(q)


class KeplerPotential(Potential):
    """W(q) = -mu / |q - center|, singular at the center."""

    def __init__(self, mu: float = 1.0, center=None, r_min: float = 1e-12):
        self.mu = float(mu)
        self.center = None if center is None else np.asarray(center, dtype=float)
        self.r_min = float(r_min)

    def value(self, q):
        r = np.linalg.norm(self._rel(q))
        if r <= self.r_min:
            raise DomainError(f"point within {self.r_min} of the Kepler center")
        return -self.mu / r

    def grad(self, q):
        # |rel| as a matmul and r**3 as Python's float power per row: both round
        # like the one-row np.linalg.norm and r**3 (np.power does not)
        rel = self._rel(q)
        if rel.ndim == 1:
            r = float(np.sqrt(rel @ rel))
            if r <= self.r_min:
                raise DomainError(f"point within {self.r_min} of the Kepler center")
            return self.mu * rel / r**3
        r = np.sqrt((rel[..., None, :] @ rel[..., :, None])[..., 0, 0])
        rows = r.ravel().tolist()
        if any(x <= self.r_min for x in rows):
            raise DomainError(f"point within {self.r_min} of the Kepler center")
        return self.mu * rel / np.array([x**3 for x in rows]).reshape(r.shape + (1,))


class CallablePotential(Potential):
    """Wrap plain callables; gradient by central differences if not supplied."""

    def __init__(self, fn: Callable[[np.ndarray], float], grad=None):
        self.fn = fn
        self._grad = grad

    def value(self, q):
        return float(self.fn(np.asarray(q, dtype=float)))

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 2:   # the user functions take one point: apply them per row
            return np.stack([self.grad(row) for row in q])
        if self._grad is not None:
            return np.asarray(self._grad(q), dtype=float)
        return central_diff(self.fn, q, 1e-6)


class MagneticField:
    """Covector field w(q) with Jacobian Dw(q) (rows: components, cols: d/dq)."""

    def __init__(self, w: Callable[[np.ndarray], np.ndarray],
                 jac: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self._w = w
        self._jac = jac

    def value(self, q):
        return np.asarray(self._w(np.asarray(q, dtype=float)), dtype=float)

    def jac(self, q):
        q = np.asarray(q, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(q), dtype=float)
        return central_diff(self.value, q, 1e-6)


# ---------------------------------------------------------------------------
# Classical Hamiltonian and phase states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseState:
    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching dimension")


class ClassicalHamiltonian:
    """H(q,p) = 1/2 |p - w(q)|^2 + W(q), norm induced by the inverse mass matrix."""

    def __init__(self, space: AmbientSpace, potential: Optional[Potential] = None,
                 mass=None, magnetic: Optional[MagneticField] = None):
        self.space = space
        self.potential = potential if potential is not None else ZeroPotential()
        d = space.dim
        if mass is None:
            M = np.eye(d)
        else:
            M = np.asarray(mass, dtype=float)
            if M.ndim == 1:
                M = np.diag(M)
            if M.shape != (d, d) or not np.allclose(M, M.T):
                raise ValueError("mass matrix must be symmetric d x d")
            if np.any(np.linalg.eigvalsh(M) <= 0):
                raise ValueError("mass matrix must be positive definite")
        self.mass = M
        self.mass_inv = np.linalg.inv(M)
        self.unit_mass = bool(np.array_equal(self.mass_inv, np.eye(d)))
        self.magnetic = magnetic

    @property
    def dim(self) -> int:
        return self.space.dim

    def w(self, q) -> np.ndarray:
        if self.magnetic is None:
            return np.zeros(self.dim)
        return self.magnetic.value(q)

    def kinetic_momentum(self, q, p) -> np.ndarray:
        return np.asarray(p, dtype=float) - self.w(q)

    def velocity(self, q, p) -> np.ndarray:
        """H_p(q, p) = M^{-1} (p - w(q))."""
        return self.mass_inv @ self.kinetic_momentum(q, p)

    def momentum_from_velocity(self, q, v) -> np.ndarray:
        return self.mass @ np.asarray(v, dtype=float) + self.w(q)

    def mass_norm(self, v) -> float:
        """Norm of a velocity vector in the kinetic metric."""
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ self.mass @ v))

    def comass_norm(self, p) -> float:
        """Norm of a momentum covector in the inverse-mass metric."""
        p = np.asarray(p, dtype=float)
        return float(np.sqrt(p @ self.mass_inv @ p))

    def energy(self, q, p) -> float:
        pk = self.kinetic_momentum(q, p)
        return 0.5 * float(pk @ self.mass_inv @ pk) + self.potential.value(q)

    def grad_W(self, q) -> np.ndarray:
        return self.potential.grad(q)


# ---------------------------------------------------------------------------
# Trajectories and symplectic integration
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled flow segment; positions live in the universal cover."""

    ts: np.ndarray
    qs: np.ndarray  # (n, d)
    ps: np.ndarray  # (n, d)

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.qs[i], self.ps[i], float(self.ts[i]))

    @property
    def final(self) -> PhaseState:
        return self.state(-1)


# Sized for the Verlet branch: a period of a Kepler orbit with e <= 0.5 closes to
# 1e-8 (5.5e-9 at e = 0.5, where 10,000 plain Verlet steps gave 4.5e-7)
DEFAULT_STEPS_PER_UNIT_TIME = 500

# Yoshida's triple jump: substeps of w1 dt, w0 dt, w1 dt of a symmetric
# second-order step make a fourth-order step (Phys. Lett. A 150 (1990) 262)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _verlet_steps(h: ClassicalHamiltonian, q, p, dt: float, nsteps: int,
                  sample_every: int = 1):
    """Fourth-order Stormer-Verlet for w == 0; q, p may be batched (B, d).

    A step is Yoshida's triple jump of kick-drift-kick (weights w1, w0, w1).
    Adjacent substeps share their force, as one kick inside a step, so a call
    makes 3 * nsteps + 1 gradient calls. With unit mass the drift is by p
    itself; otherwise `minv @ p[..., None]` rounds each row like `minv @ p`.
    Returns q, p, their samples every sample_every steps and at the end, and
    the Maupertuis action, the sum of p . dq over the drifts, per row.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    minv = None if h.unit_mass else h.mass_inv
    grad = h.grad_W
    qs, ps = [q.copy()], [p.copy()]
    pdq = np.zeros_like(q)
    w1, w0 = _W1 * dt, _W0 * dt
    edge, inner = 0.5 * w1, 0.5 * (w1 + w0)
    substeps = ((w1, inner), (w0, inner), (w1, edge))   # (drift, kick after it)
    kick = edge * grad(q)
    for n in range(nsteps):
        p = p - kick
        for c, k in substeps:
            dq = c * (p if minv is None else (minv @ p[..., None])[..., 0])
            pdq = pdq + p * dq
            q = q + dq
            kick = k * grad(q)
            p = p - kick
        if (n + 1) % sample_every == 0 or n == nsteps - 1:
            qs.append(q.copy())
            ps.append(p.copy())
    return q, p, qs, ps, pdq.sum(axis=-1)


def _midpoint_steps(h: ClassicalHamiltonian, q, p, dt: float, nsteps: int,
                    sample_every: int = 1):
    """Implicit midpoint for Hamiltonians with a magnetic covector; each step
    iterates its fixed point until the update is below 1e-14, at most 100 times."""
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    qs, ps = [q.copy()], [p.copy()]

    def rhs(qq, pp):
        pk = h.kinetic_momentum(qq, pp)
        v = h.mass_inv @ pk
        Dw = h.magnetic.jac(qq) if h.magnetic is not None else np.zeros((h.dim, h.dim))
        pdot = Dw.T @ v - h.grad_W(qq)
        return v, pdot

    for n in range(nsteps):
        qn, pn = q.copy(), p.copy()
        for _ in range(100):
            vmid, fmid = rhs(0.5 * (q + qn), 0.5 * (p + pn))
            qn_new = q + dt * vmid
            pn_new = p + dt * fmid
            delta = max(np.max(np.abs(qn_new - qn)), np.max(np.abs(pn_new - pn)))
            qn, pn = qn_new, pn_new
            if delta < 1e-14:
                break
        q, p = qn, pn
        if (n + 1) % sample_every == 0 or n == nsteps - 1:
            qs.append(q.copy())
            ps.append(p.copy())
    return q, p, qs, ps


def flow_segment(h: ClassicalHamiltonian, s0: PhaseState, duration: float,
                 steps_per_unit_time: float = DEFAULT_STEPS_PER_UNIT_TIME,
                 energy_tol: float = 1e-8, max_step_halvings: int = 6) -> Trajectory:
    """Integrate the Hamiltonian flow for the given duration.

    Composed Verlet (fourth order) when the magnetic covector vanishes,
    implicit midpoint (second order) otherwise. Rung k of the step ladder
    flies n0 * 2**k steps, n0 = ceil(duration * steps_per_unit_time), and
    passes when its terminal energy drift meets energy_tol (relative to
    max(1, |H|)). The drift of an order-r scheme falls like dt**r, g = 2**r
    per rung (16, or 4 for midpoint): when rung 0 fails with drift d0, the
    next flight is the first rung k with d0 / g**k <= 1.5 * energy_tol, and
    the ladder climbs one rung at a time from there. That is the rung a climb
    from rung 0 accepts unless a skipped rung beats the dt**r law by more
    than 1.5x. Skipped rungs count against max_step_halvings:
    StepUnderflowError when rung max_step_halvings fails. Free flight is
    sampled exactly: with W == 0 and w == 0 every Verlet step is an exact
    translation, so it keeps 257 exact samples.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    E0 = h.energy(s0.q, s0.p)

    if h.potential.is_zero and h.magnetic is None:
        n = 256
        ts = np.linspace(0.0, duration, n + 1)
        v = h.velocity(s0.q, s0.p)
        qs = s0.q[None, :] + ts[:, None] * v[None, :]
        ps = np.repeat(s0.p[None, :], n + 1, axis=0)
        return Trajectory(ts + s0.t, qs, ps)

    n0 = max(1, int(np.ceil(duration * steps_per_unit_time)))
    rung = 0
    while True:
        nsteps = n0 * 2**rung
        dt = duration / nsteps
        sample_every = max(1, nsteps // 4096)     # keep about 4096 samples
        if h.magnetic is None:
            _, _, qs, ps, _ = _verlet_steps(h, s0.q, s0.p, dt, nsteps, sample_every)
        else:
            _, _, qs, ps = _midpoint_steps(h, s0.q, s0.p, dt, nsteps, sample_every)
        qs = np.asarray(qs)
        ps = np.asarray(ps)
        drift = abs(h.energy(qs[-1], ps[-1]) - E0) / max(1.0, abs(E0))
        if drift <= energy_tol:
            k = len(qs)
            ts = np.empty(k)
            ts[:-1] = np.arange(k - 1) * (dt * sample_every)
            ts[-1] = duration
            return Trajectory(ts + s0.t, qs, ps)
        if rung >= max_step_halvings:
            raise StepUnderflowError(
                f"energy drift {drift:.3e} above tolerance {energy_tol:.1e} "
                f"after {max_step_halvings} step halvings")
        if rung == 0:
            gain = 16 if h.magnetic is None else 4
            while rung + 1 < max_step_halvings and drift / gain**(rung + 1) > 1.5 * energy_tol:
                rung += 1
        rung += 1

