"""Flat ambient spaces, classical Hamiltonians, the Verlet flow, Maupertuis action.

The configuration space is flat: Euclidean space or a flat torus. Generality
enters through the potential and a constant mass matrix. The flow has one
integrator, fourth-order composed Stormer-Verlet, run in the universal cover,
so sampled paths carry their winding explicitly and never wrap mid-flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class DomainError(ValueError):
    """Configuration point outside the admissible domain (singular set or E <= W)."""


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
# Potentials
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
    """H(q,p) = 1/2 p^T M^{-1} p + W(q) with a constant mass matrix M."""

    def __init__(self, space: AmbientSpace, potential: Optional[Potential] = None,
                 mass=None):
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

    @property
    def dim(self) -> int:
        return self.space.dim

    def velocity(self, q, p) -> np.ndarray:
        """H_p(q, p) = M^{-1} p."""
        return self.mass_inv @ np.asarray(p, dtype=float)

    def mass_norm(self, v) -> float:
        """Norm of a velocity vector in the kinetic metric."""
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ self.mass @ v))

    def energy(self, q, p) -> float:
        p = np.asarray(p, dtype=float)
        return 0.5 * float(p @ self.mass_inv @ p) + self.potential.value(q)

    def grad_W(self, q) -> np.ndarray:
        return self.potential.grad(q)


# ---------------------------------------------------------------------------
# Symplectic integration
# ---------------------------------------------------------------------------

# Yoshida's triple jump: substeps of w1 dt, w0 dt, w1 dt of a symmetric
# second-order step make a fourth-order step (Phys. Lett. A 150 (1990) 262)
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1


def _verlet_steps(h: ClassicalHamiltonian, q, p, dt: float, nsteps: int,
                  sample_every: int = 1):
    """Fourth-order Stormer-Verlet; q, p may be batched (B, d).

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
