"""Flat ambient spaces, classical Hamiltonians, their flows, Maupertuis action.

The configuration space is flat: Euclidean space or a flat torus. Generality
enters through the potential and a constant mass matrix. Any potential flies
fourth-order composed Stormer-Verlet in the universal cover, so sampled paths
carry their winding explicitly and never wrap mid-flight; the Kepler flow, free
flight at mu = 0, also has a closed form with its transition matrix.
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
        # |rel| as a matmul and r**3 as the C pow (np.float_power): both round
        # like the one-row np.linalg.norm and r**3 (np.power does not)
        rel = self._rel(q)
        if rel.ndim == 1:
            r = float(np.sqrt(rel @ rel))
            if r <= self.r_min:
                raise DomainError(f"point within {self.r_min} of the Kepler center")
            return self.mu * rel / r**3
        r = np.sqrt((rel[..., None, :] @ rel[..., :, None])[..., 0, 0])
        if np.any(r <= self.r_min):
            raise DomainError(f"point within {self.r_min} of the Kepler center")
        return self.mu * rel / np.float_power(r, 3)[..., None]


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


# ---------------------------------------------------------------------------
# Closed-form Kepler drift
# ---------------------------------------------------------------------------

class DriftError(RuntimeError):
    """A Kepler drift row missed the residual test of its Kepler equation."""


_DRIFT_TOL = 5e-14     # |F| / its terms; the floor on 12k rows, |t| <= 10, was 2.7e-15
_DRIFT_ITERS = 60       # Newton or bisection steps before DriftError
_INV_FACT = 1.0 / np.cumprod([1.0, *range(1, 20)])      # 1 / m!, exact products


def _universal(s, beta):
    """G_k(s; beta) = sum_j (-beta)^j s^(k+2j) / (k+2j)!, k = 0..5: a series at
    s / 2^n, where |beta s^2| / 4^n < 1/8, then n doublings by the addition theorem."""
    n = np.maximum(0, (np.frexp(beta * s * s)[1] + 4) // 2)
    a, y = np.ldexp(s, -n), np.ldexp(beta * s * s, -2 * n)
    G, ak = [], 1.0
    for k in range(6):
        c = _INV_FACT[k + 14]
        for j in range(6, -1, -1):
            c = _INV_FACT[k + 2 * j] - y * c
        G.append(ak * c)
        ak = ak * a
    for i in range(int(n.max(initial=0))):
        pw = (1.0, a, a * a / 2, a * a * a / 6)     # G_k(2a) from the G_j(a) and a^j / j!
        new = [G[0] * G[0] - beta * G[1] * G[1]] + [
            sum(G[k - j] * pw[j] for j in range(k - 1)) + G[1] * G[k - 1] + G[0] * G[k]
            for k in range(1, 6)]
        G = [np.where(i < n, u, w) for u, w in zip(new, G)]
        a = np.where(i < n, 2 * a, a)
    return G


def kepler_drift(q, v, t, mu):
    """Kepler flow q'' = -mu q / |q|^3 of rows (q, v) (B, d) about the center for
    times t, t and mu broadcast over the rows (Danby 1988; Goodyear, AJ 70 (1965)
    189): Newton steps on F = r0 G1 + eta0 G2 + mu G3 - t in s (F' = r > 0), kept
    inside the bracket of the signs of F and bisecting where one leaves it or cuts
    |F| less than fourfold, to |F| <= _DRIFT_TOL times its terms (or DriftError).
    Returns q and v from f and g, Phi = d(q, v) / d(q0, v0) (B, 2d, 2d) and the
    action 2 h t + 2 mu s; a mu = 0 row is the line f = 1, g = t, through the
    origin too. Arithmetic only, row by row: a row rounds as it does alone."""
    q, v = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (q, v))    # one row: (1, d)
    t, mu = (np.broadcast_to(np.asarray(x, dtype=float), q.shape[:1]) for x in (t, mu))
    r0 = np.where(mu == 0, 1.0, np.sqrt((q * q).sum(-1)))   # mu / r0 = 0 at the origin too
    eta0, beta = (q * v).sum(-1), 2 * mu / r0 - (v * v).sum(-1)
    # a bound row starts from its mean motion in s, t beta / mu; others from t / r0
    s = np.where(mu == 0, 0.0, t / np.divide(mu, beta, out=r0.copy(), where=beta > 0))
    lo, hi = np.where(t < 0, -np.inf, 0.0), np.where(t < 0, 0.0, np.inf)
    done, F_last = mu == 0, np.inf
    for _ in range(_DRIFT_ITERS):
        G = _universal(s, beta)
        F = r0 * G[1] + eta0 * G[2] + mu * G[3] - t
        r = r0 * G[0] + eta0 * G[1] + mu * G[2]
        size = abs(t) + r0 * abs(G[1]) + abs(eta0 * G[2]) + abs(mu * G[3]) + abs(s) * r
        done = done | np.isfinite(F) & (abs(F) <= _DRIFT_TOL * size)
        if done.all():
            break
        side = np.where(np.isfinite(F), F, t)           # an overflow lies past the root
        lo, hi = np.where(side < 0, s, lo), np.where(side > 0, s, hi)
        step = s - F / r
        newton = (lo < step) & (step < hi) & ((abs(F) <= F_last / 4) | np.isinf(hi - lo))
        F_last = np.where(newton, abs(F), np.inf)
        s = np.where(done, s, np.where(newton, step, (lo + hi) / 2))
    else:
        raise DriftError(f"{np.count_nonzero(~done)} of {done.size} rows missed |F| <= "
                         f"{_DRIFT_TOL:.0e} times its terms in {_DRIFT_ITERS} steps")
    k0, kr = mu / r0, mu / r
    f, g, fd, gd = 1 - k0 * G[2], t - mu * G[3], -k0 * G[1] / r, 1 - kr * G[2]
    # e0, e1, e2: (a, b, c) of the gradients (a q + b v, b q + c v) of r0, eta0, beta
    e0, e1 = np.outer([1, 0, 0], 1 / r0), np.array([[0.0], [1.0], [0.0]])
    e2 = np.outer([1, 0, 0], -2 * k0 / r0 / r0) - [[0.0], [0.0], [2.0]]
    Gb = [(k * G[k + 2] - s * G[k + 1]) / 2 for k in range(4)]        # dG_k / dbeta
    ds = -(G[1] * e0 + G[2] * e1 + (r0 * Gb[1] + eta0 * Gb[2] + mu * Gb[3]) * e2) / r
    dG = [G[k - 1] * ds + Gb[k] * e2 for k in (1, 2, 3)]              # s moves too
    dr = (G[0] * e0 + G[1] * e1 + (r0 * Gb[0] + eta0 * Gb[1] + mu * Gb[2]) * e2
          + (eta0 * G[0] + (mu - beta * r0) * G[1]) * ds)
    D = [-k0 * (dG[1] - G[2] * e0 / r0), -mu * dG[2],
         -k0 / r * (dG[0] - G[1] * (dr / r + e0 / r0)), -kr * (dG[1] - G[2] * dr / r)]
    X = np.kron(np.eye(2), np.stack([q, v], -1))          # Phi = kron(L, I) + X K X^T
    Phi = (np.kron(np.stack([f, g, fd, gd], -1).reshape(-1, 2, 2), np.eye(q.shape[1]))
           + X @ np.stack(D)[:, [0, 1, 1, 2]].transpose(2, 0, 1) @ np.swapaxes(X, -1, -2))
    return (f[:, None] * q + g[:, None] * v, fd[:, None] * q + gd[:, None] * v, Phi,
            2 * mu * s - beta * t)
