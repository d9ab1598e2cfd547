"""Fixed-energy two-point connectors and their conjugate-point test.

connect() returns a collision orbit between two configuration points at a
prescribed energy: its Maupertuis action, boundary momenta, travel time and
sampled path. Closed-form backends are authoritative where they apply:
straight chords for free flight (no potential W; the backend checks) and
planar Kepler arcs. The shooting backend, a Newton solve on the composed
Verlet flight, is named explicitly and starts from a guess of (p-, tau);
conjugate_test reads the closed-form drift's transition matrix instead.
Other orbits between the same endpoints are never searched for: a label
names one. A torus winding names a free-flight chord; a Kepler arc is named
by n != 0 or by (n, "short") (kepler.J_n), and the Kepler backend refuses
n = 0, any other arc name and coincident endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dls as dlsmod
from . import kepler as kp
from .dynamics import (ClassicalHamiltonian, DomainError, KeplerPotential,
                       _verlet_steps, kepler_drift)


class ConnectError(RuntimeError):
    """Shooting Newton failed to join the endpoints at the requested energy."""


class ConjugateError(RuntimeError):
    """Endpoints conjugate along the extremal; the two-point problem degenerates."""


@dataclass
class CollisionOrbit:
    """Energy-E connecting orbit with boundary data and a sampled path."""

    h: ClassicalHamiltonian
    E: float
    q_minus: np.ndarray
    q_plus: np.ndarray
    action: float
    tau: float
    p_minus: np.ndarray
    p_plus: np.ndarray
    path: np.ndarray                      # cover coordinates, starts at q_minus
    label: object = None
    # straight and unfolded chords: the action is sqrt(2E) |chord|_M, and the
    # chord moves by -dq_minus and by parity * dq_plus (wall folds flip signs)
    chord: Optional[np.ndarray] = None
    parity: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("q_minus", "q_plus", "p_minus", "p_plus"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        self.path = np.asarray(self.path, dtype=float)
        em = self.h.energy(self.path[0], self.p_minus)
        ep = self.h.energy(self.path[-1], self.p_plus)
        miss_m, miss_p = abs(em - self.E), abs(ep - self.E)
        tol = 1e-8 * max(1.0, abs(self.E))
        if not (miss_m <= tol and miss_p <= tol):     # a nan miss fails too
            raise ConnectError(f"boundary momenta violate the energy constraint: "
                               f"|H - E| = {miss_m:.3e} at q-, {miss_p:.3e} at q+, "
                               f"tolerance {tol:.1e}")


# ---------------------------------------------------------------------------
# Straight-chord backend (free flight on Euclidean space or flat torus)
# ---------------------------------------------------------------------------

def chord_hessian(mass: np.ndarray, disp: np.ndarray, speed) -> np.ndarray:
    """Second derivative of speed * |disp|_M in the displacement disp.

    speed (M / g - M disp disp^T M / g^3) with g = |disp|_M: the Hessian of a
    free-flight action along a straight chord of displacement disp. A stack
    of chords disp (n, d), with mass (d, d) or (n, d, d) and speed a number
    or (n,), gives a stack (n, d, d); each matrix rounds as its one-chord call.
    """
    disp = np.asarray(disp, dtype=float)
    g = np.sqrt(disp[..., None, :] @ mass @ disp[..., :, None])
    Md = mass @ disp[..., :, None]
    # the C pow per chord, as the one-chord g**3: np.power rounds differently
    speed = np.reshape(speed, np.shape(speed) + (1, 1))
    return speed * (mass / g - Md * np.swapaxes(Md, -1, -2) / np.float_power(g, 3))


@dataclass
class Chords:
    """Stacked straight or unfolded chords, one collision orbit per row,
    without paths: actions (n,), boundary momenta, chords and wall parities
    (n, d), mass matrices (n, d, d) and speeds sqrt(2E) (n,)."""

    action: np.ndarray
    p_minus: np.ndarray
    p_plus: np.ndarray
    chord: np.ndarray
    parity: np.ndarray
    mass: np.ndarray
    speed: np.ndarray

    def hessian(self) -> np.ndarray:
        """chord_hessian of every row, (n, d, d)."""
        return chord_hessian(self.mass, self.chord, self.speed)


def _straight_connect(h: ClassicalHamiltonian, qm, qp, E, winding=None,
                      label=None) -> CollisionOrbit:
    if not h.potential.is_zero:
        raise ConnectError("straight chords need free flight: no potential W")
    if E <= 0:
        raise DomainError("free flight needs E > 0")
    qm = np.asarray(qm, dtype=float)
    qp = np.asarray(qp, dtype=float)
    disp = h.space.displacement(qm, qp, winding)
    ell = h.mass_norm(disp)
    if ell == 0:
        raise ConnectError("coincident endpoints with zero winding")
    speed = np.sqrt(2.0 * E)
    v = speed * disp / ell
    p = h.mass @ v
    tau = ell / speed
    ts = np.linspace(0.0, tau, 65)
    path = qm[None, :] + ts[:, None] * v[None, :]
    action = speed * ell
    return CollisionOrbit(h, E, qm, qp, action, tau, p, p, path, label=label,
                          chord=disp, parity=np.ones(disp.size))


# ---------------------------------------------------------------------------
# Kepler backend (planar, attracting center at the origin, mu = 1)
# ---------------------------------------------------------------------------

_KEPLER_SAMPLES = 513       # path samples of a Kepler arc


def _kepler_connect(h: ClassicalHamiltonian, qm, qp, E, label) -> CollisionOrbit:
    pot = h.potential
    if not isinstance(pot, KeplerPotential) or abs(pot.mu - 1.0) > 1e-14:
        raise ConnectError("Kepler backend needs the unit-mu Kepler potential")
    if h.space.dim != 2 or h.space.is_torus:
        raise ConnectError("Kepler backend is planar Euclidean")
    if E >= 0:
        raise DomainError("elliptic Kepler arcs need E < 0")
    n, arc = label if isinstance(label, tuple) else (label, "short")
    if arc != "short":
        raise ValueError(f"arc must be 'short', got {arc!r}")
    n = int(n)
    qm = np.asarray(qm, dtype=float)
    qp = np.asarray(qp, dtype=float)
    z = (qm, qp)
    action = kp.J_n(E, z, n)
    tau = kp.travel_time(E, z, n)
    path = kp.sample_orbit(E, z, n, num=_KEPLER_SAMPLES)
    vm, vp = kp.arc_endpoint_velocities(E, z, n)
    return CollisionOrbit(h, E, qm, qp, float(action), float(tau), vm, vp, path,
                          label=label)


# ---------------------------------------------------------------------------
# Shooting backend
# ---------------------------------------------------------------------------

def _flow_to(h: ClassicalHamiltonian, q0, p0, tau, steps_per_unit: float):
    """Final positions of (q0, p0) flown for time tau, and the rest of the flight:
    (final momenta, path, action per row). A one-row flight keeps its positions
    every ~1/256 of it and at its end as the path; batched stencil rows keep
    only their ends."""
    nsteps = max(8, int(np.ceil(abs(tau) * steps_per_unit)))
    every = nsteps if np.ndim(q0) == 2 else max(1, nsteps // 256)
    q, p, qs, _, action = _verlet_steps(h, q0, p0, tau / nsteps, nsteps, every)
    return q, (p, np.asarray(qs), action)


def _shooting_jacobian(h: ClassicalHamiltonian, qm, p, tau,
                       steps_per_unit: float) -> np.ndarray:
    """Sensitivity of (endpoint, energy) to (initial momentum, travel time).

    Batched central differences in p and the analytic tau column (endpoint
    velocity, step 1e-6): the 2d perturbed rows and the unperturbed row 2d fly
    in one call.
    """
    fd_step = 1e-6
    d = h.dim
    P = np.repeat(p[None, :], 2 * d + 1, axis=0)
    for i in range(d):
        P[2 * i, i] += fd_step
        P[2 * i + 1, i] -= fd_step
    Qe, (Pe, _, _) = _flow_to(h, np.repeat(qm[None, :], 2 * d + 1, axis=0), P, tau,
                              steps_per_unit)
    J = np.zeros((d + 1, d + 1))
    for i in range(d):
        J[:d, i] = (Qe[2 * i] - Qe[2 * i + 1]) / (2 * fd_step)
        J[d, i] = (h.energy(qm, P[2 * i]) - h.energy(qm, P[2 * i + 1])) / (2 * fd_step)
    J[:d, d] = h.velocity(Qe[2 * d], Pe[2 * d])
    return J


_SHOOT_TOL = 1e-10              # relative endpoint and energy miss of a converged shot
_SHOOT_ITERS = 60               # Newton steps before ConnectError
_SHOOT_STEPS_PER_UNIT = 800.0   # Verlet steps per unit time of each flight


def _shooting_connect(h: ClassicalHamiltonian, qm, qp, E, guess,
                      label=None) -> CollisionOrbit:
    """dls.damped_newton on (p-, tau) to the endpoint on the energy shell, at
    most 60 steps, from the guess {"p0": initial momentum, "tau0": travel time}
    (ValueError without both); path, p+ and action are the accepted Newton
    flight's. At 800 steps per unit time p+ meets the energy to 1e-9, a tenth
    of the CollisionOrbit check, on 180 kepler_xcheck arcs (6.4e-9 at 500)."""
    qm = np.asarray(qm, dtype=float)
    qp = np.asarray(qp, dtype=float)
    d = h.dim
    if not (h.potential.value(qm) < E and h.potential.value(qp) < E):
        raise DomainError("endpoints outside the domain of possible motion")
    if guess is None or "p0" not in guess or "tau0" not in guess:
        raise ValueError("the shooting backend starts from a guess with p0 and tau0")
    target = qm + h.space.displacement(qm, qp)
    p, tau = np.array(guess["p0"], dtype=float), float(guess["tau0"])
    scale = max(1.0, np.linalg.norm(target - qm))

    def residual(p, tau):
        q_end, flight = _flow_to(h, qm, p, tau, _SHOOT_STEPS_PER_UNIT)
        return np.concatenate([q_end - target, [h.energy(qm, p) - E]]), flight

    def done(state, rn):
        return (np.linalg.norm(state[2][:d]) <= _SHOOT_TOL * scale
                and abs(state[2][d]) <= _SHOOT_TOL * max(1.0, abs(E)))

    def step(state):
        p, tau, r, _ = state
        J = _shooting_jacobian(h, qm, p, tau, _SHOOT_STEPS_PER_UNIT)
        try:
            return np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise ConjugateError("singular shooting Jacobian (conjugate endpoints)") from exc

    def trial(state, dz, lam):
        p, tau, _, _ = state
        p_new = p + lam * dz[:d]
        tau_new = tau + lam * dz[d]
        if not 0 < tau_new <= 2 * tau:   # no trial flight longer than twice the last
            return None
        r_new, flight_new = residual(p_new, tau_new)
        return (p_new, tau_new, r_new, flight_new), np.linalg.norm(r_new)

    r, flight = residual(p, tau)
    (p, tau, _, (p_plus, path, action)), rn, _, status = dlsmod.run(dlsmod.damped_newton(
        (p, tau, r, flight), np.linalg.norm(r), done, step, trial, _SHOOT_ITERS, 30))
    if status != "converged":
        raise ConnectError(f"shooting Newton {status}: |r| = {rn:.2e}")
    return CollisionOrbit(h, E, qm, qp, float(action), float(tau), p, p_plus, path,
                          label=label)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def connect(h: ClassicalHamiltonian, q_minus, q_plus, E: float, guess=None,
            label=None, backend: str = "auto") -> CollisionOrbit:
    """Energy-E orbit from q_minus to q_plus for the branch named by the label.

    Labels: torus winding vector for free flight; n or (n, "short") for the
    Kepler backend. backend='auto' picks the closed form that applies (ValueError
    where none does); 'shooting' needs a guess with p0 and tau0.
    """
    if backend == "auto":
        if h.potential.is_zero:
            backend = "straight"
        elif isinstance(h.potential, KeplerPotential) and E < 0 and h.dim == 2 \
                and not h.space.is_torus:
            backend = "kepler"
        else:
            raise ValueError("no closed-form backend applies: name backend='shooting' "
                             "with a guess")
    if backend == "straight":
        winding = np.asarray(label, dtype=int) if (label is not None and h.space.is_torus) else None
        return _straight_connect(h, q_minus, q_plus, E, winding, label)
    if backend == "kepler":
        return _kepler_connect(h, q_minus, q_plus, E, label)
    if backend == "shooting":
        return _shooting_connect(h, q_minus, q_plus, E, guess, label)
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class ConjugateReport:
    nondegenerate: bool
    sigma_min: float


_CONJ_TOL = 1e-8    # sigma_min / sigma_max at or below this means conjugate endpoints


def conjugate_test(orbit: CollisionOrbit) -> ConjugateReport:
    """Smallest singular value of the shooting sensitivity [[Phi_qv M^-1, v+],
    [v-^T, 0]], the Jacobian of (endpoint, energy) in (initial momentum, travel
    time), from one dynamics.kepler_drift: mu = 0 for a zero potential (any mass),
    pot.mu about pot.center for a unit-mass KeplerPotential, else ValueError. A
    small sigma_min signals conjugate endpoints; the test is backend independent."""
    h, pot, d = orbit.h, orbit.h.potential, orbit.h.dim
    if not (pot.is_zero or isinstance(pot, KeplerPotential) and h.unit_mass):
        raise ValueError("conjugate_test needs a zero potential or a unit-mass Kepler one")
    vm = h.velocity(orbit.q_minus, orbit.p_minus)
    _, vp, Phi, _ = kepler_drift(pot._rel(orbit.q_minus), vm, orbit.tau,
                                 0.0 if pot.is_zero else pot.mu)
    J = np.block([[Phi[0, :d, d:] @ h.mass_inv, vp.T], [vm[None], np.zeros((1, 1))]])
    sig = np.linalg.svd(J, compute_uv=False)
    return ConjugateReport(bool(sig[-1] > _CONJ_TOL * sig[0]), float(sig[-1]))
