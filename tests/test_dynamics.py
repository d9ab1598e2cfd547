import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import CallablePotential, HarmonicPotential
from shadowbilliards.dynamics import (AmbientSpace, ClassicalHamiltonian,
                                      ConstantPotential, DomainError, KeplerPotential,
                                      PhaseState, Potential, ZeroPotential,
                                      _verlet_steps, euclidean, flat_torus)


def free_h(dim=2):
    return ClassicalHamiltonian(euclidean(dim))


class TestEvalEnergy:
    def test_free_momentum(self):
        s = PhaseState(np.array([3.0, -1.0]), np.array([1.0, 0.0]))
        assert free_h().energy(s.q, s.p) == pytest.approx(0.5, abs=1e-15)

    def test_constant_potential_minimum(self):
        h = ClassicalHamiltonian(euclidean(2), ConstantPotential(2.5))
        s = PhaseState(np.zeros(2), np.zeros(2))
        assert h.energy(s.q, s.p) == pytest.approx(2.5, abs=1e-15)

    def test_mass_matrix(self):
        # oracle: 0.5 p^T M^{-1} p = 0.5 (m1^2/m1 + m2^2/m2) = (m1 + m2) / 2
        m1, m2 = 2.0, 5.0
        h = ClassicalHamiltonian(euclidean(2), mass=[m1, m2])
        s = PhaseState(np.zeros(2), np.array([m1, m2]))
        assert h.energy(s.q, s.p) == pytest.approx((m1 + m2) / 2, rel=1e-14)

    def test_singular_set_raises(self):
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential(r_min=1e-6))
        with pytest.raises(DomainError):
            h.energy(np.zeros(2), np.zeros(2))


POINTS = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


class TestCentralDifferenceFallbacks:
    """Derivatives taken by central differences match the analytic ones."""

    @seed(20160617)
    @settings(max_examples=40, deadline=None, database=None)
    @given(POINTS)
    def test_callable_potential_grad(self, q):
        pot = CallablePotential(lambda x: np.sin(x[0]) * np.cos(x[1]) + 0.3 * x[2] ** 3)
        exact = np.array([np.cos(q[0]) * np.cos(q[1]), -np.sin(q[0]) * np.sin(q[1]),
                          0.9 * q[2] ** 2])
        assert np.allclose(pot.grad(q), exact, rtol=0, atol=1e-8)


class TestDomain:
    def test_zero_potential(self):
        assert free_h().potential.value(np.zeros(2)) < 1.0

    def test_kepler_sign(self):
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        assert not h.potential.value(np.array([2.0, 0.0])) < -1.0  # W = -1/2 > -1

    def test_boundary_is_excluded(self):
        h = ClassicalHamiltonian(euclidean(2), ConstantPotential(1.0))
        assert not h.potential.value(np.zeros(2)) < 1.0


class TestAmbientSpace:
    def test_torus_wrap_and_windings(self):
        space = flat_torus([1.0, 2.0])
        d = space.displacement([0.9, 0.0], [0.1, 0.0], winding=[1, 0])
        assert np.allclose(d, [1.2, 0.0])
        assert np.allclose(space.displacement([0.9, 0.0], [0.1, 0.0]), [0.2, 0.0])

    def test_torus_periods_positive(self):
        with pytest.raises(ValueError):
            AmbientSpace(2, np.array([1.0, 0.0]))

    def test_euclidean_distance(self):
        assert euclidean(2).distance([0, 0], [3, 4]) == pytest.approx(5.0)


def _scalar_sup_segment_distance(space, path, a_s, b_s):
    """The per-pair loop `sup_segment_distance` replaced, kept as its reference."""
    worst = 0.0
    for pt in path:
        best = np.inf
        for a, b in zip(a_s, b_s):
            ab = b - a
            ap = space.centered(pt - a)
            denom = float(ab @ ab)
            t = np.clip(ap @ ab / denom, 0.0, 1.0) if denom > 0 else 0.0
            best = min(best, float(np.linalg.norm(ap - t * ab)))
        worst = max(worst, best)
    return worst


@st.composite
def _polylines(draw):
    dim = draw(st.integers(1, 3))
    torus = draw(st.booleans())
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)
    space = (flat_torus([draw(st.floats(0.25, 4.0)) for _ in range(dim)])
             if torus else euclidean(dim))
    n_pts = draw(st.integers(1, 12))
    n_verts = draw(st.integers(2, 6))
    path = np.array(draw(st.lists(coord, min_size=n_pts * dim, max_size=n_pts * dim)))
    verts = np.array(draw(st.lists(coord, min_size=n_verts * dim,
                                   max_size=n_verts * dim))).reshape(n_verts, dim)
    if draw(st.booleans()):  # a zero-length segment
        k = draw(st.integers(0, n_verts - 2))
        verts[k + 1] = verts[k]
    return space, path.reshape(n_pts, dim), verts


class TestSupSegmentDistance:
    @seed(20160617)
    @settings(max_examples=150, deadline=None, database=None)
    @given(_polylines())
    def test_equals_the_scalar_loop_bit_for_bit(self, case):
        space, path, verts = case
        got = space.sup_segment_distance(path, verts[:-1], verts[1:])
        assert got == _scalar_sup_segment_distance(space, path, verts[:-1], verts[1:])

    @seed(20160617)
    @settings(max_examples=60, deadline=None, database=None)
    @given(_polylines())
    def test_closed_polygon_on_the_torus(self, case):
        # segment ends as the ncenter chain builds them: b = a + centered(next - a)
        space, path, verts = case
        a = verts
        b = a + space.centered(np.roll(a, -1, axis=0) - a)
        assert space.sup_segment_distance(path, a, b) == \
            _scalar_sup_segment_distance(space, path, a, b)

    def test_single_point_and_single_segment(self):
        space = euclidean(2)
        a, b = np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]])
        assert space.sup_segment_distance([[1.0, 3.0]], a, b) == 3.0
        assert space.sup_segment_distance([[-3.0, 4.0]], a, b) == 5.0
        assert space.sup_segment_distance([[1.0, 1.0]], a, a) == np.sqrt(2.0)

    def test_torus_offsets_are_centered(self):
        space = flat_torus([1.0, 1.0])
        d = space.sup_segment_distance([[0.95, 0.5]], [[0.0, 0.0]], [[0.0, 1.0]])
        assert d == pytest.approx(0.05)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def reference_kepler_grad(pot, q):
    """One-row Kepler gradient written with np.linalg.norm and float powers."""
    rel = q if pot.center is None else q - np.asarray(pot.center, dtype=float)
    return pot.mu * rel / np.linalg.norm(rel) ** 3


W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = 1.0 - 2.0 * W1


def reference_verlet(h, q, p, dt, nsteps):
    """One-row triple jump of kick-drift-kick (weights W1, W0, W1), drift minv @ p.

    Each step takes its own force at both ends (4 gradient calls per step);
    the half-kicks around an inner force are one kick, and the action sums
    p * dq over the drifts, coordinate by coordinate.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    pdq = np.zeros_like(q)
    w1, w0 = W1 * dt, W0 * dt
    for _ in range(nsteps):
        p = p - 0.5 * w1 * h.grad_W(q)
        for c, kick in ((w1, 0.5 * (w1 + w0)), (w0, 0.5 * (w1 + w0)), (w1, 0.5 * w1)):
            dq = c * (h.mass_inv @ p)
            pdq = pdq + p * dq
            q = q + dq
            p = p - kick * h.grad_W(q)
    return q, p, pdq.sum()


class CountingPotential(Potential):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, q):
        return self.inner.value(q)

    def grad(self, q):
        self.calls += 1
        return self.inner.grad(q)


POTENTIALS = {
    "kepler": lambda: KeplerPotential(1.3),
    "kepler_center": lambda: KeplerPotential(0.7, center=[0.25, -0.5]),
    "harmonic": lambda: HarmonicPotential(0.8, center=[0.1, 0.2]),
    "callable": lambda: CallablePotential(lambda x: np.sin(x[0]) * x[1] + 0.2 * x[1] ** 2),
    "callable_grad": lambda: CallablePotential(
        lambda x: 0.5 * float(x @ x), grad=lambda x: np.array([x[0], 3.0 * x[1]])),
}
MASSES = [None, [[2.0, 0.3], [0.3, 1.5]]]


@st.composite
def verlet_batches(draw):
    """Rows 0.6..2 away from the origin and both Kepler centers, small steps."""
    B = draw(st.integers(1, 5))
    radius = st.floats(0.6, 2.0)
    angle = st.floats(0.0, 2 * np.pi)
    polar = draw(st.lists(st.tuples(radius, angle), min_size=B, max_size=B))
    Q = np.array([[r * np.cos(t), r * np.sin(t)] for r, t in polar]) + [0.25, -0.5]
    P = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
                               min_size=B, max_size=B)))
    dt = draw(st.floats(1e-3, 2e-2))
    nsteps = draw(st.integers(1, 12))
    return Q, P, dt, nsteps


class TestBatchedVerlet:
    """A B-row Verlet call is B one-row calls, bit for bit, with one force per substep."""

    @seed(20161103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(verlet_batches(), st.sampled_from(sorted(POTENTIALS)), st.sampled_from(MASSES))
    def test_rows_equal_one_row_calls(self, batch, kind, mass):
        Q, P, dt, nsteps = batch
        h = ClassicalHamiltonian(euclidean(2), POTENTIALS[kind](), mass=mass)
        every = max(1, nsteps // 3)
        qb, pb, qs, ps, sb = _verlet_steps(h, Q, P, dt, nsteps, sample_every=every)
        assert sb.shape == (len(Q),)
        for i in range(len(Q)):
            q1, p1, qs1, ps1, s1 = _verlet_steps(h, Q[i], P[i], dt, nsteps, sample_every=every)
            assert same_bits(qb[i], q1) and same_bits(pb[i], p1) and same_bits(sb[i], s1)
            assert same_bits(np.asarray(qs)[:, i], qs1) and same_bits(np.asarray(ps)[:, i], ps1)
            q_ref, p_ref, s_ref = reference_verlet(h, Q[i], P[i], dt, nsteps)
            assert same_bits(q1, q_ref) and same_bits(p1, p_ref) and same_bits(s1, s_ref)

    @pytest.mark.parametrize("rows", [None, 1, 4])
    @pytest.mark.parametrize("nsteps", [1, 7])
    def test_one_gradient_call_per_step(self, rows, nsteps):
        # one force per substep, three substeps per step, and the opening force
        pot = CountingPotential(KeplerPotential())
        h = ClassicalHamiltonian(euclidean(2), pot)
        q, p = np.array([1.0, 0.2]), np.array([0.1, 0.9])
        if rows is not None:
            q, p = np.tile(q, (rows, 1)), np.tile(p, (rows, 1))
        _verlet_steps(h, q, p, 0.01, nsteps)
        assert pot.calls == 3 * nsteps + 1


def fly(h, q0, p0, duration, steps_per_unit_time=500):
    """End state of a Verlet flight at the step density that closes a Kepler
    period of eccentricity up to 0.5 to 1e-8."""
    n = int(np.ceil(duration * steps_per_unit_time))
    return _verlet_steps(h, q0, p0, duration / n, n, n)[:2]


class TestFlowSegment:
    """Segments of the Hamiltonian flow, flown by the composed Verlet step."""

    def test_free_flight(self):
        # without a force each step is a translation by M^-1 p dt
        Q = np.array([[0.3, -1.2], [2.0, 0.5]])
        P = np.array([[1.0, 0.0], [-0.4, 0.7]])
        for mass in MASSES:
            h = ClassicalHamiltonian(euclidean(2), mass=mass)
            q, p, _, _, action = _verlet_steps(h, Q, P, 0.01, 100)
            V = P @ h.mass_inv
            assert np.allclose(q, Q + V, rtol=0, atol=1e-13) and np.array_equal(p, P)
            assert np.allclose(action, np.sum(P * V, axis=1), rtol=1e-13, atol=0)

    def test_harmonic_period(self):
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        q0, p0 = np.array([1.0, 0.0]), np.zeros(2)
        q, p = fly(h, q0, p0, 2 * np.pi)
        assert np.linalg.norm(q - q0) < 1e-8
        assert np.linalg.norm(p - p0) < 1e-8

    def test_kepler_circular_closure(self):
        # analytic oracle: |q| = 1, |v| = 1 is the circular orbit of period 2 pi
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        q0, p0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        q, p = fly(h, q0, p0, 2 * np.pi)
        assert np.linalg.norm(q - q0) < 1e-8
        assert np.linalg.norm(p - p0) < 1e-8

    def test_energy_drift_budget(self):
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        q0, p0 = np.array([1.0, 0.2]), np.array([0.1, -0.4])
        E0 = h.energy(q0, p0)
        q, p = fly(h, q0, p0, 3.0)
        assert abs(h.energy(q, p) - E0) / max(1.0, abs(E0)) <= 1e-8

    @seed(20161103)
    @settings(max_examples=40, deadline=None, database=None)
    @given(verlet_batches(), st.sampled_from(sorted(POTENTIALS)), st.sampled_from(MASSES))
    def test_time_reversal(self, batch, kind, mass):
        # the triple jump is a symmetric composition: flying (q, -p) back for as
        # many steps retraces the flight to round-off
        Q, P, dt, nsteps = batch
        h = ClassicalHamiltonian(euclidean(2), POTENTIALS[kind](), mass=mass)
        q, p = _verlet_steps(h, Q, P, dt, nsteps)[:2]
        qb, pb = _verlet_steps(h, q, -p, dt, nsteps)[:2]
        assert np.max(np.abs(qb - Q)) <= 1e-11 and np.max(np.abs(pb + P)) <= 1e-11


def harmonic_exact(k, q0, p0, T):
    """Closed-form unit-mass flow of W = k/2 |q|^2: q(T), p(T) and the action int |p|^2 dt."""
    om = np.sqrt(k)
    c, s = np.cos(om * T), np.sin(om * T)
    q = q0 * c + p0 / om * s
    p = p0 * c - om * q0 * s
    half = np.sin(2 * om * T) / (4 * om)
    action = (p0 @ p0) * (T / 2 + half) + k * (q0 @ q0) * (T / 2 - half) - (q0 @ p0) * s**2
    return q, p, action


VECTOR = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).map(np.array)


@st.composite
def order_arcs(draw):
    """A harmonic arc, or a Kepler arc of low eccentricity at radius 0.8..1.5."""
    T = draw(st.floats(1.0, 3.0))
    n = draw(st.integers(20, 60))
    if draw(st.booleans()):
        k = draw(st.floats(0.5, 2.0))
        return ("harmonic", k), draw(VECTOR), draw(VECTOR), T, n
    r, th = draw(st.floats(0.8, 1.5)), draw(st.floats(0.0, 2 * np.pi))
    speed = draw(st.floats(0.85, 1.15)) / np.sqrt(r)      # circular speed is 1/sqrt(r)
    phi = th + np.pi / 2 + draw(st.floats(-0.3, 0.3))
    q = r * np.array([np.cos(th), np.sin(th)])
    return ("kepler", None), q, speed * np.array([np.cos(phi), np.sin(phi)]), T, n


class TestComposedVerletOrder:
    """The composed step is fourth order: doubling the steps cuts the error about 16x."""

    @seed(20161103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(order_arcs())
    def test_error_falls_at_least_12x_per_doubling(self, arc):
        (kind, k), q0, p0, T, n = arc
        pot = HarmonicPotential(k) if kind == "harmonic" else KeplerPotential()
        h = ClassicalHamiltonian(euclidean(2), pot)
        if kind == "harmonic":
            exact = harmonic_exact(k, q0, p0, T)[:2]
        else:     # the flight at 16x the steps, whose error is 1/4096 of the coarse one
            exact = _verlet_steps(h, q0, p0, T / (16 * n), 16 * n, 16 * n)[:2]

        def error(m):
            q, p = _verlet_steps(h, q0, p0, T / m, m, m)[:2]
            return max(np.max(np.abs(q - exact[0])), np.max(np.abs(p - exact[1])))

        assert error(n) >= 12 * error(2 * n)

    @seed(20161103)
    @settings(max_examples=30, deadline=None, database=None)
    @given(st.floats(0.5, 2.0), VECTOR, VECTOR, st.floats(1.0, 3.0))
    def test_action_is_the_momentum_integral(self, k, q0, p0, T):
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential(k))
        _, _, _, _, action = _verlet_steps(h, q0, p0, T / 1000, 1000, 1000)
        exact = harmonic_exact(k, q0, p0, T)[2]
        assert abs(action - exact) <= 1e-9 * max(1.0, abs(exact))


@st.composite
def kepler_rows(draw):
    """Offsets from the center with radius 1e-3..3 (exponent drawn uniformly)."""
    B = draw(st.integers(1, 6))
    polar = draw(st.lists(st.tuples(st.floats(-3.0, 0.5), st.floats(0.0, 2 * np.pi)),
                          min_size=B, max_size=B))
    return np.array([[10.0**e * np.cos(t), 10.0**e * np.sin(t)] for e, t in polar])


class TestBatchedPotentials:
    @seed(20161103)
    @settings(max_examples=80, deadline=None, database=None)
    @given(kepler_rows(), st.sampled_from([None, [0.3, -0.1]]))
    def test_kepler_grad_rows_equal_one_row_results(self, Q, center):
        pot = KeplerPotential(0.9, center=center, r_min=1e-12)
        Q = Q + (center or 0.0)
        G = pot.grad(Q)
        assert G.shape == Q.shape
        for i, q in enumerate(Q):
            assert same_bits(G[i], pot.grad(q))
            assert same_bits(G[i], reference_kepler_grad(pot, q))

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_kepler_grad_raises_when_any_row_is_inside_r_min(self, at):
        pot = KeplerPotential(center=[0.5, 0.5], r_min=1e-6)
        Q = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.3], [0.2, 2.0], [3.0, 1.0]])
        Q[at] = [0.5, 0.5 + 5e-7]
        with pytest.raises(DomainError):
            pot.grad(Q)
        with pytest.raises(DomainError):
            pot.grad(Q[at])

    @pytest.mark.parametrize("pot", [ZeroPotential(), ConstantPotential(2.0),
                                     HarmonicPotential(1.7, center=[0.2, -0.3]),
                                     CallablePotential(lambda x: x[0] ** 2 * np.cos(x[1])),
                                     CallablePotential(lambda x: 0.0,
                                                       grad=lambda x: np.array([x[1], x[0]]))],
                             ids=["zero", "constant", "harmonic", "callable", "callable_grad"])
    def test_grad_broadcasts_over_rows(self, pot):
        Q = np.array([[0.3, 0.4], [-1.2, 0.7], [2.0, -0.1]])
        G = pot.grad(Q)
        assert G.shape == Q.shape
        for i, q in enumerate(Q):
            assert same_bits(G[i], pot.grad(q))
