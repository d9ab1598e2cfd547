import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from shadowbilliards import bvp, kepler as kp
from shadowbilliards.dynamics import ClassicalHamiltonian, KeplerPotential, euclidean


def quad_action(h, z, n, num=200_001):
    """Independent oracle: trapezoid quadrature of sqrt(2/|x| + 2h) |dx|."""
    return trapezoid_action(kp.sample_orbit(h, z, n, num=num), h)


def trapezoid_action(path, h):
    r = np.linalg.norm(path, axis=1)
    integrand = np.sqrt(2.0 / r + 2.0 * h)
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    mid = 0.5 * (integrand[1:] + integrand[:-1])
    return float(np.sum(mid * seg))


class TestArcAction:
    def test_coincident_endpoints_refused(self):
        # a point joined to itself has no simple arc and no unique velocity
        x = np.array([0.7, 0.1])
        for fn in (kp.J_n, kp.travel_time, kp.sample_orbit, kp.arc_endpoint_velocities):
            with pytest.raises(kp.FeasibilityError, match="degenerate chord"):
                fn(-0.5, (x, x.copy()), 1)

    def test_full_revolution_increment(self):
        # one more revolution adds one period of action, 2 pi at a = 1, and
        # J_1 matches the quadrature of its sampled path
        z = (np.array([0.8, 0.0]), np.array([0.0, 0.7]))
        J1 = kp.J_n(-0.5, z, 1)
        J2 = kp.J_n(-0.5, z, 2)
        assert J2 - J1 == pytest.approx(2 * np.pi, rel=1e-13)
        assert J1 == pytest.approx(quad_action(-0.5, z, 1, num=400_001), rel=1e-8)

    def test_swap_symmetry(self):
        xm = np.array([0.9, 0.1])
        xp = np.array([-0.2, 1.0])
        arcs_fwd = sorted(a.action for a in kp.simple_arc_candidates(xm, xp))
        arcs_bwd = sorted(a.action for a in kp.simple_arc_candidates(xp, xm))
        assert np.allclose(arcs_fwd, arcs_bwd, rtol=1e-11)

    @pytest.mark.parametrize("arc, named", [("Short", "'Short'"), (7, "7"), (0, "0")])
    def test_unknown_arc_named(self, arc, named):
        # the least-action arc is the one Kepler arc; a connect label names it "short"
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        with pytest.raises(ValueError, match=f"'short', got {named}$"):
            bvp.connect(h, [0.22, 0.0], [0.0, 0.28], -0.9, label=(1, arc))

    def test_infeasible_geometry(self):
        with pytest.raises(kp.FeasibilityError):
            kp.simple_arc_candidates(np.array([1.9, 0.0]), np.array([-1.9, 0.0]))


class TestJn:
    def test_scaling_consistency(self):
        xm = np.array([0.22, 0.0])
        xp = np.array([0.0, 0.28])
        h = -0.8
        scale = -2.0 * h
        J = kp.J_n(h, (xm, xp), 1)
        J_ref = kp.J_n(-0.5, (scale * xm, scale * xp), 1)
        assert J == pytest.approx(J_ref / np.sqrt(scale), rel=1e-13)

    def test_sign_flips_arc_term_only(self):
        xm = np.array([0.22, 0.0])
        xp = np.array([0.0, 0.28])
        h = -0.7
        Jp = kp.J_n(h, (xm, xp), 1)
        Jm = kp.J_n(h, (xm, xp), -1)
        f = kp.simple_arc_candidates(-2 * h * xm, -2 * h * xp)[0].action
        assert Jp - Jm == pytest.approx(2 * f / np.sqrt(-2 * h), rel=1e-12)

    def test_monotone_in_revolutions(self):
        xm = np.array([0.22, 0.0])
        xp = np.array([0.0, 0.28])
        vals = [kp.J_n(-0.6, (xm, xp), n) for n in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_quadrature_grid(self):
        # acceptance-grade grid: relative error <= 1e-6 against the integral
        xm = np.array([0.22, 0.0])
        xp = np.array([0.0, 0.28])
        for h in (-2.0, -1.0, -0.1):
            for n in (1, -2, 3):
                J = kp.J_n(h, (xm, xp), n)
                Q = quad_action(h, (xm, xp), n)
                assert abs(J - Q) / abs(J) <= 1e-6

    @seed(20161103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.floats(-1.5, 0.5), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi),
           st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_random_endpoints_match_quadrature(self, log_h, s1, s2, t1, t2, n):
        # s1, s2: endpoint radii in units of the semi-major axis a = -1/(2h)
        h = -10.0**log_h
        a = -0.5 / h
        z = (a * s1 * np.array([np.cos(t1), np.sin(t1)]),
             a * s2 * np.array([np.cos(t2), np.sin(t2)]))
        try:
            J = kp.J_n(h, z, n)
        except kp.FeasibilityError:
            assume(False)
        path = kp.sample_orbit(h, z, n, num=20_001)
        # near a collision the 20,001-point trapezoid rule itself misses by
        # more than 1e-6 (its error falls like num**-2 towards J_n there too)
        assume(np.linalg.norm(path, axis=1).min() >= 1e-2 * a)
        assert abs(J - trapezoid_action(path, h)) <= 1e-6 * abs(J)

    @pytest.mark.parametrize("x", [[0.0, 0.0], [2.0, 0.0], [0.0, -3.5]])
    def test_degenerate_chord_outside_hill_region_rejected(self, x):
        # at h = -0.5 (a = 1) no orbit reaches r = 0 or r >= 2
        z = (np.array(x), np.array(x))
        for fn in (kp.J_n, kp.travel_time, kp.sample_orbit):
            with pytest.raises(kp.FeasibilityError):
                fn(-0.5, z, 1)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            kp.J_n(-0.5, (np.array([0.5, 0]), np.array([0, 0.5])), 0)

    @pytest.mark.parametrize("fn", [kp.travel_time, kp.sample_orbit])
    def test_n_zero_rejected_like_J_n(self, fn):
        with pytest.raises(ValueError, match="n = 0"):
            fn(-0.9, (np.array([0.22, 0.0]), np.array([0.0, 0.28])), 0)

    def test_travel_time_is_action_energy_derivative(self):
        # dJ/dh = time of flight (finite differences in h)
        xm = np.array([0.22, 0.0])
        xp = np.array([0.0, 0.28])
        h, dh = -0.9, 1e-6
        tau = kp.travel_time(h, (xm, xp), 2)
        fd = (kp.J_n(h + dh, (xm, xp), 2)
              - kp.J_n(h - dh, (xm, xp), 2)) / (2 * dh)
        assert fd == pytest.approx(tau, rel=1e-6)


class TestThreeBodyLagrangian:
    def setup_method(self):
        self.z = (np.array([0.3, 0.0]), np.array([0.0, 0.35]))

    def test_symmetric_split(self):
        res = kp.three_body_lagrangian((2, 2), self.z, 0.5, 0.5, -0.8)
        assert res.split.h1 == pytest.approx(res.split.h2, rel=1e-9)
        assert res.split.h1 == pytest.approx(-0.8, rel=1e-9)

    def test_matches_constrained_brute_force(self):
        # oracle: dense scan of the feasible split with golden refinement
        k = (2, 3)
        a1, a2, E = 0.4, 0.6, -0.9
        res = kp.three_body_lagrangian(k, self.z, a1, a2, E)
        lo, hi = kp.split_feasible_interval(self.z, a1, a2, E)
        pad = 1e-9 * (hi - lo)
        ts = np.linspace(lo + pad, hi - pad, 4001)
        vals = [a1 * kp.J_n(t, self.z, k[0])
                + a2 * kp.J_n((E - a1 * t) / a2, self.z, k[1]) for t in ts]
        i = int(np.argmin(vals))
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        invphi = (np.sqrt(5) - 1) / 2
        c1, c2 = b - invphi * (b - a), a + invphi * (b - a)

        def g(t):
            return a1 * kp.J_n(t, self.z, k[0]) \
                + a2 * kp.J_n((E - a1 * t) / a2, self.z, k[1])

        f1, f2 = g(c1), g(c2)
        for _ in range(120):
            if f1 < f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - invphi * (b - a)
                f1 = g(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + invphi * (b - a)
                f2 = g(c2)
        brute = g(0.5 * (a + b))
        assert res.value == pytest.approx(brute, abs=1e-9)

    def test_split_synchronizes_travel_times(self):
        res = kp.three_body_lagrangian((1, 2), self.z, 0.35, 0.65, -1.0)
        t1 = kp.travel_time(res.split.h1, self.z, 1)
        t2 = kp.travel_time(res.split.h2, self.z, 2)
        assert t1 == pytest.approx(t2, rel=1e-8)

    def test_envelope_energy_derivative(self):
        # dL/dE equals the common travel time at the optimal split
        k, a1, a2, E = (2, 2), 0.5, 0.5, -0.9
        res = kp.three_body_lagrangian(k, self.z, a1, a2, E)
        dE = 1e-6
        vp = kp.three_body_lagrangian(k, self.z, a1, a2, E + dE).value
        vm = kp.three_body_lagrangian(k, self.z, a1, a2, E - dE).value
        assert (vp - vm) / (2 * dE) == pytest.approx(res.tau, rel=1e-5)

    def test_endpoint_derivatives(self):
        k, a1, a2, E = (1, 1), 0.5, 0.5, -1.1
        res = kp.three_body_lagrangian(k, self.z, a1, a2, E)
        d = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = d
            vp = kp.three_body_lagrangian(k, (self.z[0] + e, self.z[1]), a1, a2, E).value
            vm = kp.three_body_lagrangian(k, (self.z[0] - e, self.z[1]), a1, a2, E).value
            assert (vp - vm) / (2 * d) == pytest.approx(res.d_xm[i], abs=1e-5)
            vp = kp.three_body_lagrangian(k, (self.z[0], self.z[1] + e), a1, a2, E).value
            vm = kp.three_body_lagrangian(k, (self.z[0], self.z[1] - e), a1, a2, E).value
            assert (vp - vm) / (2 * d) == pytest.approx(res.d_xp[i], abs=1e-5)

    def test_zero_revolutions_rejected(self):
        with pytest.raises(ValueError):
            kp.three_body_lagrangian((0, 1), self.z, 0.5, 0.5, -1.0)


class TestCommensurability:
    def test_equal_periods_hit(self):
        rep = kp.commensurability_check((2, 2), -0.5, -0.5)
        assert rep.risk
        assert (1, 1) in rep.hits

    def test_irrational_ratio_no_hit(self):
        # periods with ratio 2^{1/3}: T2/T1 = (h1/h2)^{3/2} = 2^{1/2}... use
        # a direct scan oracle on an incommensurate pair
        h1 = -0.5
        h2 = h1 / 2 ** (1 / 3)  # T2/T1 = sqrt(2)
        rep = kp.commensurability_check((3, 3), h1, h2)
        T1, T2 = rep.periods
        oracle = any(abs(n1 * T1 - n2 * T2) <= 1e-3 * min(T1, T2)
                     for n1 in (1, 2) for n2 in (1, 2))
        assert rep.risk == oracle
        assert not rep.risk

    def test_single_revolution_vacuous(self):
        rep = kp.commensurability_check((1, 1), -0.5, -0.9)
        assert not rep.risk
        assert rep.hits == ()


def scalar_point(el, u):
    """The one-anomaly ellipse point that sampling evaluated once per sample."""
    return el.center + np.cos(u) * el.periapsis_dir + el.b * np.sin(u) * el.minor_dir


def scalar_arc_sample(arc, num, extra_revolutions=0):
    span = arc.direction * ((arc.u_plus - arc.u_minus) * arc.direction % (2 * np.pi))
    span += arc.direction * 2 * np.pi * extra_revolutions
    us = arc.u_minus + np.linspace(0.0, span, num)
    return np.array([scalar_point(arc.ellipse, u) for u in us])


def scalar_sample_orbit(h, z, n, num=513):
    zm, zp = kp._scaled_endpoints(h, z)
    a = 1.0 / (-2.0 * h)
    chosen = kp.simple_arc_candidates(zm, zp)[0]
    if n > 0:
        return a * scalar_arc_sample(chosen, num, n)
    flipped = kp.SimpleArc(chosen.ellipse, chosen.u_minus, chosen.u_plus,
                           -chosen.direction, 2 * np.pi - chosen.action,
                           2 * np.pi - chosen.mean_span)
    return a * scalar_arc_sample(flipped, num, abs(n) - 1)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


POINT = st.tuples(st.floats(0.05, 0.45), st.floats(0.0, 2 * np.pi)).map(
    lambda rt: np.array([rt[0] * np.cos(rt[1]), rt[0] * np.sin(rt[1])]))


class TestVectorizedSampling:
    """One array call per sampled path equals the old loop over anomalies, bit for bit."""

    @seed(20161103)
    @settings(max_examples=60, deadline=None, database=None)
    @given(POINT, POINT, st.floats(-2.0, -0.1), st.sampled_from([-3, -1, 1, 2]))
    def test_sample_orbit_equals_the_scalar_loop(self, xm, xp, h, n):
        z = (xm, xp)
        try:
            ref = scalar_sample_orbit(h, z, n, num=97)
        except kp.FeasibilityError:
            assume(False)
        assert same_bits(kp.sample_orbit(h, z, n, num=97), ref)

    @seed(20161103)
    @settings(max_examples=40, deadline=None, database=None)
    @given(POINT, POINT, st.integers(0, 2), st.integers(2, 300))
    def test_simple_arc_sample_equals_the_scalar_loop(self, xm, xp, extra, num):
        try:
            arcs = kp.simple_arc_candidates(2.0 * xm, 2.0 * xp)
        except kp.FeasibilityError:
            assume(False)
        for arc in arcs:
            assert same_bits(arc.sample(num, extra), scalar_arc_sample(arc, num, extra))

    def test_point_keeps_the_one_anomaly_shape(self):
        el = kp.simple_arc_candidates([0.4, 0.1], [-0.2, 0.5])[0].ellipse
        assert el.point(0.7).shape == (2,)
        assert same_bits(el.point(0.7), scalar_point(el, 0.7))
        us = np.linspace(-1.0, 5.0, 11)
        assert same_bits(el.point(us), np.array([scalar_point(el, u) for u in us]))
