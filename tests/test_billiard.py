import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from conftest import (HarmonicPotential, chart_base, chart_jacobian, chart_point,
                      link_endpoints, link_orbit, stencil_lyapunov)
from shadowbilliards import billiard, bvp, dls, dynamics, scenarios
from shadowbilliards.billiard import (BilliardDomain, GrazingEventError, ShadowSolveError,
                                      billiard_trajectory, expansion_residual,
                                      generating_eps, lyapunov_estimate, reflect,
                                      replay, shadow_error, shadow_solve)
from shadowbilliards.dynamics import (ClassicalHamiltonian, KeplerPotential, PhaseState,
                                      euclidean, flat_torus)
from shadowbilliards.scatterer import DiagonalScatterer, PointScatterer, SphereChart


def torus_setup(code=((1, 0), (0, 1))):
    scn = scenarios.torus_point_scenario()
    return scn, scn.chain(list(code))


class TestReflect:
    def test_head_on(self):
        h = ClassicalHamiltonian(euclidean(2))
        p = reflect(h, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert np.allclose(p, [-1.0, 0.0])

    def test_mirror(self):
        h = ClassicalHamiltonian(euclidean(2))
        p0 = np.array([1.0, 1.0]) / np.sqrt(2)
        p = reflect(h, p0, np.array([-1.0, 0.0]))
        assert np.allclose(p, [-p0[0], p0[1]])

    def test_mass_metric_conserves_energy(self):
        h = ClassicalHamiltonian(euclidean(2), mass=[1.0, 4.0])
        q = np.array([0.3, 0.1])
        p0 = np.array([0.7, -1.3])
        n = np.array([0.6, 0.8])
        p1 = reflect(h, p0, n)
        assert abs(h.energy(q, p1) - h.energy(q, p0)) <= 1e-12
        dp = p1 - p0
        assert np.linalg.norm(dp - (dp @ n) * n / (n @ n)) <= 1e-12 * np.linalg.norm(dp)

    def test_batched_random_conservation(self):
        rng = np.random.default_rng(0)
        h = ClassicalHamiltonian(euclidean(3), mass=[1.0, 2.0, 0.5])
        B = 10_000
        p = rng.normal(size=(B, 3))
        n = rng.normal(size=(B, 3))
        p1 = reflect(h, p, n)
        minv = h.mass_inv
        e0 = 0.5 * np.einsum("bi,ij,bj->b", p, minv, p)
        e1 = 0.5 * np.einsum("bi,ij,bj->b", p1, minv, p1)
        assert np.max(np.abs(e1 - e0)) <= 1e-12 * max(1.0, np.max(np.abs(e0)))
        dp = p1 - p
        cross = dp[:, 0] * n[:, 1] - dp[:, 1] * n[:, 0]
        assert np.max(np.abs(cross) / np.linalg.norm(dp, axis=1)) <= 1e-10

    def test_tangential_momentum_is_unchanged(self):
        # <H_p, n> = 0: nothing to reflect (billiard_trajectory refuses such
        # grazing events before it reflects, see TestTrajectory)
        h = ClassicalHamiltonian(euclidean(2), mass=[1.0, 4.0])
        p = np.array([0.0, 1.0])
        assert reflect(h, p, np.array([1.0, 0.0])).tobytes() == p.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_one_row_rounds_as_the_row_formula(self, dim, diagonal):
        # the one-row form that reflect once kept beside its batched one:
        # p - (2 <p, n> / <n, n>) n with <a, b> = a @ M^-1 @ b
        rng = np.random.default_rng(20161018 + dim + 2 * diagonal)
        mass = rng.uniform(0.25, 4.0, dim) if diagonal else None
        h = ClassicalHamiltonian(euclidean(dim), mass=mass)
        minv = h.mass_inv
        for p, n in rng.normal(size=(5_000, 2, dim)):
            ref = p - (2.0 * float(p @ minv @ n) / float(n @ minv @ n)) * n
            assert reflect(h, p, n).tobytes() == ref.tobytes()


@st.composite
def reflection_rows(draw):
    """Random SPD mass (eigenvalues in [1/4, 4]) and momentum and conormal rows."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Qm, _ = np.linalg.qr(rng.normal(size=(d, d)))
    M = (Qm * rng.uniform(0.25, 4.0, d)) @ Qm.T
    M = 0.5 * (M + M.T)
    p, n = rng.normal(size=(2, draw(st.integers(1, 8)), d))
    return M, p, n


class TestReflectRows:
    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(reflection_rows())
    def test_batched_rows_match_one_row(self, case):
        M, p, n = case
        h = ClassicalHamiltonian(euclidean(len(M)), mass=M)
        minv = h.mass_inv
        p1 = reflect(h, p, n)
        e0 = 0.5 * np.einsum("bi,ij,bj->b", p, minv, p)
        e1 = 0.5 * np.einsum("bi,ij,bj->b", p1, minv, p1)
        assert np.max(np.abs(e1 - e0) / e0) <= 1e-12
        for i in range(len(p)):
            assert p1[i].tobytes() == reflect(h, p[i], n[i]).tobytes()
            dp = p1[i] - p[i]
            nn = n[i] / np.linalg.norm(n[i])
            assert np.linalg.norm(dp - (dp @ nn) * nn) <= 1e-10 * np.linalg.norm(dp)


class TestTrajectory:
    def test_head_on_reversal(self):
        scn, _ = torus_setup()
        dom = BilliardDomain(scn.h, scn.scatterer, 0.05)
        s0 = PhaseState(np.array([0.5, 0.0]), np.array([-1.0, 0.0]))
        run = billiard_trajectory(dom, s0, 1)
        assert len(run.events) == 1
        assert np.allclose(run.events[0].p_after, [1.0, 0.0], atol=1e-9)

    def test_long_run_energy(self):
        scn, _ = torus_setup()
        dom = BilliardDomain(scn.h, scn.scatterer, 0.15)
        s0 = PhaseState(np.array([0.5, 0.3]), np.array([0.8, 0.6]))
        E0 = scn.h.energy(s0.q, s0.p)
        run = billiard_trajectory(dom, s0, 1000)
        assert len(run.events) == 1000
        drift = abs(scn.h.energy(run.final.q, run.final.p) - E0)
        assert drift <= 1e-7

    def test_grazing_rejected(self):
        scn, _ = torus_setup()
        eps = 0.1
        dom = BilliardDomain(scn.h, scn.scatterer, eps)
        b = eps * (1 - 1e-9)
        s0 = PhaseState(np.array([0.5, b]), np.array([-1.0, 0.0]))
        with pytest.raises(GrazingEventError):
            billiard_trajectory(dom, s0, 1)

    def test_potential_refused_before_any_flight(self, monkeypatch):
        # flights between events are free drifts, which a force would bend
        def no_flight(*args, **kwargs):
            raise AssertionError("flew a billiard under a potential")

        monkeypatch.setattr(dynamics, "_verlet_steps", no_flight)
        monkeypatch.setattr(billiard, "_FreeFlight", no_flight)
        space = euclidean(2)
        h = ClassicalHamiltonian(space, HarmonicPotential(1.0))
        dom = BilliardDomain(h, PointScatterer(space, [np.array([0.5, 0.0])]), 0.02)
        s0 = PhaseState(np.array([-0.5, 0.005]), np.array([0.8, 0.0]))
        with pytest.raises(ValueError, match="potential must be zero"):
            billiard_trajectory(dom, s0, 4)

    def test_euclidean_miss_raises_after_one_drift(self, monkeypatch):
        # on the plane a ray past every tube is never hit later: one drift
        # without an entry root is enough to give up
        advance = billiard._FreeFlight.advance
        drifts = []

        def one_drift(self, state, dt):
            drifts.append(dt)
            if len(drifts) > 1:
                raise AssertionError("drifted again after a miss on the plane")
            return advance(self, state, dt)

        monkeypatch.setattr(billiard._FreeFlight, "advance", one_drift)
        space = euclidean(2)
        dom = BilliardDomain(ClassicalHamiltonian(space), PointScatterer(space, [np.zeros(2)]),
                             0.1)
        with pytest.raises(billiard.EventSearchError, match="misses every tube"):
            billiard_trajectory(dom, PhaseState(np.array([1.0, 1.0]), np.array([1.0, 0.0])), 1)

    def test_euclidean_entry_beyond_one_drift(self):
        # a slow ray whose entry root lies nine 1e9 drifts ahead is found by
        # drifting on, not reported as a miss
        space = euclidean(2)
        dom = BilliardDomain(ClassicalHamiltonian(space), PointScatterer(space, [np.zeros(2)]),
                             0.1)
        v0 = np.array([1e-10, 0.0])
        run = billiard_trajectory(dom, PhaseState(np.array([-1.0, 0.0]), v0), 1)
        (ev,) = run.events
        assert ev.t == pytest.approx(9e9, rel=1e-9)
        assert np.allclose(ev.q, [-0.1, 0.0], atol=1e-12)
        assert np.allclose(ev.p_after, -v0, rtol=1e-9, atol=0)

    def test_domain_needs_a_point_scatterer(self):
        # the two-ball diagonal carries shadow chains, not billiard flights
        space = euclidean(2)
        with pytest.raises(ValueError, match="point scatterer"):
            BilliardDomain(ClassicalHamiltonian(space), DiagonalScatterer(space), 0.01)

    def test_two_balls_on_a_line_collide_on_time(self):
        # reflection in the diagonal's conormal under mass diag(1, 2) is the
        # one-dimensional elastic collision of the two masses
        m = np.array([1.0, 2.0])
        space = euclidean(2)
        v0 = np.array([0.5, -0.3])
        _, nor = DiagonalScatterer(space).frames(np.zeros(1))
        p_after = reflect(ClassicalHamiltonian(space, mass=np.diag(m)), m * v0, nor[:, 0])
        v1 = ((m[0] - m[1]) * v0[0] + 2 * m[1] * v0[1]) / m.sum()
        v2 = ((m[1] - m[0]) * v0[1] + 2 * m[0] * v0[0]) / m.sum()
        assert np.allclose(p_after, m * [v1, v2], atol=1e-12)


def _first_entry(space, points, q, v, eps):
    """Smallest exact entry root of the ray q + t v over the tubes of the
    points (their images one period around on the torus), and that point."""
    shifts = [np.zeros(2)]
    if space.is_torus:
        shifts = [np.array([i, j], dtype=float) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    best = (np.inf, None)
    for k, a in enumerate(points):
        for shift in shifts:
            w = q - (a + shift)
            b, c = w @ v, w @ w - eps**2
            disc = b * b - (v @ v) * c
            if b < 0 and disc > 0:
                best = min(best, (c / (-b + np.sqrt(disc)), k))
    return best


class TestMultiPointEntries:
    """Exact tube entries among 2 to 4 points, on the plane and the unit torus."""

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.booleans(), st.integers(2, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1e-2, 0.05]))
    @example(False, 2, 0, 1e-2)
    @example(True, 3, 1, 0.05)
    @example(True, 4, 2, 1e-3)
    @example(False, 4, 3, 0.05)
    def test_first_event_is_the_smallest_root(self, torus, n, rng_seed, eps):
        rng = np.random.default_rng(rng_seed)
        space = flat_torus([1.0, 1.0]) if torus else euclidean(2)
        # on the torus a start in the unit cell keeps the ray's first hit among
        # the images one period around, which _first_entry scans
        lo, hi = (0.0, 1.0) if torus else (-0.5, 1.5)
        while True:         # separated points, and a start 2 eps outside every one
            points = rng.uniform(0.0, 1.0, size=(n, 2))
            q = rng.uniform(lo, hi, size=2)
            gaps = [space.distance(a, b) for i, a in enumerate(points) for b in points[i + 1:]]
            if min(gaps) > 4 * eps and min(space.distance(q, a) for a in points) > 2 * eps:
                break
        # aim within 0.9 eps of one point, so the ray hits a tube, not grazing it
        target = q + space.centered(points[rng.integers(n)] - q)
        u = (target - q) / np.linalg.norm(target - q)
        aim = target + rng.uniform(-0.9, 0.9) * eps * np.array([-u[1], u[0]])
        v = rng.uniform(0.5, 2.0) * (aim - q) / np.linalg.norm(aim - q)
        t_ref, k = _first_entry(space, points, q, v, eps)
        hit = q + t_ref * v - points[k]
        assume(abs(hit @ v) > 1e-3 * eps * np.linalg.norm(v))   # not grazing the first tube

        scat = PointScatterer(space, points)
        dom = BilliardDomain(ClassicalHamiltonian(space), scat, eps)
        ev = billiard_trajectory(dom, PhaseState(q, v), 1).events[0]
        assert abs(ev.t - t_ref) <= 1e-12
        near = scat.nearest(ev.q)
        assert near.x == k
        assert abs(near.distance - eps) <= 1e-12
        normal = space.centered(ev.q - points[k]) / near.distance
        mirror = ev.p_before - 2 * (ev.p_before @ normal) * normal
        assert np.abs(ev.p_after - mirror).max() <= 1e-12 * np.linalg.norm(v)


@st.composite
def chart_stacks(draw):
    """1 to 6 site charts of one scatterer (3 points on a 2- or 3-torus, or
    the two-body diagonal of 2, 4 or 6 dimensions) at random sphere centers
    and one eps, with chart coordinates U (n, dim) and momenta P (n, d)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    eps = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    if draw(st.booleans()):
        d = draw(st.sampled_from([2, 3]))
        scat = PointScatterer(flat_torus([1.0] * d), rng.uniform(0.0, 1.0, (3, d)))
        refs = [int(i) for i in rng.integers(0, 3, n)]
    else:
        d = draw(st.sampled_from([2, 4, 6]))
        scat = DiagonalScatterer(euclidean(d))
        refs = list(rng.uniform(0.2, 0.8, (n, d // 2)))
    charts = [billiard._SiteChart(scat, ref, SphereChart(rng.normal(size=scat.codim)), eps)
              for ref in refs]
    return charts, 0.3 * rng.normal(size=(n, charts[0].dim)), rng.normal(size=(n, d))


class TestSiteChartRows:
    """_SiteChart.rows, the one evaluation of the tube-chart geometry, rounds
    each row as the one-chart forms (conftest.chart_point, chart_jacobian)."""

    @seed(20161018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(chart_stacks())
    def test_rows_round_as_one_chart(self, case):
        charts, U, _ = case
        Q, J, _ = billiard._SiteChart.rows(charts, U)
        for chart, u, q, jac in zip(charts, U, Q, J):
            assert q.tobytes() == chart_point(chart, u).tobytes()
            assert jac.tobytes() == chart_jacobian(chart, u).tobytes()
            # the sphere columns are tangent to the sphere at s(sigma)
            s = chart.sphere.value(u[chart.x_dim:])
            _, nor = chart.scat.frames(chart_base(chart, u))
            assert np.max(np.abs(s @ nor.T @ jac[:, chart.x_dim:]), initial=0.0) <= 1e-12

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-3, 1e-2, 0.05]))
    def test_section_states_invert_the_rows(self, d, n, rng_seed, eps):
        # section coordinates of tube points Q(xi) on the torus's point: xi
        # again, and y = J^T p with the one-chart Jacobian there, to the bit
        rng = np.random.default_rng(rng_seed)
        scn = scenarios.torus_point_scenario(dim=d)
        dom = BilliardDomain(scn.h, scn.scatterer, eps)
        charts = [billiard._SiteChart(scn.scatterer, 0, SphereChart(rng.normal(size=d)), eps)
                  for _ in range(n)]
        U = 0.3 * rng.normal(size=(n, d - 1))
        P = rng.normal(size=(n, d))
        XI, Y = billiard._section_project(dom, charts, [chart_point(c, u) for c, u in
                                                        zip(charts, U)], P)
        assert np.max(np.abs(XI - U)) <= 1e-12
        for chart, xi, p, y in zip(charts, XI, P, Y):
            ref = chart_jacobian(chart, xi).T @ p
            assert y.tobytes() == ref.tobytes()


class TestGeneratingFunction:
    def test_exact_chord(self):
        # exact distance oracle between tube points across the winding
        scn, _ = torus_setup()
        eps = 1e-3
        s_m = np.array([1.0, 0.0])
        s_p = np.array([0.0, 1.0])
        got = generating_eps(scn.dl, (1, 0), 0, s_m, 0, s_p, eps)
        chord = np.array([1.0, 0.0]) + eps * s_p - eps * s_m
        assert got == pytest.approx(np.linalg.norm(chord), rel=1e-12)

    def test_eps_zero(self):
        scn, _ = torus_setup()
        s = np.array([1.0, 0.0])
        got = generating_eps(scn.dl, (2, 1), 0, s, 0, s, 0.0)
        assert got == pytest.approx(np.sqrt(5.0), rel=1e-14)

    def test_expansion_slope_two(self):
        scn, _ = torus_setup()
        s_m = np.array([0.6, 0.8])
        s_p = np.array([-0.8, 0.6])
        eps_list = np.logspace(-2, -4, 7)
        resid = [expansion_residual(scn.dl, (1, 0), 0, s_m, 0, s_p, e)
                 for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(resid), 1)[0]
        assert abs(slope - 2.0) <= 0.1


def _one_link_hessians(link, um, up):
    """The closed-form Hessian blocks of one tube link and their
    dls.difference_hessians, from one-row family calls."""
    one = ([link], um[None], up[None])
    return ([b[0] for b in billiard.TwoPointLink.hessians(*one)],
            [b[0] for b in dls.difference_hessians(billiard.TwoPointLink, *one)])


class TestTwoPointHessian:
    """The closed-form tube-link Hessian against central differences of its
    exact gradient (one Richardson step), on random tube points."""

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([2, 3]), st.lists(st.integers(-2, 2), min_size=3, max_size=3),
           st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
           st.sampled_from([1e-3, 1e-2, 0.05]))
    def test_torus_chord_connector(self, dim, winding, r, eps):
        # sphere charts of dimension 1 and 2, off their centers
        k = tuple(winding[:dim])
        cm, cp = np.array(r[:dim]), np.array(r[3:3 + dim])
        assume(any(k) and min(np.linalg.norm(cm), np.linalg.norm(cp)) > 0.1)
        scn = scenarios.torus_point_scenario(dim=dim)
        left = billiard._SiteChart(scn.scatterer, 0, SphereChart(cm), eps)
        right = billiard._SiteChart(scn.scatterer, 0, SphereChart(cp), eps)
        link = billiard.TwoPointLink(scn.dl.link(k), left, right, eps)
        um, up = 0.3 * np.array(r[6:5 + dim]), 0.3 * np.array(r[8:7 + dim])
        assert link_orbit(link, um, up).chord is not None   # the closed form applies
        exact, fd = _one_link_hessians(link, um, up)
        for he, hf in zip(exact, fd):
            assert np.allclose(he, hf, rtol=1e-6, atol=1e-10)

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(-3, 3), st.integers(-3, 3),
           st.lists(st.floats(0.1, 0.9), min_size=4, max_size=4),
           st.floats(-0.05, 0.05), st.floats(-0.05, 0.05), st.sampled_from([-1.0, 1.0]),
           st.sampled_from([-1.0, 1.0]), st.booleans(), st.booleans(),
           st.sampled_from([1e-3, 1e-2]))
    def test_box_fold_connector(self, m1, m2, x, dm, dp, sgm, sgp, frozen_m, frozen_p, eps):
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        box = scenarios.TwoBallBoxLink(scn.h, scn.E, scn.masses, scn.box, (m1, m2), eps)

        def chart(frozen, xa, xb, sign):
            if frozen:
                return billiard._FrozenChart(np.array([xa, xb]))
            return billiard._SiteChart(scn.scatterer, np.array([xa]),
                                       SphereChart(np.array([sign])), eps)

        left, right = chart(frozen_m, *x[:2], sgm), chart(frozen_p, *x[2:], sgp)
        link = billiard.TwoPointLink(box, left, right, eps)
        um = np.zeros(0) if frozen_m else np.array([dm])
        up = np.zeros(0) if frozen_p else np.array([dp])
        orbit = link_orbit(link, um, up)
        assume(np.min(np.abs(orbit.chord)) > 1e-3 and orbit.tau > 0.05)
        exact, fd = _one_link_hessians(link, um, up)
        assert [h.shape for h in exact] == [h.shape for h in fd]
        for he, hf in zip(exact, fd):
            assert np.allclose(he, hf, rtol=1e-6, atol=1e-8)


def _curvature_reference(chart, u, p):
    """sum_k p_k d^2 Q_k / du du of one flat chart, as a one-chart formula:
    only the sphere block, -(w beta^T + beta w^T + (s.y)(I - beta beta^T)) / n^2
    with s = v / n, v = c + T sigma, beta = T^T s, w = T^T (y - s (s.y))."""
    if isinstance(chart, billiard._FrozenChart):
        return np.zeros((0, 0))
    sigma = np.asarray(u, dtype=float)[chart.x_dim:]
    _, nor = chart.scat.frames(chart_base(chart, u))
    v = chart.sphere.center + chart.sphere.basis @ sigma
    n = np.linalg.norm(v)
    s = v / n
    y = nor.T @ p
    beta = chart.sphere.basis.T @ s
    w = chart.sphere.basis.T @ (y - s * (s @ y))
    C = np.zeros((chart.dim, chart.dim))
    C[chart.x_dim:, chart.x_dim:] = -chart.eps * (
        np.outer(w, beta) + np.outer(beta, w)
        + (s @ y) * (np.eye(chart.s_dim) - np.outer(beta, beta))) / n**2
    return C


def _row_reference(link, um, up):
    """(value, D-, D+, D--, D-+, D++) of one tube link from its connector's
    CollisionOrbit: momenta pulled back through the chart Jacobians, and the
    chord Hessian with the charts' curvatures."""
    orb = link_orbit(link, um, up)
    Jm, Jp = chart_jacobian(link.left, um), chart_jacobian(link.right, up)
    K = bvp.chord_hessian(orb.h.mass, orb.chord, np.sqrt(2.0 * orb.E))
    KP = K * orb.parity
    return (float(orb.action), -Jm.T @ orb.p_minus, Jp.T @ orb.p_plus,
            Jm.T @ K @ Jm - _curvature_reference(link.left, um, orb.p_minus),
            -Jm.T @ KP @ Jp,
            Jp.T @ (orb.parity[:, None] * KP) @ Jp
            + _curvature_reference(link.right, up, orb.p_plus))


def _assert_rows_match(jdl, jc):
    """Every row of the joint chain's families has its one-row reference's bytes."""
    vals = dls._per_link(jdl, jc, "values")
    grads = dls._per_link(jdl, jc, "grads")
    hess = dls._per_link(jdl, jc, "hessians")
    for j, key in enumerate(jc.code):
        got = [np.float64(vals[j]), *grads[j], *hess[j]]
        ref = _row_reference(jdl.links[key], *link_endpoints(jc, j))
        for g, r in zip(got, ref):
            r = np.asarray(r, dtype=float)
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), (j, g, r)


class TestTwoPointRows:
    """The family rows of TwoPointLink round exactly as the per-link
    evaluation through the connector's orbit and the one-chart formulas."""

    @seed(20161018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 5), st.lists(st.floats(0.2, 0.8), min_size=5, max_size=5),
           st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=6, max_size=6),
           st.lists(st.floats(0.15, 0.85), min_size=4, max_size=4),
           st.floats(0.5, 3.0), st.booleans(), st.sampled_from([1e-3, 1e-2]))
    @example(3, [0.3, 0.5, 0.7, 0.4, 0.6], [0.0, 0.01, -0.02, 0.0, 0.0],
             [(0, 0), (-1, 1), (-1, 1), (-1, 1), (0, 0), (0, 0)],
             [0.15, 0.85, 0.2, 0.8], 2.0, True, 1e-3)
    @example(1, [0.45, 0.5, 0.5, 0.5, 0.5], [0.03, 0.0, 0.0, 0.0, 0.0],
             [(2, -3), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
             [0.3, 0.6, 0.7, 0.25], 0.5, False, 1e-2)
    def test_box_fixed_chain(self, n, xs, us, patterns, ends, mass, anchored, eps):
        # end families with a frozen slot on either side and a middle family,
        # patterns differing row by row
        scn = scenarios.two_ball_box_scenario(masses=(1.0, mass))
        a, b = np.array(ends[:2]), np.array(ends[2:])
        sign = [1.0 if k % 2 else -1.0 for k in range(n)]
        charts = [billiard._SiteChart(scn.scatterer, np.array([xs[i]]),
                                      SphereChart(np.array([sign[i]])), eps) for i in range(n)]
        links = {}
        for j in range(n + 1):
            first, last = j == 0, j == n
            base = scenarios.TwoBallBoxLink(scn.h, scn.E, scn.masses, scn.box, patterns[j], eps,
                                            left=a if first and anchored else None,
                                            right=b if last and anchored else None)
            left = billiard._FrozenChart(a) if first else charts[j - 1]
            right = billiard._FrozenChart(b) if last else charts[j]
            links[j] = billiard.TwoPointLink(base, left, right, eps)
        jdl = dls.DiscreteLagrangian(links)
        jc = dls.ChainConfiguration(list(range(n + 1)), [np.array([u]) for u in us[:n]], "fixed")
        for j in range(n + 1):
            orbit = link_orbit(jdl.links[j], *link_endpoints(jc, j))
            assume(np.min(np.abs(orbit.chord)) > 1e-6)
        _assert_rows_match(jdl, jc)

    @seed(20161018)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from([2, 3]), st.integers(2, 4),
           st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=4,
                    max_size=4),
           st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
           st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
           st.sampled_from([1e-3, 1e-2, 0.05]))
    @example(2, 2, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]],
             [0.6, -0.7, -0.5, 0.4] + [0.0] * 8, [0.1, -0.2] + [0.0] * 6, 1e-3)
    @example(3, 3, [[1, 0, 1], [0, -1, 1], [2, 1, 0], [0, 0, 0]],
             [0.5, 0.2, -0.9, -0.3, 0.8, 0.1, 0.4, 0.4, 0.4, 0.0, 0.0, 0.0],
             [0.05, -0.1, 0.2, 0.0, -0.25, 0.3, 0.0, 0.0], 0.05)
    @example(3, 2, [[1, 0, 1], [0, -1, 1], [0, 0, 0], [0, 0, 0]],   # |v|**2 != |v| * |v|
             [0.86, 0.91, -0.23, 0.59, -0.87, -0.05] + [0.0] * 6,
             [-0.28, -0.24, 0.26, 0.25] + [0.0] * 4, 1e-2)
    def test_torus_periodic_chain(self, dim, n, windings, centers, us, eps):
        # sphere charts of dimension 1 and 2, off their centers
        scn = scenarios.torus_point_scenario(dim=dim)
        cs = [np.array(centers[dim * i:dim * (i + 1)]) for i in range(n)]
        assume(min(np.linalg.norm(c) for c in cs) > 0.1)
        code = [tuple(w[:dim]) for w in windings[:n]]
        assume(all(any(k) for k in code))
        charts = [billiard._SiteChart(scn.scatterer, 0, SphereChart(c), eps) for c in cs]
        links = {j: billiard.TwoPointLink(scn.dl.link(code[j]), charts[j], charts[(j + 1) % n],
                                          eps) for j in range(n)}
        jdl = dls.DiscreteLagrangian(links)
        k = dim - 1
        jc = dls.ChainConfiguration(list(range(n)),
                                    [np.array(us[k * i:k * (i + 1)]) for i in range(n)])
        _assert_rows_match(jdl, jc)

    def test_two_ball_torus_base_refused(self):
        # nothing ships a two-ball torus shadow solve, so its links have no
        # stacked chord form: the tube link refuses them before any evaluation
        scn = scenarios.two_ball_torus_scenario()
        chart = billiard._SiteChart(scn.scatterer, np.array([0.25]),
                                    SphereChart(np.array([1.0])), 1e-3)
        with pytest.raises(ShadowSolveError, match="TwoBallTorusLink.*no stacked chord form"):
            billiard.TwoPointLink(scn.dl.link((1, 0)), chart, chart, 1e-3)


class TestKeplerConnector:
    def test_tube_link_needs_a_chord(self):
        # a Kepler arc has no chord, so the tube link has no stacked closed
        # form: it is refused before anything is evaluated
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential(1.0))
        scat = PointScatterer(euclidean(2), [[0.3, 0.0], [0.0, 0.3]])
        connects = []

        class KeplerArcLink(dls.LinkEvaluator):
            dim_minus = dim_plus = 0

            def ambient_connect(self, qm, qp, eps):
                connects.append((qm, qp))
                return bvp.connect(h, qm, qp, -0.9, label=1)

        base = KeplerArcLink()
        left = billiard._SiteChart(scat, 0, SphereChart(np.array([1.0, 0.0])), 1e-3)
        right = billiard._SiteChart(scat, 1, SphereChart(np.array([0.0, 1.0])), 1e-3)
        assert base.ambient_connect(chart_point(left, np.zeros(1)),
                                    chart_point(right, np.zeros(1)), 1e-3).chord is None
        connects.clear()
        with pytest.raises(ShadowSolveError, match="KeplerArcLink.*no stacked chord form"):
            billiard.TwoPointLink(base, left, right, 1e-3)
        assert connects == []


class TestHonestConvergence:
    @seed(20161018)
    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(2, 8), st.lists(st.floats(0.15, 0.85), min_size=4, max_size=4),
           st.floats(0.5, 3.0), st.integers(0, 2**16), st.sampled_from([1e-3, 1e-2]))
    def test_converged_means_residual_at_tol(self, n_mid, ends, mass, start_seed, eps):
        # on random fixed box chains: a converged Newton, and a returned shadow
        # chain, have a recomputed residual at or below their tolerance
        scn = scenarios.two_ball_box_scenario(masses=(1.0, mass))
        a, b = np.array(ends[:2]), np.array(ends[2:])
        code = [(0, 0)] + [(-1, 1)] * n_mid + [(0, 0)]
        dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
        starts = np.sort(np.random.default_rng(start_seed).uniform(0.25, 0.75, n_mid + 1))
        chain = scenarios.box_fixed_chain(code, [np.array([x]) for x in starts])
        try:
            res = dls.newton_chain(dl, chain)
        except (dls.NewtonError, dls.ChainDomainError):
            return
        if res.converged:
            assert res.residual_inf <= 1e-10
            assert dls.residual_norm(dls.residual(dl, res.chain)) <= 1e-10
        try:
            sc = shadow_solve(scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=eps),
                              res.chain, eps)
        except ShadowSolveError:
            return
        tol = sc.diagnostics["tolerance"]
        assert sc.residual_inf <= tol
        assert dls.residual_norm(dls.residual(sc.joint_dl, sc.joint_chain)) <= tol


def _box_shadow_chain():
    """Shadow chain at eps = 1e-3 of a fixed 4-link box chain (masses 1, 2)."""
    scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
    a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
    code = [(0, 0), (-1, 1), (-1, 1), (0, 0)]
    res = dls.newton_chain(scenarios.box_fixed_lagrangian(scn, a, b, code),
                           scenarios.box_fixed_chain(code, [np.array([0.55]), np.array([0.7]),
                                                            np.array([0.6])]))
    return shadow_solve(scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=1e-3),
                        res.chain, 1e-3)


class TestShadowSolve:
    def test_alternating_code_converges_within_5eps(self):
        scn, chain = torus_setup()
        eps = 1e-3
        sc = shadow_solve(scn.dl, chain, eps)
        assert sc.residual_inf <= 1e-10 * np.sqrt(2 * scn.E)
        err = shadow_error(scn.dl, chain, sc)
        assert err <= 5 * eps

    def test_inadmissible_code_rejected(self):
        scn = scenarios.torus_point_scenario()
        chain = scn.chain([(1, 0), (2, 0)])
        with pytest.raises(ShadowSolveError):
            shadow_solve(scn.dl, chain, 1e-3)

    def test_lagrangian_without_energy_refused(self):
        # the tolerance is tol_factor * sqrt(2E): without an energy there is
        # none to scale it by (an energy of 0.5 was once made up)
        scn, chain = torus_setup()
        dl = dls.DiscreteLagrangian(scn.dl.links, scatterer=scn.scatterer,
                                    site_bases=scn.dl.site_bases)
        with pytest.raises(ValueError, match="must carry its energy"):
            shadow_solve(dl, chain, 1e-3)

    def test_point_lagrangian_without_site_bases_refused(self):
        # a point scatterer's sites are named by site_bases (once point 0 by default)
        scn, chain = torus_setup()
        dl = dls.DiscreteLagrangian(scn.dl.links, energy=scn.E, scatterer=scn.scatterer)
        with pytest.raises(ValueError, match="must carry its site_bases"):
            shadow_solve(dl, chain, 1e-3)

    def test_returned_orbits_join_the_tube_points(self):
        # one tube_points evaluation per family gives the ends of the orbits:
        # the one-chart tube points of each link's slots, to the bit
        scn, chain = torus_setup()
        for sc in (shadow_solve(scn.dl, chain, 1e-3), _box_shadow_chain()):
            for j, key in enumerate(sc.joint_chain.code):
                link = sc.joint_dl.links[key]
                um, up = link_endpoints(sc.joint_chain, j)
                ref = link_orbit(link, um, up)
                got = sc.orbits[j]
                for a, b in ((got.q_minus, ref.q_minus), (got.q_plus, ref.q_plus),
                             (got.path, ref.path), (got.p_minus, ref.p_minus)):
                    assert a.tobytes() == b.tobytes()

    def test_critical_predictor_needs_no_iteration(self, monkeypatch):
        # the convex predictor of this chain is already critical, so a budget
        # of zero Newton steps suffices
        monkeypatch.setattr(billiard, "_SHADOW_ITERS", 0)
        scn, chain = torus_setup()
        sc = shadow_solve(scn.dl, chain, 1e-3)
        assert sc.diagnostics["iterations"] == 0
        assert sc.residual_inf <= 1e-10 * np.sqrt(2 * scn.E)

    @pytest.mark.parametrize("error, expected, message", [
        (bvp.ConnectError, ShadowSolveError, "stalled"),
        (TypeError, TypeError, "trial connect failed")])
    def test_trial_step_failures(self, monkeypatch, error, expected, message):
        # every stacked chord evaluation after the first Hessian fails: a
        # connector failure halves the step until the line search stalls, a
        # programming error propagates
        scn, chain = torus_setup(((1, 0), (0, 1), (1, 1)))  # needs a Newton step
        state = {"hessian_done": False}
        tube_chords, hessian = scenarios.ChordLink.tube_chords, dls.hessian

        def flaky_chords(cls, *args):
            if state["hessian_done"]:
                raise error("trial connect failed")
            return tube_chords(*args)

        def marking_hessian(*args):
            H = hessian(*args)
            state["hessian_done"] = True
            return H

        monkeypatch.setattr(scenarios.ChordLink, "tube_chords", classmethod(flaky_chords))
        monkeypatch.setattr(dls, "hessian", marking_hessian)
        with pytest.raises(expected, match=message):
            shadow_solve(scn.dl, chain, 1e-3)

    def test_box_fixed_endpoints_preserved(self):
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
        code = [(0, 0), (-1, 1), (-1, 1), (0, 0)]
        dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
        chain0 = scenarios.box_fixed_chain(code, [np.array([0.55]), np.array([0.7]),
                                                  np.array([0.6])])
        res = dls.newton_chain(dl, chain0)
        sc = shadow_solve(dl, res.chain, 1e-3)
        assert np.linalg.norm(sc.orbits[0].path[0] - a) <= 1e-9
        assert np.linalg.norm(sc.orbits[-1].path[-1] - b) <= 1e-9

    def test_uniqueness_within_predictor_basin(self, monkeypatch):
        scn, chain = torus_setup()
        eps = 1e-3
        sc1 = shadow_solve(scn.dl, chain, eps, tol_factor=1e-12)
        # second start: slightly rotated tube directions
        rot = np.array([[np.cos(0.05), -np.sin(0.05)], [np.sin(0.05), np.cos(0.05)]])
        dirs = [rot @ bp.s for bp in sc1.boundary]
        monkeypatch.setattr(billiard, "_predictor_directions", lambda dl, c: dirs)
        sc2 = shadow_solve(scn.dl, chain, eps, tol_factor=1e-12)
        gap = max(np.linalg.norm(b1.ambient - b2.ambient)
                  for b1, b2 in zip(sc1.boundary, sc2.boundary))
        assert gap <= 1e-9


class TestShadowError:
    def test_eps_sweep_slope(self):
        scn, chain = torus_setup()
        eps_list = [1e-2, 10**-2.5, 1e-3, 10**-3.5]
        errs = [shadow_error(scn.dl, chain, shadow_solve(scn.dl, chain, e))
                for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_halving_ratio(self):
        scn, chain = torus_setup([(1, 0), (1, 1), (0, 1), (-1, 1)])
        e1 = shadow_error(scn.dl, chain, shadow_solve(scn.dl, chain, 2e-3))
        e2 = shadow_error(scn.dl, chain, shadow_solve(scn.dl, chain, 1e-3))
        assert 0.4 <= e2 / e1 <= 0.6

    def test_shipped_torus_point_golden(self):
        # recorded with the per-pair scalar loop that sup_segment_distance reproduces
        scn, chain = torus_setup()
        sc = shadow_solve(scn.dl, chain, 1e-3)
        assert repr(shadow_error(scn.dl, chain, sc)) == "0.0007071067811865476"


class TestReplayConsistency:
    def test_torus_replay(self):
        scn, chain = torus_setup([(1, 0), (0, 1), (1, 1), (0, -1)])
        eps = 1e-2
        sc = shadow_solve(scn.dl, chain, eps, tol_factor=1e-13)
        dom = BilliardDomain(scn.h, scn.scatterer, eps)
        run = replay(sc, dom)
        seq = [*sc.boundary[1:], sc.boundary[0]]
        for ev, bp in zip(run.events, seq):
            assert np.linalg.norm(scn.h.space.centered(ev.q - bp.ambient)) <= 1e-6


class TestLyapunov:
    def setup_method(self):
        self.scn, self.chain = torus_setup()

    def solve_at(self, eps):
        sc = shadow_solve(self.scn.dl, self.chain, eps, tol_factor=1e-13)
        dom = BilliardDomain(self.scn.h, self.scn.scatterer, eps)
        return lyapunov_estimate(sc, dom)

    def test_log_eps_fit(self):
        eps_list = [1e-2, 10**-2.5, 1e-3, 10**-3.5]
        lams = [float(np.max(self.solve_at(e))) for e in eps_list]
        x = np.log(1.0 / np.asarray(eps_list))
        A = np.vstack([np.ones_like(x), x]).T
        (a, b), *_ = np.linalg.lstsq(A, np.asarray(lams), rcond=None)
        pred = A @ np.array([a, b])
        r2 = 1 - np.sum((lams - pred) ** 2) / np.sum((lams - np.mean(lams)) ** 2)
        assert b > 0
        assert r2 >= 0.98

    def test_large_count_equals_codimension(self):
        exps = self.solve_at(1e-3)
        big = np.sum(np.abs(exps) >= 0.5 * np.max(np.abs(exps)))
        assert big == self.scn.scatterer.codim == 2

    def test_plus_minus_pairs(self):
        exps = self.solve_at(1e-2)
        assert abs(exps[0] + exps[-1]) <= 1e-10


THREE_LINK = [(1, 0), (0, 1), (1, 1)]
HALF_DECADES = [10**(-2.0 - 0.5 * i) for i in range(5)]     # 1e-2 .. 1e-4


def _exponents(code, eps, periods=None, energy=0.5):
    """Shadow chain of a torus_point code at eps and its Lyapunov exponents."""
    dim = len(code[0])
    scn = scenarios.torus_point_scenario(dim, periods or [1.0] * dim, energy)
    sc = shadow_solve(scn.dl, scn.chain(list(code)), eps, tol_factor=1e-13)
    dom = BilliardDomain(scn.h, scn.scatterer, eps)
    return sc, dom, lyapunov_estimate(sc, dom)


def _leading_order_exponent(code, eps):
    """(1/n) sum_i ln(2 l_i / (eps cos phi_i)) over the chords of a planar code
    on the unit torus at speed 1: l_i is the chord after bounce i, and
    cos phi_i = sin(theta_i / 2) for the turn theta_i between the chords."""
    chords = [np.array(k, dtype=float) for k in code]
    total = 0.0
    for before, after in zip(chords[-1:] + chords[:-1], chords):
        cos_turn = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        cos_phi = np.sin(0.5 * np.arccos(np.clip(cos_turn, -1.0, 1.0)))
        total += np.log(2 * np.linalg.norm(after) / (eps * cos_phi))
    return total / len(code)


class TestExactMonodromy:
    @pytest.mark.parametrize("code", [((1, 0), (0, 1)), THREE_LINK])
    def test_agrees_with_the_stencil_within_its_error(self, code):
        # the stencil's own error: the move of its exponents when its output
        # target is halved
        for eps in HALF_DECADES:
            sc, dom, exps = _exponents(code, eps)
            ref = stencil_lyapunov(sc, dom)
            own = np.max(np.abs(ref - stencil_lyapunov(sc, dom, out_target=5e-4)))
            assert np.max(np.abs(exps - ref)) <= 2 * own, eps
            assert abs(exps[0] + exps[-1]) <= 1e-7, eps

    @pytest.mark.parametrize("code", [((1, 0), (0, 1)), THREE_LINK, ((1, 0, 0), (0, 1, 0))])
    def test_log_eps_growth_down_to_1e_6(self, code):
        eps_list = [10**(-2.0 - 0.5 * i) for i in range(9)]
        lams = []
        for eps in eps_list:
            _, dom, exps = _exponents(code, eps)
            assert np.sum(np.abs(exps) >= 0.5 * np.max(np.abs(exps))) \
                == 2 * (dom.scatterer.codim - 1), eps
            lams.append(float(np.max(exps)))
        x = np.log(1.0 / np.asarray(eps_list))
        (a, b), r2 = dls.linear_fit(np.vstack([np.ones_like(x), x]).T, np.asarray(lams))
        assert b > 0 and r2 >= 0.98

    @pytest.mark.parametrize("code", [((1, 0), (0, 1)), THREE_LINK])
    def test_leading_order_oracle_falls_like_eps(self, code):
        diffs = [abs(float(np.max(_exponents(code, eps)[2])) - _leading_order_exponent(code, eps))
                 for eps in HALF_DECADES]
        x = np.log(np.asarray(HALF_DECADES))
        (slope, _), _ = dls.linear_fit(np.vstack([x, np.ones_like(x)]).T, np.log(diffs))
        assert 0.8 <= slope <= 1.2

    def test_eight_link_code(self):
        code = [(1, 0), (0, 1), (1, 1), (0, 1), (1, 0), (1, -1), (0, 1), (1, 1)]
        exps = _exponents(code, 1e-2)[2]
        assert abs(exps[0] + exps[-1]) <= 1e-10

    def test_non_unit_torus_closes_at_1e_4(self):
        exps = _exponents(((1, 0), (0, 1)), 1e-4,
                          periods=[0.9540973523936195, 0.9516527635528529])[2]
        assert abs(exps[0] + exps[-1]) <= 1e-7

    def test_unclosed_bounce_is_named(self):
        # turned by 1e-6: the next hit's chart angle moves ~1e-6 / eps;
        # 1e-4 longer: y = J^T p, of size eps |p|, moves by 1e-4 relative
        scn, chain = torus_setup()
        for perturb in (lambda p: p + 1e-6 * np.array([-p[1], p[0]]), lambda p: (1 + 1e-4) * p):
            sc = shadow_solve(scn.dl, chain, 1e-2)
            sc.orbits[0].p_minus = perturb(sc.orbits[0].p_minus)
            with pytest.raises(billiard.EventSearchError,
                               match="bounce 0 does not close: defect"):
                lyapunov_estimate(sc, BilliardDomain(scn.h, scn.scatterer, 1e-2))
