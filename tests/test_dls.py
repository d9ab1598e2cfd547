import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from shadowbilliards import dls, scenarios
from shadowbilliards.dls import (ChainConfiguration, ChartSymmetry,
                                 DiscreteLagrangian, FunctionLink, NewtonError,
                                 admissible, chain_action, green_decay, hessian,
                                 hyperbolicity_certificate, newton_chain,
                                 noether_values, residual, residual_norm,
                                 routh_reduce, symmetry_field,
                                 variational_consistency)


def torus_chain():
    scn = scenarios.torus_point_scenario()
    return scn, scn.chain([(1, 0), (0, 1)])


def two_ball_critical():
    scn = scenarios.two_ball_torus_scenario()
    chain = scn.chain([(1, 0), (0, 1)], [np.array([0.25]), np.array([0.25])])
    return scn, newton_chain(scn.dl, chain).chain


def synthetic_quadratic(n=6, coupling=-0.3, diag=2.0):
    """Uniform quadratic branch: L(x, y) = d/2 x^2 + d/2 y^2 + c x y."""
    def fn(xm, xp):
        return 0.5 * diag * float(xm @ xm) + 0.5 * diag * float(xp @ xp) \
            + coupling * float(xm @ xp)

    link = FunctionLink(fn, 1, 1)
    dl = DiscreteLagrangian({"q": link}, energy=0.5)
    chain = ChainConfiguration(["q"] * n, [np.zeros(1) for _ in range(n)], "periodic")
    return dl, chain


class TestChainAction:
    def test_torus_alternating(self):
        scn, chain = torus_chain()
        assert chain_action(scn.dl, chain) == pytest.approx(2.0, abs=1e-14)

    def test_two_ball_pythagorean(self):
        # paper value: sqrt(m1 l1^2 + m2 l2^2) with unit masses and legs 3, 4
        scn = scenarios.two_ball_torus_scenario()
        link = scn.dl.link((3, 4))
        val = link.value(np.array([0.0]), np.array([0.0]))
        assert val == pytest.approx(5.0, rel=1e-14)

    def test_single_link_equals_orbit_action(self):
        scn = scenarios.torus_point_scenario()
        chain = scn.chain([(2, 1)], bc="fixed")
        from shadowbilliards import bvp
        orb = bvp.connect(scn.h, np.zeros(2), np.zeros(2), scn.E, label=(2, 1))
        assert chain_action(scn.dl, chain) == pytest.approx(orb.action, rel=1e-12)


class TestResidual:
    def test_zero_dimensional_scatterer(self):
        scn, chain = torus_chain()
        res = residual(scn.dl, chain)
        assert all(r.size == 0 for r in res)
        assert residual_norm(res) == 0.0

    def test_matches_finite_differences(self):
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 2.0))
        chain = scn.chain([(1, 0), (0, 1), (1, -1)],
                          [np.array([0.1]), np.array([0.35]), np.array([0.6])])
        rep = variational_consistency(scn.dl, chain)
        assert rep["grad_rel_error"] <= 1e-5

    def test_zero_after_newton(self):
        scn, chain = two_ball_critical()
        assert residual_norm(residual(scn.dl, chain)) <= 1e-10


class TestHessian:
    def test_finite_difference_assembly(self):
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 2.0))
        chain = scn.chain([(1, 0), (0, 1), (1, -1)],
                          [np.array([0.1]), np.array([0.35]), np.array([0.6])])
        rep = variational_consistency(scn.dl, chain)
        assert rep["hess_rel_error"] <= 1e-4
        assert rep["symmetry_error"] == 0.0
        assert rep["tridiagonal"] == 1.0

    def test_single_link_fixed(self):
        scn = scenarios.two_ball_box_scenario()
        dl = scn.lagrangian()
        chain = ChainConfiguration([(-1, 1), (-1, 1)], [np.array([0.5])], "fixed",
                                   left=np.array([0.4]), right=np.array([0.6]))
        H = hessian(dl, chain)
        assert len(H.diag) == 1
        assert not H.offdiag
        M = H.dense()
        assert M.shape == (1, 1)

    def test_symmetry_vector_in_kernel(self):
        scn, chain = two_ball_critical()
        H = hessian(scn.dl, chain)
        u = symmetry_field(chain, scn.symmetry().generator)
        Hu = H.apply(u)
        hnorm = np.max(np.abs(H.dense()))
        assert max(np.max(np.abs(v)) for v in Hu) <= 1e-8 * hnorm

    def test_periodic_corner_blocks(self):
        dl, chain = synthetic_quadratic(n=5)
        H = hessian(dl, chain)
        assert H.corner is not None
        M = H.dense()
        assert M[4, 0] == pytest.approx(-0.3)
        assert np.allclose(M, M.T)


class TestNewton:
    def test_two_ball_box_odd_count_nondegenerate(self):
        # segment case: periodic codes with an odd number of pair collisions
        # are nondegenerate critical points, even counts degenerate
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        dl = scn.lagrangian()
        code = [(-1, 1)] * 3
        chain = scn.periodic_chain(code, [np.array([0.6 + 0.01 * i]) for i in range(3)])
        res = newton_chain(dl, chain)
        assert res.converged
        assert res.smallest_singular_value > 1e-2
        assert all(abs(float(x[0]) - 2.0 / 3.0) < 1e-9 for x in res.chain.points)

    def test_two_ball_box_even_count_degenerate(self):
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        dl = scn.lagrangian()
        code = [(-1, 1)] * 4
        chain = scn.periodic_chain(code, [np.array([0.6 + 0.01 * i]) for i in range(4)])
        try:
            res = newton_chain(dl, chain)
            assert res.smallest_singular_value < 1e-8
        except NewtonError:
            pass  # singular Hessian along the way is the expected failure mode

    def test_strictly_convex_fixed_chain_unique(self):
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
        code = [(0, 0), (-1, 1), (-1, 1), (-1, 1), (0, 0)]
        dl = scenarios.box_fixed_lagrangian(scn, a, b, code)
        rng = np.random.default_rng(5)
        sols = []
        for _ in range(3):
            pts = np.sort(rng.uniform(0.3, 0.7, size=len(code) - 1))
            chain = scenarios.box_fixed_chain(code, [np.array([c]) for c in pts])
            res = newton_chain(dl, chain)
            assert res.converged
            sols.append(np.array([float(x[0]) for x in res.chain.points]))
        assert np.max(np.abs(sols[0] - sols[1])) < 1e-8
        assert np.max(np.abs(sols[0] - sols[2])) < 1e-8

    def test_zero_dimensional_returns_unchanged(self):
        scn, chain = torus_chain()
        res = newton_chain(scn.dl, chain)
        assert res.converged
        assert res.iterations == 0
        assert res.chain is chain


class TestCertificate:
    def test_hyperbolic_chain_stabilizes(self):
        # dense-inverse oracle on small windows, then stabilization
        dl, chain = synthetic_quadratic(n=4, coupling=-0.3, diag=2.0)
        cert = hyperbolicity_certificate(dl, chain, windows=(1, 2, 4, 8, 16))
        assert cert.stabilized
        from shadowbilliards.blocktri import assemble_dense
        from shadowbilliards.dls import _periodic_window_blocks
        for W, cw in zip(cert.windows, cert.norms):
            diag, off = _periodic_window_blocks(dl, chain, 0, W)
            M = assemble_dense(diag, off)
            dense = np.max(np.sum(np.abs(np.linalg.inv(M)), axis=1))
            assert cw == pytest.approx(dense, rel=1e-10)

    def test_symmetric_chain_diverges(self):
        scn, chain = two_ball_critical()
        cert = hyperbolicity_certificate(scn.dl, chain, windows=(1, 2, 4, 8, 16))
        assert not cert.stabilized
        assert cert.norms[-1] > 2.5 * cert.norms[-2]  # quadratic growth in W

    def test_single_link_window(self):
        dl, chain = synthetic_quadratic(n=1)
        cert = hyperbolicity_certificate(dl, chain, windows=(1,))
        # W = 1 window of the uniform quadratic chain: dense oracle
        from shadowbilliards.blocktri import assemble_dense
        from shadowbilliards.dls import _periodic_window_blocks
        diag, off = _periodic_window_blocks(dl, chain, 0, 1)
        M = assemble_dense(diag, off)
        assert cert.norms[0] == pytest.approx(
            np.max(np.sum(np.abs(np.linalg.inv(M)), axis=1)), rel=1e-12)
        # zero-width window: certificate is the inverse norm of the lone block
        cert0 = hyperbolicity_certificate(dl, chain, windows=(0,))
        diag0, _ = _periodic_window_blocks(dl, chain, 0, 0)
        assert cert0.norms[0] == pytest.approx(
            np.max(np.sum(np.abs(np.linalg.inv(diag0[0])), axis=1)), rel=1e-12)


class TestGreenDecay:
    def test_hyperbolic_decay(self):
        dl, chain = synthetic_quadratic(n=4, coupling=-0.2, diag=2.0)
        fit = green_decay(dl, chain, 0, half_width=20)
        assert fit.lam > 0.5
        assert fit.r_squared >= 0.95
        # dense solve oracle at one offset
        from shadowbilliards.blocktri import assemble_dense
        from shadowbilliards.dls import _periodic_window_blocks
        diag, off = _periodic_window_blocks(dl, chain, 0, 20)
        M = assemble_dense(diag, off)
        rhs = np.zeros(M.shape[0])
        rhs[20] = 1.0
        v = np.linalg.solve(M, rhs)
        assert fit.norms[25] == pytest.approx(abs(v[25]), rel=1e-9)

    def test_symmetric_chain_no_decay(self):
        scn, chain = two_ball_critical()
        fit = green_decay(scn.dl, chain, 0, half_width=16)
        assert abs(fit.lam) < 0.15


class TestAdmissible:
    def test_parallel_windings_rejected(self):
        scn = scenarios.torus_point_scenario()
        chain = scn.chain([(1, 0), (2, 0)])
        reports = admissible(scn.dl, chain)
        assert not any(r.admissible for r in reports)

    def test_perpendicular_windings(self):
        scn, chain = torus_chain()
        assert all(r.admissible for r in admissible(scn.dl, chain))

    def test_head_on_flagged_for_attracting(self):
        scn = scenarios.torus_point_scenario()
        chain = scn.chain([(1, 0), (-1, 0)])
        free = admissible(scn.dl, chain)
        assert all(r.admissible for r in free)          # jump condition holds
        attracting = admissible(scn.dl, chain, attracting=True)
        assert not any(r.admissible for r in attracting)
        assert all(r.straight_reflection for r in attracting)


class TestRouth:
    def test_reduced_matches_one_ball_billiard(self):
        # direct relative-coordinate oracle: the reduced branch action is
        # sqrt(2 E m_red) |n1 - n2|
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 3.0))
        red = routh_reduce(scn.dl, scn.symmetry(), 0.0, section_point=np.array([0.2]))
        for k in [(1, 0), (0, 1), (2, -1)]:
            got = red.link(k).value(np.zeros(0), np.zeros(0))
            expect = np.sqrt(2 * scn.E * scn.reduced_mass()) * abs(k[0] - k[1])
            assert got == pytest.approx(expect, rel=1e-10)

    def test_theta_independent_branch_unchanged(self):
        # symmetry shifts a coordinate the branch ignores: reduced value = value
        def fn(xm, xp):
            return float((xm[0] - xp[0]) ** 2) + 1.0

        link = FunctionLink(fn, 2, 2)
        dl = DiscreteLagrangian({"q": link})
        sym = ChartSymmetry(act=lambda th, x: x + th * np.array([0.0, 1.0]),
                            generator=lambda x: np.array([0.0, 1.0]))
        xm = np.array([0.3, 0.0])
        xp = np.array([0.1, 0.0])
        red = routh_reduce(dl, sym, 0.0)
        assert red.link("q").value(xm, xp) == pytest.approx(fn(xm, xp), rel=1e-12)
        with pytest.raises(dls.RouthError):
            # a nonzero level cannot be met along a flat group direction
            routh_reduce(dl, sym, 0.5).link("q").value(xm, xp)

    def test_legendre_duality_in_G(self):
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 3.0))
        G = 0.3
        x0 = np.array([0.0])
        red = routh_reduce(scn.dl, scn.symmetry(), G, section_point=x0)
        theta_star = red.link((1, 0)).critical_theta(np.zeros(0), np.zeros(0))
        dG = 1e-6
        vp = routh_reduce(scn.dl, scn.symmetry(), G + dG,
                          section_point=x0).link((1, 0)).value(np.zeros(0), np.zeros(0))
        vm = routh_reduce(scn.dl, scn.symmetry(), G - dG,
                          section_point=x0).link((1, 0)).value(np.zeros(0), np.zeros(0))
        assert -(vp - vm) / (2 * dG) == pytest.approx(theta_star, abs=1e-8)


class TestCriticalityIsElasticReflection:
    def test_tangential_jump_vanishes_with_full_jump_alive(self):
        # at a critical chain the tangential part of each momentum jump is
        # zero while the full jump stays above tolerance
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        dl = scn.lagrangian()
        code = [(-1, 1)] * 3
        chain = scn.periodic_chain(code, [np.array([0.6 + 0.01 * i]) for i in range(3)])
        res = newton_chain(dl, chain, tol=1e-12)
        jump_tol = 1e-6 * np.sqrt(2 * scn.E)
        for i, p_minus, p_plus in dls.momentum_jumps(dl, res.chain):
            dp = p_minus - p_plus
            tan, _ = scn.scatterer.frames(res.chain.points[i])
            assert np.linalg.norm(tan.T @ dp) <= 1e-9
            assert np.linalg.norm(dp) >= jump_tol


class TestNoether:
    def test_constant_along_critical_chain(self):
        scn, chain = two_ball_critical()
        vals = noether_values(scn.dl, chain, scn.symmetry().generator)
        assert np.ptp(vals) <= 1e-9

    def test_unequal_mass_chain(self):
        # the unreduced symmetric system needs the minimal-norm Newton branch
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 2.0))
        chain = scn.chain([(1, -1), (-1, 1)], [np.array([0.3]), np.array([0.8])])
        res = newton_chain(scn.dl, chain, allow_singular=True)
        assert res.converged
        vals = noether_values(scn.dl, res.chain, scn.symmetry().generator)
        assert np.ptp(vals) <= 1e-9


class TestBoxPathFold:
    @seed(20161018)
    @settings(max_examples=80, deadline=None, database=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.2))
    def test_path_matches_scalar_fold(self, m1, m2, fa, fb, fc, eps):
        # the reflected chord sample by sample with Python's float %, walls included
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        link = scenarios.TwoBallBoxLink(scn.h, scn.E, scn.masses, scn.box, (m1, m2))
        lo, hi = eps, 1.0 - eps
        qm = lo + (hi - lo) * np.array([fa, fb])
        qp = lo + (hi - lo) * np.array([fc, fc])
        ell, _ = link._geometry(qm, qp, eps)
        assume(np.sum(np.abs(ell)) > 1e-6)
        path = link.ambient_connect(qm, qp, eps).path
        width = hi - lo
        for i in range(2):
            for t, got in zip(np.linspace(0.0, 1.0, 129), path[:, i]):
                z = (qm[i] + t * ell[i] - lo) % (2 * width)
                assert got == lo + (z if z <= width else 2 * width - z)
