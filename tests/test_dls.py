import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from conftest import FunctionLink, central_diff, dense_chain_matrix, link_endpoints, link_stacks
from shadowbilliards import dls, scenarios
from shadowbilliards.billiard import shadow_solve
from shadowbilliards.blocktri import BlockTridiagonalFactor
from shadowbilliards.dls import (ChainConfiguration, DiscreteLagrangian, NewtonError,
                                 admissible, chain_action, green_decay, hessian,
                                 hyperbolicity_certificate, newton_chain,
                                 noether_values, residual, residual_norm,
                                 symmetry_field, variational_consistency)


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
        val = type(link).values([link], np.zeros((1, 1)), np.zeros((1, 1)))[0]
        assert val == pytest.approx(5.0, rel=1e-14)

    def test_single_link_equals_orbit_action(self):
        scn = scenarios.torus_point_scenario()
        chain = scn.chain([(2, 1)], bc="fixed")
        from shadowbilliards import bvp
        orb = bvp.connect(scn.h, np.zeros(2), np.zeros(2), scn.E, label=(2, 1))
        assert chain_action(scn.dl, chain) == pytest.approx(orb.action, rel=1e-12)


class TestResidual:
    def test_zero_dimensional_scatterer(self):
        # sites with no chart coordinates (as on a point scatterer) have
        # empty residual blocks
        dl = DiscreteLagrangian({"k": FunctionLink(lambda xm, xp: 1.0, 0, 0)})
        chain = ChainConfiguration(["k", "k"], [np.zeros(0), np.zeros(0)], "periodic")
        res = residual(dl, chain)
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

    def test_nan_block_is_not_hidden(self):
        # a NaN trial residual must not read as a finite norm (and so as descent)
        assert np.isnan(residual_norm(np.array([[1.0], [np.nan]])))
        assert np.isnan(residual_norm(np.array([[np.nan], [1.0]])))
        assert residual_norm(np.array([[1.0, -3.0], [2.0, 0.5]])) == 3.0
        assert residual_norm(np.zeros((3, 0))) == 0.0


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
        code = [(-1, 1), (-1, 1)]
        dl = scenarios.box_fixed_lagrangian(scn, [0.3, 0.7], [0.6, 0.2], code)
        chain = scenarios.box_fixed_chain(code, [np.array([0.5])])
        H = hessian(dl, chain)
        assert H.dims == [1]
        (_, _, pp), (mm, _, _) = dls._per_link(dl, chain, "hessians")
        assert H.matrix.tobytes() == (pp + mm).tobytes()

    def test_symmetry_vector_in_kernel(self):
        scn, chain = two_ball_critical()
        M = hessian(scn.dl, chain).matrix
        Hu = M @ np.concatenate(symmetry_field(chain, scn.generator))
        assert np.max(np.abs(Hu)) <= 1e-8 * np.max(np.abs(M))

    def test_periodic_corner_blocks(self):
        # link 4 closes the cycle: it couples the last site with the first
        dl, chain = synthetic_quadratic(n=5)
        M = hessian(dl, chain).matrix
        assert M[4, 0] == pytest.approx(-0.3)
        assert M[0, 4] == M[4, 0]
        assert np.allclose(M, M.T)

    def test_mixed_chart_dimensions_are_refused(self):
        # the chain matrix has one chart dimension per chain
        with pytest.raises(ValueError, match="share one chart dimension"):
            ChainConfiguration(["q"] * 2, [np.zeros(1), np.zeros(2)], "periodic")
        chain = ChainConfiguration(["q"] * 3, [np.zeros(2), np.zeros(2)], "fixed")
        with pytest.raises(ValueError, match="share one chart dimension"):
            chain.with_points([np.zeros(2), np.zeros(1)])


class TestBoxHessian:
    @seed(20161018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.booleans(), st.booleans(),
           st.lists(st.floats(0.02, 0.98), min_size=6, max_size=6),
           st.sampled_from([0.0, 0.01]))
    def test_closed_form_matches_differences(self, m1, m2, left, right, u, margin):
        # odd wall counts flip the parity of a coordinate; anchors drop slots
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        lo, hi = margin, 1.0 - margin
        a, b = lo + (hi - lo) * np.array(u[:2]), lo + (hi - lo) * np.array(u[2:4])
        link = scenarios.TwoBallBoxLink(scn.h, scn.E, scn.masses, scn.box, (m1, m2),
                                        margin, left=a if left else None,
                                        right=b if right else None)
        xm = np.zeros(0) if left else np.array([lo + (hi - lo) * u[4]])
        xp = np.zeros(0) if right else np.array([lo + (hi - lo) * u[5]])
        _, _, ell, _, g = (r[0] for r in link._chords([link], xm[None], xp[None]))
        assume(np.min(np.abs(ell)) > 1e-3 and g > 0.05)
        cls = scenarios.TwoBallBoxLink
        exact = [b[0] for b in cls.hessians([link], xm[None], xp[None])]
        fd = [b[0] for b in dls.difference_hessians(cls, [link], xm[None], xp[None])]
        assert [h.shape for h in exact] == [h.shape for h in fd]
        for he, hf in zip(exact, fd):
            # equal patterns give an exactly zero Hessian; differences read ~1e-11
            assert np.allclose(he, hf, rtol=1e-6, atol=1e-8)

    @seed(20161018)
    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.lists(st.floats(0.02, 0.98), min_size=6, max_size=6)),
                    min_size=1, max_size=6),
           st.booleans(), st.booleans(), st.sampled_from([0.0, 0.01]))
    def test_family_rows_equal_one_row_bit_for_bit(self, rows, left, right, margin):
        # one family: every row anchors the same slots, at its own anchor points
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        lo, hi = margin, 1.0 - margin
        links, xms, xps = [], [], []
        for m1, m2, u in rows:
            a, b = lo + (hi - lo) * np.array(u[:2]), lo + (hi - lo) * np.array(u[2:4])
            links.append(scenarios.TwoBallBoxLink(
                scn.h, scn.E, scn.masses, scn.box, (m1, m2), margin,
                left=a if left else None, right=b if right else None))
            xms.append(np.zeros(0) if left else np.array([lo + (hi - lo) * u[4]]))
            xps.append(np.zeros(0) if right else np.array([lo + (hi - lo) * u[5]]))
        XM, XP = np.array(xms).reshape(len(rows), -1), np.array(xps).reshape(len(rows), -1)
        cls = scenarios.TwoBallBoxLink
        values, (gm, gp), hess = (cls.values(links, XM, XP), cls.grads(links, XM, XP),
                                  cls.hessians(links, XM, XP))
        for r, (link, xm, xp) in enumerate(zip(links, xms, xps)):
            # the one-row family of each link; coincident chords give 0/0:
            # nan must match nan
            one = ([link], xm[None], xp[None])
            gm1, gp1 = cls.grads(*one)
            assert np.array_equal(values[r], cls.values(*one)[0], equal_nan=True)
            assert np.array_equal(gm[r], gm1[0], equal_nan=True)
            assert np.array_equal(gp[r], gp1[0], equal_nan=True)
            for block, block1 in zip(hess, cls.hessians(*one)):
                assert block[r].shape == block1[0].shape
                assert np.array_equal(block[r], block1[0], equal_nan=True)


def _torus_scalar_reference(link, xm, xp):
    """(value, D-, D+, D--, D-+, D++) of one TwoBallTorusLink by the
    scalar formulas the family methods replaced, the Hessian by central
    differences of the gradients at steps 8e-6 and 1.6e-5, one Richardson
    step and symmetrised."""
    def lengths(xm, xp):
        return float(xp[0] - xm[0]) + link.n * link.L

    def grad_minus(xm, xp):
        ell = lengths(xm, xp)
        g = np.sqrt(np.sum(link.m * ell**2))
        return np.array([-link._speed * np.sum(link.m * ell) / g])

    def grad_jacobian(h):
        z = np.concatenate([xm, xp])
        return central_diff(lambda v: np.concatenate([grad_minus(v[:1], v[1:]),
                                                      -grad_minus(v[:1], v[1:])]),
                            z, h).reshape(2, 2)

    ell = lengths(xm, xp)
    h = 1e-6 * 16
    J = (4.0 * grad_jacobian(h / 2) - grad_jacobian(h)) / 3.0
    J = 0.5 * (J + J.T)
    return (float(link._speed * np.sqrt(np.sum(link.m * ell**2))), grad_minus(xm, xp),
            -grad_minus(xm, xp), J[:1, :1], J[:1, 1:], J[1:, 1:])


_TORUS_ROWS = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda k: k[0] != k[1]),
              st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.2, 3.0),
              st.floats(0.05, 2.0), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
    min_size=1, max_size=6)


class TestTwoBallTorusRows:
    """Every row of the stacked TwoBallTorusLink family has the bytes of the
    scalar formulas, on families of mixed windings, masses, periods and
    energies."""

    @seed(20161018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(_TORUS_ROWS)
    @example([((3, 4), 1.0, 1.0, 1.0, 0.5, 0.0, 0.0)])
    @example([((1, 0), 1.0, 1.0, 1.0, 0.5, 0.25, 0.25), ((0, 1), 1.0, 1.0, 1.0, 0.5, 0.25, 0.25)])
    @example([((1, -1), 1.0, 2.0, 1.0, 0.5, 0.3, 0.8), ((-1, 1), 2.0, 1.0, 0.5, 1.3, 0.8, -0.4),
              ((2, 0), 0.1, 9.0, 2.5, 0.05, 1.9, -1.0)])
    def test_rows_equal_scalar_formulas(self, rows):
        scn = scenarios.two_ball_torus_scenario()
        links = [scenarios.TwoBallTorusLink(scn.h, E, (m1, m2), L, k)
                 for k, m1, m2, L, E, _, _ in rows]
        XM = np.array([[r[5]] for r in rows])
        XP = np.array([[r[6]] for r in rows])
        cls = scenarios.TwoBallTorusLink
        got = (cls.values(links, XM, XP), *cls.grads(links, XM, XP),
               *cls.hessians(links, XM, XP))
        for r, link in enumerate(links):
            ref = _torus_scalar_reference(link, XM[r], XP[r])
            for g, want in zip(got, ref):
                want = np.asarray(want, dtype=float)
                assert g[r].shape == want.shape and g[r].tobytes() == want.tobytes(), (r, g, want)


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

    def test_returned_chain_outside_the_box_raises(self):
        # Newton meets |r| = 5.3e-12 at collision points -2.106 and 1.558,
        # outside the box (0, 1): the returned chain is checked, not only the start
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 1.0), E=0.5)
        code = [(-3, -3), (-2, 3), (1, 1)]
        dl = scenarios.box_fixed_lagrangian(scn, [0.5, 0.25], [0.625, 0.375], code)
        chain = scenarios.box_fixed_chain(code, [np.array([0.25]), np.array([0.75])])
        with pytest.raises(dls.ChainDomainError, match=r"link 0 \(symbol \('end', 0"):
            newton_chain(dl, chain)

    def test_zero_dimensional_returns_unchanged(self):
        scn, chain = torus_chain()
        res = newton_chain(scn.dl, chain)
        assert res.converged
        assert res.iterations == 0
        assert res.chain is chain


def atan_newton(x0, a, iterations, trials, tol, refused, digits=None):
    """dls.damped_newton on f(x) = atan(x - a), |f| as the norm (rounded to
    `digits`, so that norms tie), with a log of every step and trial; the
    trials at lam = 2^-k for k in `refused` return None however low their
    norm. Each state is (x, its log index)."""
    log = []

    def norm(x):
        return abs(np.arctan(x - a)) if digits is None else round(abs(np.arctan(x - a)), digits)

    def step(state):
        log.append(("step", state))
        return -np.arctan(state[0] - a) * (1.0 + (state[0] - a) ** 2)

    def trial(state, d, lam):
        x = state[0] + lam * d
        out = ((x, len(log)), norm(x))
        log.append(("trial", None if round(-np.log2(lam)) in refused else out, lam))
        return log[-1][1]

    start = ((x0, -1), norm(x0))
    return start, log, dls.run(dls.damped_newton(*start, lambda _, rn: rn <= tol, step,
                                                 trial, iterations, trials))


class TestDampedNewton:
    """The one damped Newton driver of the package, on a toy problem."""

    @seed(20161026)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(-30.0, 30.0), st.floats(-5.0, 5.0), st.integers(0, 8),
           st.integers(1, 6), st.sampled_from([1e-12, 1e-6, 1e-2, 0.0]),
           st.sets(st.integers(0, 5)), st.sampled_from([None, 1, 3]))
    @example(0.0, 0.0, 3, 2, 1e-12, set(), None)        # converged at the start
    @example(3.0, 0.0, 20, 6, 1e-12, set(), None)       # full steps overshoot, halvings converge
    @example(3.0, 0.0, 20, 6, 1e-12, {0, 1, 3}, None)   # lam 1 and 1/2 refused: budget spent
    @example(3.0, 0.0, 1, 6, 1e-12, set(), None)        # the iteration budget runs out
    @example(3.0, 0.0, 0, 6, 1e-12, set(), None)        # no iteration allowed
    @example(3.0, 0.0, 8, 3, 1e-12, {0, 1, 2}, None)    # every trial refused: stalled
    @example(3.0, 0.0, 8, 1, 1e-12, set(), None)        # one trial, no descent: stalled
    @example(1.5, 0.0, 8, 6, 1e-12, set(), 1)           # the full step only ties its norm
    @example(0.5, 0.0, 60, 6, 0.0, set(), None)         # a zero tolerance, met exactly
    def test_contract(self, x0, a, iterations, trials, tol, refused, digits):
        (state0, rn0), log, (state, rn, it, status) = atan_newton(
            x0, a, iterations, trials, tol, refused, digits)
        assert status in ("converged", "stalled", "did not converge")
        assert (status == "converged") == (rn <= tol)
        segments = []       # per step: the state it was taken at, its trials
        for entry in log:
            if entry[0] == "step":
                segments.append((entry[1], []))
            else:
                segments[-1][1].append(entry[1:])
        assert len(segments) <= iterations
        current, current_rn, accepted = state0, rn0, 0
        for i, (at, trials_made) in enumerate(segments):
            assert at is current
            assert 1 <= len(trials_made) <= trials
            assert [lam for _, lam in trials_made] == [0.5 ** k for k in range(len(trials_made))]
            # a refused trial (None) or one not lower never ends the line search
            assert all(out is None or out[1] >= current_rn for out, _ in trials_made[:-1])
            last = trials_made[-1][0]
            if last is not None and last[1] < current_rn:
                current, current_rn, accepted = last[0], last[1], accepted + 1
            else:
                assert (status, i, len(trials_made)) == ("stalled", len(segments) - 1, trials)
        assert state is current and rn == current_rn and it == accepted
        if status == "did not converge":
            assert it == iterations

    def test_yields_pass_through_and_run_refuses_them(self):
        def step(x):
            return (yield "jacobian")        # the consumer answers with the step

        def trial(x, d, lam):
            return x + lam * d, abs(x + lam * d)

        newton = dls.damped_newton(1.0, 1.0, lambda _, rn: rn == 0.0, step, trial, 2, 1)
        assert newton.send(None) == "jacobian"
        with pytest.raises(StopIteration) as stop:
            newton.send(-1.0)
        assert stop.value.value == (0.0, 0.0, 1, "converged")
        with pytest.raises(TypeError, match="yielded"):
            dls.run(dls.damped_newton(1.0, 1.0, lambda _, rn: rn == 0.0, step, trial, 2, 1))


def window_matrix(dl, chain, center, W):
    """Dense matrix of the Dirichlet window of half-width W at site `center`
    of a periodic chain: the open chain of its links center-W-1 ... center+W."""
    H = dls._per_link(dl, chain, "hessians")
    return dense_chain_matrix([H[i % len(H)] for i in range(center - W - 1, center + W + 1)],
                              False)


class TestCertificate:
    def test_hyperbolic_chain_stabilizes(self):
        # dense-inverse oracle on small windows, then stabilization
        dl, chain = synthetic_quadratic(n=4, coupling=-0.3, diag=2.0)
        cert = hyperbolicity_certificate(dl, chain, windows=(1, 2, 4, 8, 16))
        assert cert.stabilized
        for W, cw in zip(cert.windows, cert.norms):
            M = window_matrix(dl, chain, 0, W)
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
        M = window_matrix(dl, chain, 0, 1)
        assert cert.norms[0] == pytest.approx(
            np.max(np.sum(np.abs(np.linalg.inv(M)), axis=1)), rel=1e-12)
        # zero-width window: certificate is the inverse norm of the lone block
        cert0 = hyperbolicity_certificate(dl, chain, windows=(0,))
        (d11, _, d22), = dls._per_link(dl, chain, "hessians")
        assert cert0.norms[0] == pytest.approx(
            np.max(np.sum(np.abs(np.linalg.inv(d22 + d11)), axis=1)), rel=1e-12)
        assert not cert.stabilized and not cert0.stabilized

    @pytest.mark.parametrize("windows", [(2, 2), (16, 1), (-1, 2), (1, 2.5), ()])
    def test_windows_that_cannot_certify_refused(self, windows):
        # on the shipped torus_point shadow chain at eps = 1e-2, (2, 2) once
        # returned stabilized=True with rel_change 0.0, and (16, 1) with 2.5e-5
        scn = scenarios.torus_point_scenario()
        sc = shadow_solve(scn.dl, scn.chain([(1, 0), (0, 1)]), 1e-2)
        with pytest.raises(ValueError, match="strictly increasing integers >= 0"):
            hyperbolicity_certificate(sc.joint_dl, sc.joint_chain, windows)


class TestGreenDecay:
    def test_hyperbolic_decay(self):
        dl, chain = synthetic_quadratic(n=4, coupling=-0.2, diag=2.0)
        fit = green_decay(dl, chain, 0, half_width=20)
        assert fit.lam > 0.5
        assert fit.r_squared >= 0.95
        # dense solve oracle at one offset
        M = window_matrix(dl, chain, 0, 20)
        rhs = np.zeros(M.shape[0])
        rhs[20] = 1.0
        v = np.linalg.solve(M, rhs)
        assert fit.norms[25] == pytest.approx(abs(v[25]), rel=1e-9)

    def test_vector_sites_take_the_largest_unit_load_response(self):
        # two chart coordinates per site: the block response is the largest
        # over the unit loads at the centre, each solved densely on its own
        Adiag = np.array([[2.0, 0.4], [0.4, 1.5]])
        C = np.array([[-0.3, 0.1], [0.05, -0.2]])
        link = FunctionLink(lambda x, y: 0.5 * x @ Adiag @ x + 0.5 * y @ Adiag @ y + x @ C @ y,
                            2, 2)
        dl = DiscreteLagrangian({"q": link}, energy=0.5)
        chain = ChainConfiguration(["q"] * 3, [np.zeros(2) for _ in range(3)], "periodic")
        fit = green_decay(dl, chain, 0, half_width=8)
        M = window_matrix(dl, chain, 0, 8)
        ref = np.zeros(17)
        for a in range(2):
            rhs = np.zeros(M.shape[0])
            rhs[2 * 8 + a] = 1.0
            x = np.linalg.solve(M, rhs).reshape(17, 2)
            ref = np.maximum(ref, [np.linalg.norm(xi) for xi in x])
        assert np.allclose(fit.norms, ref, rtol=1e-12, atol=0.0)

    def test_symmetric_chain_no_decay(self):
        scn, chain = two_ball_critical()
        fit = green_decay(scn.dl, chain, 0, half_width=16)
        assert abs(fit.lam) < 0.15


def _old_fit(A, ys):
    """The lstsq + R^2 block that cli and green_decay each carried."""
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


_SAMPLES = st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-5, 1e2), min_size=n, max_size=n),
    st.lists(st.floats(1e-6, 1e1), min_size=n, max_size=n)))


class TestLinearFit:
    """dls.linear_fit reproduces the three fits it replaced, bit for bit."""

    @seed(20160617)
    @settings(max_examples=60, deadline=None, database=None)
    @given(_SAMPLES)
    def test_equals_the_old_fits(self, sample):
        from shadowbilliards import cli
        xs, ys = np.asarray(sample[0]), np.asarray(sample[1])
        # cli.loglog_slope: columns [log x, 1]
        lx, ly = np.log(xs), np.log(ys)
        slope, _, r2 = _old_fit(np.vstack([lx, np.ones_like(lx)]).T, ly)
        assert repr(cli.loglog_slope(xs, ys)) == repr((slope, r2))
        # the Lyapunov fit of the torus_point runner: columns [1, x]
        A = np.vstack([np.ones_like(xs), xs]).T
        coef, r2 = dls.linear_fit(A, ys)
        assert repr((float(coef[0]), float(coef[1]), r2)) == repr(_old_fit(A, ys))
        # green_decay: columns [1, -x]
        A = np.vstack([np.ones_like(xs), -xs]).T
        coef, r2 = dls.linear_fit(A, ly)
        assert repr((float(coef[0]), float(coef[1]), r2)) == repr(_old_fit(A, ly))

    def test_exact_line_and_flat_data(self):
        xs = np.array([0.0, 1.0, 2.0])
        coef, r2 = dls.linear_fit(np.vstack([np.ones_like(xs), xs]).T, 1.0 + 2.0 * xs)
        assert np.allclose(coef, [1.0, 2.0]) and r2 == pytest.approx(1.0)
        _, r2 = dls.linear_fit(np.vstack([np.ones_like(xs), xs]).T, np.full(3, 4.0))
        assert r2 == 1.0


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


class TestCriticalityIsElasticReflection:
    def test_tangential_jump_vanishes_with_full_jump_alive(self, monkeypatch):
        # at a critical chain the tangential part of each momentum jump is
        # zero while the full jump stays above tolerance
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        dl = scn.lagrangian()
        code = [(-1, 1)] * 3
        chain = scn.periodic_chain(code, [np.array([0.6 + 0.01 * i]) for i in range(3)])
        monkeypatch.setattr(dls, "_NEWTON_TOL", 1e-12)
        res = newton_chain(dl, chain)
        jump_tol = 1e-6 * np.sqrt(2 * scn.E)
        for i, p_minus, p_plus in dls.momentum_jumps(dl, res.chain):
            dp = p_minus - p_plus
            tan, _ = scn.scatterer.frames(res.chain.points[i])
            assert np.linalg.norm(tan.T @ dp) <= 1e-9
            assert np.linalg.norm(dp) >= jump_tol


class TestNoether:
    def test_constant_along_critical_chain(self):
        scn, chain = two_ball_critical()
        vals = noether_values(scn.dl, chain, scn.generator)
        assert np.ptp(vals) <= 1e-9

    def test_unequal_mass_chain(self):
        # the unreduced symmetric system needs the minimal-norm Newton branch
        scn = scenarios.two_ball_torus_scenario(masses=(1.0, 2.0))
        chain = scn.chain([(1, -1), (-1, 1)], [np.array([0.3]), np.array([0.8])])
        res = newton_chain(scn.dl, chain, allow_singular=True)
        assert res.converged
        vals = noether_values(scn.dl, res.chain, scn.generator)
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
        ell = link._fold([link], qm[None], qp[None], eps)[0][0]
        assume(np.sum(np.abs(ell)) > 1e-6)
        path = link.ambient_connect(qm, qp, eps).path
        width = hi - lo
        for i in range(2):
            for t, got in zip(np.linspace(0.0, 1.0, 129), path[:, i]):
                z = (qm[i] + t * ell[i] - lo) % (2 * width)
                assert got == lo + (z if z <= width else 2 * width - z)


def one_link_reference(dl, c):
    """(residual, chain matrix, action, momentum jumps) of chain c one link at
    a time: every link its own one-row family, its rows summed per site as
    the per-link evaluation summed them and the action added in link order.
    The jumps are None where the links have no ambient momenta."""
    rows = []
    for j, k in enumerate(c.code):
        link = dl.link(k)
        one = ([link],) + tuple(x[None] for x in link_endpoints(c, j))
        cls = type(link)
        if one[1].shape[1] or one[2].shape[1]:
            grads, hess = cls.grads(*one), cls.hessians(*one)
        else:       # no chart coordinates on either slot: empty rows
            grads, hess = (np.zeros((1, 0)),) * 2, (np.zeros((1, 0, 0)),) * 3
        try:
            moms = [p[0] for p in cls.momenta_rows(*one)]
        except NotImplementedError:
            moms = None
        rows.append((cls.values(*one)[0], [g[0] for g in grads], [h[0] for h in hess], moms))
    n = c.n_free
    sites = [((i - 1) % n, i) if c.bc == "periodic" else (i, i + 1) for i in range(n)]
    res = np.array([rows[jin][1][1] + rows[jout][1][0] for jin, jout in sites])
    matrix = BlockTridiagonalFactor(link_stacks([r[2] for r in rows]), c.bc == "periodic").matrix
    action = 0.0
    for r in rows:
        action += r[0]
    jumps = None if rows[0][3] is None else [(i, rows[jout][3][0], rows[jin][3][1])
                                             for i, (jin, jout) in enumerate(sites)]
    return res.reshape(c.points.shape), matrix, float(action), jumps


def assert_equals_one_link_reference(dl, c):
    """The array path's residual, chain matrix, action and momentum jumps have
    the bytes of one_link_reference."""
    res, matrix, action, jumps = one_link_reference(dl, c)
    got = residual(dl, c)
    assert got.shape == res.shape and got.tobytes() == res.tobytes()
    got = hessian(dl, c).matrix
    assert got.shape == matrix.shape and got.tobytes() == matrix.tobytes()
    assert chain_action(dl, c) == action
    if jumps is not None:
        for (i, pm, pp), (i1, pm1, pp1) in zip(dls.momentum_jumps(dl, c), jumps, strict=True):
            assert i == i1 and pm.tobytes() == pm1.tobytes() and pp.tobytes() == pp1.tobytes()


class TestArrayPath:
    """The family layout's gathers and per-site scatters round every row as
    the one-link-at-a-time evaluation does."""

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(["periodic", "fixed", "point"]), st.integers(1, 5),
           st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=6, max_size=6),
           st.lists(st.floats(0.05, 0.95), min_size=5, max_size=5),
           st.lists(st.floats(0.1, 0.9), min_size=4, max_size=4),
           st.floats(0.5, 3.0), st.sampled_from([0.0, 0.01]))
    @example("periodic", 1, [(-1, 1)] * 6, [0.6] * 5, [0.5] * 4, 2.0, 0.0)
    @example("periodic", 2, [(-1, 1), (1, -2)] + [(0, 0)] * 4, [0.3, 0.7, 0.5, 0.5, 0.5],
             [0.5] * 4, 1.0, 0.0)
    @example("fixed", 1, [(0, 0), (-1, 1)] + [(0, 0)] * 4, [0.4] * 5, [0.15, 0.85, 0.2, 0.8],
             2.0, 0.01)
    @example("point", 3, [(1, 0), (0, 1), (1, 1)] + [(0, 0)] * 3, [0.5] * 5, [0.5] * 4, 1.0,
             0.0)
    def test_box_and_point_chains(self, kind, n, patterns, xs, ends, mass, margin):
        # box chains of one free coordinate per site, periodic (one family)
        # or fixed (two anchored end families and a middle one), and a chain
        # of a point scatterer, whose points have no coordinates at all
        if kind == "point":
            scn = scenarios.torus_point_scenario()
            dl, c = scn.dl, scn.chain([k if k != (0, 0) else (1, 0) for k in patterns[:n]])
        else:
            scn = scenarios.two_ball_box_scenario(masses=(1.0, mass))
            if kind == "periodic":
                dl, c = scn.lagrangian(), scn.periodic_chain(patterns[:n], xs[:n])
            else:
                code = patterns[:n + 1]
                dl = scenarios.box_fixed_lagrangian(scn, ends[:2], ends[2:], code, margin)
                c = scenarios.box_fixed_chain(code, xs[:n])
        try:
            chain_action(dl, c)
        except dls.ChainDomainError:
            assume(False)       # a chord of zero length: the rows are 0/0
        assert_equals_one_link_reference(dl, c)

    @seed(20161018)
    @settings(max_examples=20, deadline=None, database=None)
    @given(st.booleans(), st.lists(st.floats(-0.05, 0.05), min_size=6, max_size=6))
    def test_tube_joint_chains(self, box, offsets):
        # joint chains of shadow_solve moved off their critical point: a fixed
        # box chain with frozen ends, and a periodic torus chain. The tube
        # links have no ambient momenta, so there are no jumps to compare.
        sc = _shadow_chains()[box]
        P = sc.joint_chain.points
        c = sc.joint_chain.with_points(P + np.reshape(offsets[:P.size], P.shape))
        assert_equals_one_link_reference(sc.joint_dl, c)

    def test_lagrangians_never_share_a_layout(self):
        # the same code under the box Lagrangian at margin 0 and then at
        # 1e-2: each evaluation is its own Lagrangian's, as fresh ones give
        scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
        a, b = [0.15, 0.85], [0.2, 0.8]
        code = [(0, 0), (-1, 1), (-1, 1), (0, 0)]
        chain = scenarios.box_fixed_chain(code, [0.55, 0.7, 0.6])
        results = []
        for margin in (0.0, 1e-2):
            dl = scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=margin)
            got = (residual(dl, chain), hessian(dl, chain).matrix, chain_action(dl, chain))
            fresh = scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=margin)
            for x, y in zip(got, (residual(fresh, chain), hessian(fresh, chain).matrix,
                                  chain_action(fresh, chain))):
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
            assert_equals_one_link_reference(dl, chain)
            assert dl.layouts is not fresh.layouts
            results.append(got)
        assert results[0][0].tobytes() != results[1][0].tobytes()


@functools.lru_cache(maxsize=None)
def _shadow_chains():
    """Shadow chains at eps = 1e-3, built once: {True: a fixed 4-link box
    chain (masses 1, 2), False: the periodic torus_point chain (1, 0), (0, 1),
    (1, 1)}."""
    scn = scenarios.two_ball_box_scenario(masses=(1.0, 2.0))
    a, b = np.array([0.15, 0.85]), np.array([0.2, 0.8])
    code = [(0, 0), (-1, 1), (-1, 1), (0, 0)]
    res = newton_chain(scenarios.box_fixed_lagrangian(scn, a, b, code),
                       scenarios.box_fixed_chain(code, [0.55, 0.7, 0.6]))
    tp = scenarios.torus_point_scenario()
    return {True: shadow_solve(scenarios.box_fixed_lagrangian(scn, a, b, code, wall_margin=1e-3),
                               res.chain, 1e-3),
            False: shadow_solve(tp.dl, tp.chain([(1, 0), (0, 1), (1, 1)]), 1e-3)}
