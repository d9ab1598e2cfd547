import itertools
import json
import time
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import HarmonicPotential
from shadowbilliards import scenarios, singular
from shadowbilliards.dynamics import ClassicalHamiltonian, euclidean, flat_torus
from shadowbilliards.scatterer import DiagonalScatterer, PointScatterer
from shadowbilliards.singular import (ExclusionRadiusError, SingularPerturbation,
                                      rutherford_deflection, shadow_experiment)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def one_center(mu, alphas=(1.0,), centers=((0.0, 0.0),)):
    space = euclidean(2)
    base = ClassicalHamiltonian(space)
    scat = PointScatterer(space, list(centers))
    return SingularPerturbation(base, scat, mu, alphas=np.asarray(alphas, float))


def kernel_pull(sp, Q):
    """Kernel force and nearest-center distance of the rows Q under sp's weights."""
    kernel, Q = singular._PointCenterKernel(sp), np.asarray(Q, dtype=float)
    W = np.tile(sp.mu * sp.alphas, (len(Q), 1))
    K, D = kernel.field_distance(np.array([Q, np.zeros_like(Q)]), W)
    return K[1], D


class TestEvalSingular:
    def test_coulomb_value_and_gradient(self):
        # V = -1/|q| at q = (2, 0): distance 2, force -grad V = (-1/4, 0)
        F, D = kernel_pull(one_center(1.0), [[2.0, 0.0]])
        assert D[0] == 2.0
        assert F[0] == pytest.approx([-0.25, 0.0], rel=1e-14, abs=1e-15)

    def test_two_centers_midpoint_symmetry(self):
        sp = one_center(1.0, alphas=(1.0, 1.0), centers=((0.0, 0.0), (2.0, 0.0)))
        F, D = kernel_pull(sp, [[1.0, 0.0]])
        assert D[0] == 1.0
        assert np.allclose(F[0], 0.0, atol=1e-14)

    def test_exclusion_radius(self):
        # a head-on fall into center 0 of the square ends inside its r_min =
        # mu^2, also when it flies in a call with the links of another mu
        shooter, other = square_shooter(1e-2), square_shooter(10**-2.5)
        # section 0 is the line x = 1/2: from the square's middle down the diagonal
        fall = (shooter, 0, np.array([0.5, -0.75 * np.pi]))
        alone = shooter.fly_link([fall])[0]
        mixed = other.fly_link(predictor_rows(other) + [fall])[-1]
        assert isinstance(alone, ExclusionRadiusError)
        assert "inside exclusion radius 1.000e-04" in str(alone)
        assert type(mixed) is type(alone) and str(mixed) == str(alone)


class TestFlowSingular:
    def test_mu_zero_matches_base_flow(self):
        # zero weights: an RK4 step is the free-flight step q + dt M^-1 p
        sp = square_perturbation(0.0, mass=[[2.0, 0.3], [0.3, 1.0]])
        kernel = singular._PointCenterKernel(sp)
        Q = np.array([[0.3, 0.2], [1.5, -0.7], [0.01, 0.99]])
        P = np.array([[1.0, 0.5], [-0.3, 2.0], [0.0, -1.0]])
        dt, W = np.array([1e-3, 0.1, 2.0]), np.zeros((3, 4))
        Y = np.array([Q, P])
        Q1, P1 = kernel.rk4(Y, dt, kernel.field_distance(Y, W)[0], W)
        assert np.array_equal(P1, P)
        assert np.allclose(Q1, Q + dt[:, None] * (P @ sp.base.mass_inv.T), rtol=0, atol=1e-15)

    def test_hyperbolic_flyby_conservation(self):
        # flight 0 of the predictor starts at the midpoint of link 0, passes
        # center 1 and ends on section 1, at the midpoint of link 1
        mu = 1e-3
        shooter = square_shooter(mu)
        ((q, pp, dmin, _),) = shooter.fly_link(predictor_rows(shooter)[:1])

        def energy(q, p):
            r = np.linalg.norm(q - shooter.sp.scatterer.points, axis=1)
            return 0.5 * p @ p - mu * np.sum(1.0 / r)

        E0 = energy(*shooter.node_state(0, shooter.predictor()[:2]))
        assert abs(energy(q, pp) - E0) <= 1e-6 * max(1.0, abs(E0))
        assert shooter.sp.r_min < dmin < 5 * mu

    def test_mu_continuity_along_first_link(self):
        # the flown predictor flight 0 stays within O(mu^0.8) of its chords
        # y = 0 and x = 1
        for mu in (1e-3, 1e-4):
            shooter = square_shooter(mu)
            ((_, _, _, path),) = shooter.fly_link(predictor_rows(shooter)[:1], collect=[0])
            assert np.max(np.minimum(np.abs(path[:, 1]), np.abs(path[:, 0] - 1))) <= 5.0 * mu ** 0.8


class TestDeflection:
    def test_right_angle_geometry(self):
        E = 0.5
        kappa = 1e-3
        d = rutherford_deflection(kappa, E, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        v2 = 2 * E
        assert d.chi == pytest.approx(np.pi / 2)
        assert d.impact_parameter == pytest.approx(kappa / v2, rel=1e-12)
        assert d.r_p == pytest.approx((kappa / v2) * (np.sqrt(2.0) - 1.0), rel=1e-12)

    def test_energy_at_periapsis(self):
        E = 0.5
        kappa = 2e-3
        d = rutherford_deflection(kappa, E, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        # the angular momentum b v gives the periapsis speed b v / r_p, and H
        # = |p|^2/2 - kappa/r there equals the asymptotic energy
        v_p = d.impact_parameter * np.sqrt(2 * E) / d.r_p
        H = 0.5 * v_p**2 - kappa / d.r_p
        assert H == pytest.approx(E, rel=1e-12)

    def test_head_on_rejected(self):
        with pytest.raises(singular.SingularShadowError):
            rutherford_deflection(1e-3, 0.5, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))


class TestShadowExperiment:
    def test_square_code_two_mu(self):
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        rows = shadow_experiment(scn.dl, chain, [1e-3, 10**-3.5], alphas=scn.alphas)
        assert all(r.converged for r in rows)
        assert rows[1].sup_error < rows[0].sup_error
        for r in rows:
            assert 1 / 3 <= r.min_distance / r.predicted_r_p <= 3

    def test_square_golden_rows(self):
        # values of the mid-chord shooting from the first-order chain; every
        # digit must survive a change of the flights' batching
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        (row,) = shadow_experiment(scn.dl, chain, [10**-2.85], alphas=scn.alphas)
        assert row.converged and row.reason == ""
        assert repr(row.sup_error) == "0.0016485093053280318"
        assert repr(row.min_distance) == "0.000582573851767547"
        assert repr(row.residual) == "1.9838414097350118e-09"
        assert row.iterations == 2

    def test_lockstep_rows_bit_for_bit(self):
        # two mu solved together by the damped Newton of dls; the bits are
        # those each mu's mid-chord shooting had when it was recorded
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        rows = shadow_experiment(scn.dl, chain, [10**-2.85, 10**-2.875], alphas=np.ones(4))
        expected = [("0x1.b0259636d207ap-10", "0x1.316fbd20740f4p-11", "0x1.10a836de06af9p-29"),
                    ("0x1.9830344d428f4p-10", "0x1.206bb7ed5e47ap-11", "0x1.b2aa35dbbfce9p-30")]
        for row, (sup_error, min_distance, residual) in zip(rows, expected):
            assert row.converged and row.reason == "" and row.iterations == 2
            assert row.sup_error.hex() == sup_error
            assert row.min_distance.hex() == min_distance
            assert float(row.residual).hex() == residual

    def test_failed_row_keeps_reason(self, monkeypatch):
        def fail(self):
            raise singular.SingularShadowError("no descent (|R| = 1.00e-03)")
            yield  # a generator, as the Newton it stands in for

        monkeypatch.setattr(singular._ChainShooting, "newton", fail)
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        (row,) = shadow_experiment(scn.dl, chain, [1e-3], alphas=scn.alphas)
        assert not row.converged and np.isnan(row.sup_error)
        assert row.reason == "SingularShadowError: no descent (|R| = 1.00e-03)"

    def test_failed_row_keeps_its_last_residual_and_iterations(self):
        # a failed perturbed flight at the first full step ends the Newton
        # after one iteration: the row keeps |R| of that step's trial
        shooter = square_shooter(10**-2.85)
        U = shooter.predictor()
        R = drive(shooter.residual(U, False))[0]
        U1 = U + np.linalg.solve(drive(shooter.jacobian(U, None)), -R)
        rn1 = np.linalg.norm(drive(shooter.residual(U1, False))[0], ord=np.inf)
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        patch, _ = recorded_flights(2, index=4 + 2 * 3)
        with patch:
            (row,) = shadow_experiment(scn.dl, chain, [10**-2.85], alphas=scn.alphas)
        assert not row.converged and np.isnan(row.sup_error)
        assert row.reason == "SingularShadowError: finite differences infeasible at node 1"
        assert row.iterations == 1 and row.residual == rn1 > 1e-8

    def test_non_planar_chain_refused_before_any_flight(self, monkeypatch):
        # the shipped square lifted to z = 0: the planar shooting must refuse it
        def no_flight(*args, **kwargs):
            raise AssertionError("a non-planar chain was flown")

        monkeypatch.setattr(singular._ChainShooting, "fly_link", no_flight)
        cfg = json.loads((SCENARIOS / "ncenter_square.json").read_text())["params"]
        centers = [c + [0.0] for c in cfg["centers"]]
        scn = scenarios.ncenter_scenario(centers, cfg["alphas"], cfg["energy"])
        chain = scn.chain(cfg["code"])
        t0 = time.process_time()
        with pytest.raises(singular.NonPlanarChainError):
            shadow_experiment(scn.dl, chain, [10**-2.85], alphas=scn.alphas)
        assert time.process_time() - t0 < 1.0

    def test_collinear_head_on_rejected(self):
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], E=0.5)
        chain = scn.chain([(0, 1), (1, 0)])  # go and come straight back
        with pytest.raises(singular.SingularShadowError):
            shadow_experiment(scn.dl, chain, [1e-3], alphas=scn.alphas)


POLYGON = ([[0.0, 0.0], [1.2, 0.0], [1.1, 0.9], [-0.1, 1.0]], [1.0, 0.8, 1.2, 1.0], 0.6)
SHAPES = {"square": (scenarios.square_centers(), [1.0] * 4, 0.5), "polygon": POLYGON}
WIDE_MU = (1e-2, 10**-2.25, 10**-2.5, 1e-3, 10**-3.5, 1e-4)


@lru_cache(maxsize=None)
def solved_sweep(shape):
    """Rows of shadow_experiment over WIDE_MU on the cycle of a shape, and the
    shooter and solution U of each mu."""
    centers, alphas, E = SHAPES[shape]
    scn = scenarios.ncenter_scenario(centers, alphas, E)
    chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
    orig, solved = singular._ChainShooting.newton, []

    def newton(self):
        out = yield from orig(self)
        solved.append((self, out[0]))
        return out

    with mock.patch.object(singular._ChainShooting, "newton", newton):
        rows = shadow_experiment(scn.dl, chain, list(WIDE_MU), alphas=scn.alphas)
    return rows, sorted(solved, key=lambda s: -s[0].sp.mu), E


class TestShootingInvariants:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_converged_rows_at_tol_within_four_iterations(self, shape):
        # every mu converges at tol, the three largest in at most 4
        # iterations, the others in at most 3
        rows, _, E = solved_sweep(shape)
        for row in rows:
            assert row.converged and row.reason == ""
            assert row.residual <= 1e-8 * np.sqrt(2 * E)
            assert row.iterations <= (4 if row.mu > 1e-3 * 1.5 else 3)
            assert 1 / 3 <= row.min_distance / row.predicted_r_p <= 3

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_nodes_on_the_energy_shell(self, shape):
        _, solved, E = solved_sweep(shape)
        assert len(solved) == len(WIDE_MU)
        for shooter, U in solved:
            pts, w = shooter.sp.scatterer.points, shooter.weights
            for j, x in enumerate(U.reshape(shooter.n, 2)):
                q, p = shooter.node_state(j, x)
                H = 0.5 * p @ p - w @ (1.0 / np.linalg.norm(pts - q, axis=1))
                assert abs(H - E) <= 1e-12 * E

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_sup_error_meets_the_first_order_chain(self, shape):
        # the sup over the links of the first-order chain's offset, a
        # coefficient c of mu, leaves a difference that falls like mu^2
        rows, solved, _ = solved_sweep(shape)
        shooter = solved[0][0]
        offsets, _ = shooter.first_order_offsets(np.linspace(0.0, 1.0, 4001))
        c = np.max(np.abs(offsets)) / shooter.sp.mu
        if shape == "square":
            assert c == pytest.approx(1.17815, abs=5e-6)
        small = [r for r in rows if r.mu <= 1e-3 * 1.5]
        diffs = [abs(r.sup_error - c * r.mu) for r in small]
        slope = np.polyfit(np.log([r.mu for r in small]), np.log(diffs), 1)[0]
        assert 1.8 <= slope <= 2.2


# ---------------------------------------------------------------------------
# Lockstep kernel and flights
# ---------------------------------------------------------------------------

SQUARE_DIRS = [np.array(u, dtype=float) for u in ((1, 0), (0, 1), (-1, 0), (0, -1))]


def square_perturbation(mu, mass=None):
    space = euclidean(2)
    return SingularPerturbation(ClassicalHamiltonian(space, mass=mass),
                                PointScatterer(space, scenarios.square_centers()), mu,
                                np.ones(4))


def square_shooter(mu):
    return singular._ChainShooting(square_perturbation(mu), [0, 1, 2, 3], SQUARE_DIRS, 0.5)


def predictor_rows(shooter):
    X = shooter.predictor().reshape(shooter.n, 2)
    return [(shooter, j, X[j]) for j in range(shooter.n)]


def drive(run):
    """What one shooting generator returns when the sweep's driver runs it alone."""
    (out,) = singular._lockstep([run])
    if isinstance(out, Exception):
        raise out
    return out


def reference_rk4(sp, q, p, dt):
    """One-row RK4 step among point centers, written with one-row products."""
    centers, mu_alphas, minv = sp.scatterer.points, sp.mu * sp.alphas, sp.base.mass_inv

    def force(x):
        rel = x[None, :] - centers
        r2 = np.einsum("ij,ij->i", rel, rel)
        return -(mu_alphas / (r2 * np.sqrt(r2))) @ rel

    def vel(y):
        return y if np.allclose(minv, np.eye(2)) else minv @ y

    k1q, k1p = vel(p), force(q)
    k2q, k2p = vel(p + 0.5 * dt * k1p), force(q + 0.5 * dt * k1q)
    k3q, k3p = vel(p + 0.5 * dt * k2p), force(q + 0.5 * dt * k2q)
    k4q, k4p = vel(p + dt * k3p), force(q + dt * k3q)
    return (q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q),
            p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p))


@st.composite
def kernel_rows(draw):
    """Rows near the square's centers (the first within 1e-3 of one), each
    with its own dt and mu."""
    n = draw(st.integers(1, 12))
    Q, P, dt, mus = [], [], [], []
    for i in range(n):
        center = scenarios.square_centers()[draw(st.integers(0, 3))]
        r = 10 ** draw(st.floats(-5, -3) if i == 0 else st.floats(-5, 0))
        ang = draw(st.floats(0, 2 * np.pi))
        Q.append(center + r * np.array([np.cos(ang), np.sin(ang)]))
        P.append(draw(st.lists(st.floats(-2, 2), min_size=2, max_size=2)))
        dt.append(10 ** draw(st.floats(-9, -1)))
        mus.append(10 ** draw(st.floats(-4, -2)))
    return np.array(Q), np.array(P), np.array(dt), mus


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def same_finite_bits(a, b):
    """Bit-equal where finite, and non-finite at the same entries."""
    fa, fb = np.isfinite(a), np.isfinite(b)
    return np.array_equal(fa, fb) and same_bits(np.asarray(a)[fa], np.asarray(b)[fb])


class TestLockstepKernel:
    def test_near_unit_mass_flies_its_velocity(self):
        # a mass 1e-6 off the identity is not unit mass: velocity = P would be
        # off by 1e-6 relative
        space = euclidean(2)
        sp = SingularPerturbation(ClassicalHamiltonian(space, mass=[1.0 + 1e-6, 1.0]),
                                  PointScatterer(space, [[0.0, 0.0]]), 1e-3, np.ones(1))
        P = np.array([[1.0, 0.5], [-0.3, 2.0]])
        expected = (sp.base.mass_inv @ P[..., None])[..., 0]
        assert np.array_equal(singular._PointCenterKernel(sp).velocity(P), expected)

    def test_only_free_flight_among_point_centers(self):
        # the kernel has no term for a base potential, and V for point centers only
        space = euclidean(2)
        sp = SingularPerturbation(ClassicalHamiltonian(space, HarmonicPotential(1.0)),
                                  PointScatterer(space, [[0.5, 0.0]]), 1e-2, np.ones(1))
        with pytest.raises(ValueError, match="free flight"):
            singular._PointCenterKernel(sp)
        with pytest.raises(ValueError, match="point scatterer"):
            SingularPerturbation(ClassicalHamiltonian(space), DiagonalScatterer(space), 1e-2,
                                 np.ones(1))
        torus = flat_torus([1.0, 1.0])
        with pytest.raises(ValueError, match="Euclidean"):
            SingularPerturbation(ClassicalHamiltonian(torus),
                                 PointScatterer(torus, [[0.5, 0.0]]), 1e-2, np.ones(1))

    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(kernel_rows(), st.sampled_from([None, [[2.0, 0.3], [0.3, 1.0]]]))
    @example((np.array([[1e-4, 0.0], [1e-4, 0.0], [0.7, 0.1]]),
              np.array([[0.0, 1.0], [0.0, 1.0], [-1.0, 0.5]]),
              np.array([1e-6, 1e-6, 1e-2]), [1e-2, 10**-3.5, 1e-4]), None)
    @example((np.array([[1e-3, 0.0]] + [[1.0, 0.0]] * 4),
              np.array([[0.0, 0.0]] * 4 + [[0.0, 2.2250738585072014e-308]]),
              np.full(5, 0.1), [1e-2] * 5), None)
    def test_batched_rows_equal_one_row_steps(self, rows, mass):
        # rows of different mu in one call equal each row stepped alone with
        # its own weights. A row whose stages land on a center steps to nan
        # (the second example starts on one), and batched and alone may give
        # that nan another sign bit; flights stop such rows at the exclusion
        # radius before they step
        Q, P, dt, mus = rows
        sp = square_perturbation(1.0, mass)
        kernel = singular._PointCenterKernel(sp)
        W = np.array([mu * sp.alphas for mu in mus])
        Y = np.array([Q, P])
        Kb, Db = kernel.field_distance(Y, W)
        Qb, Pb = kernel.rk4(Y, dt, Kb, W)
        for i in range(len(dt)):
            one = slice(i, i + 1)
            K1, D1 = kernel.field_distance(Y[:, one], W[one])
            assert same_finite_bits(Kb[:, i], K1[:, 0]) and same_bits(Db[i], D1[0])
            q1, p1 = kernel.rk4(Y[:, one], dt[one], K1, W[one])
            assert same_finite_bits(Qb[i], q1[0]) and same_finite_bits(Pb[i], p1[0])
            q_ref, p_ref = reference_rk4(square_perturbation(mus[i], mass), Q[i], P[i],
                                         float(dt[i]))
            assert same_finite_bits(Qb[i], q_ref) and same_finite_bits(Pb[i], p_ref)
            rel = Q[i][None, :] - sp.scatterer.points
            assert Db[i] == float(np.min(np.sqrt(np.einsum("ij,ij->i", rel, rel))))

    @seed(20161018)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-300),
                              st.floats(-12, 6).map(lambda e: 10.0**e)), min_size=1, max_size=64),
           st.floats(1e-6, 1.0))
    @example([0.0, 5e-324, 2.2250738585072014e-308, 1e-12, 1e6], 0.02)
    def test_step_sizes_are_the_float_power_law(self, D, h):
        # float_power must round d**1.5 as Python's float power does (np.power
        # rounds about 5% of distances differently); 10**e spreads the mantissas
        steps = singular._PointCenterKernel.step_sizes(np.array(D), np.full(len(D), h), 0.2)
        assert steps.tolist() == [min(h, 0.2 * d**1.5) for d in D]

    @seed(20161018)
    @settings(max_examples=3, deadline=None, database=None)
    @given(st.permutations(range(8)))
    @example(list(range(8)))
    def test_links_of_different_mu_fly_as_alone(self, order):
        # the predictor links of two mu, interleaved in one call, against
        # each mu's links flown alone: hits, least distances and paths
        shooters = [square_shooter(1e-2), square_shooter(10**-2.5)]
        rows = [row for s in shooters for row in predictor_rows(s)]
        mixed = [rows[i] for i in order]
        out = mixed[0][0].fly_link(mixed, collect=range(8))
        ref = [hit for s in shooters for hit in s.fly_link(predictor_rows(s), collect=range(4))]
        for m, i in enumerate(order):
            assert all(same_bits(a, b) for a, b in zip(out[m], ref[i]))

    @pytest.mark.parametrize("kind", ["exclusion", "miss"])
    @seed(20161018)
    @settings(max_examples=2, deadline=None, database=None)
    @given(at=st.integers(0, 4))
    def test_failing_row_leaves_the_others_bit_equal(self, kind, at):
        shooter = square_shooter(1e-2)
        good = predictor_rows(shooter)
        # start on section 0 (the line x = 1/2): from the square's middle down
        # the diagonal, a radial fall into center 0; or below the square,
        # moving away from it
        bad = (shooter, 0, np.array([0.5, -0.75 * np.pi] if kind == "exclusion"
                                    else [-0.3, -0.5 * np.pi]))
        rows = good[:at] + [bad] + good[at:]
        out = shooter.fly_link(rows)
        ref = shooter.fly_link(good)
        failed = out.pop(at)
        if kind == "exclusion":
            assert isinstance(failed, singular.ExclusionRadiusError)
            assert "inside exclusion radius" in str(failed)
        else:
            assert isinstance(failed, singular.SingularShadowError)
            assert str(failed) == "link 0 missed section 1"
        for hit, hit_ref in zip(out, ref):
            q, pp, dmin, path = hit
            assert same_bits(q, hit_ref[0]) and same_bits(pp, hit_ref[1])
            assert dmin == hit_ref[2] and path is None

    def test_flown_path_samples_end_at_the_hit(self):
        shooter = square_shooter(1e-2)
        rows = predictor_rows(shooter)
        plain = shooter.fly_link(rows)
        for (q, pp, dmin, path), (_, j, xj), ref in zip(
                shooter.fly_link(rows, collect=range(len(rows))), rows, plain):
            assert same_bits(path[0], shooter.node_state(j, xj)[0])
            assert same_bits(path[-1], q) and same_bits(q, ref[0]) and dmin == ref[2]


class TestOneBisectionPerFlight:
    def test_rows_hitting_at_different_steps_bisect_together(self):
        # the predictor links of two mu cross their sections at different
        # steps; every crossing is bisected in one call after the loop
        shooters = [square_shooter(1e-2), square_shooter(10**-2.5)]
        rows = [row for s in shooters for row in predictor_rows(s)]
        orig = singular._ChainShooting._bisect
        sizes = []

        def bisect(self, Y, *args):
            sizes.append(Y.shape[1])
            return orig(self, Y, *args)

        with mock.patch.object(singular._ChainShooting, "_bisect", bisect):
            out = rows[0][0].fly_link(rows, collect=range(len(rows)))
        assert sizes == [len(rows)]
        assert len({len(path) for _, _, _, path in out}) > 1


class TestJacobian:
    def test_failed_stencil_flight_gives_up(self):
        # a perturbed flight that fails ends the Jacobian after its one flight
        shooter = square_shooter(1e-2)
        patch, calls = recorded_flights(1, index=2 * 5)
        with patch, pytest.raises(singular.SingularShadowError,
                                  match="finite differences infeasible at node 2"):
            drive(shooter.jacobian(shooter.predictor(), None))
        assert calls == [16]


def recorded_flights(fail_call=None, mu=None, index=0):
    """fly_link that records the row count of each call; call number
    fail_call (from 1) among the calls with rows of a shooter at mu (of any
    shooter by default) reports row number index (from 0) of those rows as
    failed."""
    orig = singular._ChainShooting.fly_link
    calls, seen = [], []

    def fly(self, rows, collect=()):
        out = orig(self, rows, collect)
        calls.append(len(rows))
        mine = [i for i, row in enumerate(rows) if mu is None or row[0].sp.mu == mu]
        if mine:
            seen.append(mine[0])
            if len(seen) == fail_call:
                out[mine[index]] = singular.SingularShadowError("injected")
        return out

    return mock.patch.object(singular._ChainShooting, "fly_link", fly), calls


def unfused_newton(shooter, tol=1e-8):
    """Newton with a Jacobian flight of its own at every step and a re-flight
    of the solution for its paths: (U, |R|, iterations, dmin, sup error)."""
    U = shooter.predictor()
    R, dmin, _, _ = drive(shooter.residual(U, False))
    rn = np.linalg.norm(R, ord=np.inf)
    floor = min(dd.r_p for dd in shooter.defl) / 5.0
    it = 0
    while rn > tol * shooter.speed:
        step = np.linalg.solve(drive(shooter.jacobian(U, None)), -R)
        lam = 1.0
        for _ in range(25):
            try:
                R_t, dmin_t, _, _ = drive(shooter.residual(U + lam * step, False))
            except singular.SingularShadowError:
                lam *= 0.5
                continue
            rn_t = np.linalg.norm(R_t, ord=np.inf)
            if rn_t < rn and dmin_t >= floor:
                break
            lam *= 0.5
        else:
            raise AssertionError("no descent")
        U, R, rn, dmin = U + lam * step, R_t, rn_t, dmin_t
        it += 1
    _, dmin, paths, _ = drive(shooter.residual(U, False))
    return U, rn, it, dmin, shooter.sup_error_to_chain(paths)


class TestOneFlightPerNewtonStep:
    # every line search of this solve accepts the full step
    MU = 10**-2.85

    def fused(self, fail_call=None):
        shooter = square_shooter(self.MU)
        patch, calls = recorded_flights(fail_call)
        with patch:
            U, rn, it, dmin, paths = shooter.solve()
            sup = shooter.sup_error_to_chain(paths)
        return (U, rn, it, dmin, sup), calls

    def unfused(self, fail_call=None):
        patch, calls = recorded_flights(fail_call)
        with patch:
            return unfused_newton(square_shooter(self.MU)), calls

    @staticmethod
    def assert_same(got, ref):
        assert same_bits(got[0], ref[0])
        assert got[1:] == ref[1:]

    def test_full_steps_fly_once_per_iteration(self):
        got, calls = self.fused()
        ref, ref_calls = self.unfused()
        it = got[2]
        assert it >= 2 and calls == [4 + 16] * (1 + it)
        assert ref_calls == [4] + [16, 4] * it + [4]
        self.assert_same(got, ref)

    def test_short_step_flies_its_jacobian_alone(self):
        # the first full-step trial fails, so the step is accepted at 1/2
        # and the next Jacobian flies on its own
        got, calls = self.fused(fail_call=2)
        ref, ref_calls = self.unfused(fail_call=3)
        it = got[2]
        assert calls == [4 + 16, 4 + 16, 4, 16] + [4 + 16] * (it - 1)
        assert ref_calls == [4, 16, 4, 4] + [16, 4] * (it - 1) + [4]
        self.assert_same(got, ref)


# ---------------------------------------------------------------------------
# A mu sweep in lockstep
# ---------------------------------------------------------------------------

SWEEP = (10**-2.85, 10**-2.875)
ROW_FIELDS = ("converged", "sup_error", "min_distance", "residual", "iterations", "reason")


def sweep(mus, fail_call=None, fail_mu=None):
    """Rows of shadow_experiment on the shipped square over mus, and the row
    count of each fly_link call; see recorded_flights for the failure."""
    scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
    chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
    patch, calls = recorded_flights(fail_call, fail_mu)
    with patch:
        rows = shadow_experiment(scn.dl, chain, list(mus), alphas=scn.alphas)
    return [tuple(repr(getattr(r, f)) for f in ROW_FIELDS) for r in rows], calls


@lru_cache(maxsize=None)
def alone(mu, fail_call=None):
    """sweep of mu alone: (its row, the row counts of its flights)."""
    (row,), calls = sweep([mu], fail_call, mu)
    return row, calls


class TestLockstepSweep:
    def test_rows_equal_each_mu_solved_alone(self):
        rows, _ = sweep(SWEEP)
        assert rows == [alone(mu)[0] for mu in SWEEP]
        assert all(row[0] == "True" and row[-1] == "''" for row in rows)

    def test_sweep_flies_the_max_not_the_sum(self):
        # each round flies the pending rows of both mu in one call
        _, calls = sweep(SWEEP)
        solo = [alone(mu)[1] for mu in SWEEP]
        assert len(calls) == max(map(len, solo)) < sum(map(len, solo))
        assert calls == [a + b for a, b in itertools.zip_longest(*solo, fillvalue=0)]

    @seed(20161018)
    @settings(max_examples=2, deadline=None, database=None)
    @given(st.sampled_from(SWEEP), st.integers(1, 4))
    @example(SWEEP[0], 1)
    @example(SWEEP[1], 1)
    def test_failure_in_one_mu_leaves_the_other_row(self, mu, fail_call):
        # a failed flight of one mu changes its row as it would alone, and
        # the other row not at all; failing the first flight fails the row
        rows, _ = sweep(SWEEP, fail_call, mu)
        k = SWEEP.index(mu)
        assert rows[k] == alone(mu, fail_call)[0]
        assert rows[1 - k] == alone(SWEEP[1 - k])[0]
        if fail_call == 1:
            assert rows[k][0] == "False"
            assert rows[k][-1] == repr("SingularShadowError: injected")
