from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from shadowbilliards import dls, scenarios, singular
from shadowbilliards.dynamics import (ClassicalHamiltonian, PhaseState,
                                      euclidean, flow_segment)
from shadowbilliards.scatterer import DiagonalScatterer, PointScatterer
from shadowbilliards.singular import (ExclusionRadiusError, SingularPerturbation,
                                      eval_singular, flow_singular,
                                      rutherford_deflection, shadow_experiment)


def one_center(mu, alphas=(1.0,), centers=((0.0, 0.0),)):
    space = euclidean(2)
    base = ClassicalHamiltonian(space)
    scat = PointScatterer(space, list(centers))
    return SingularPerturbation(base, scat, mu, alphas=np.asarray(alphas, float))


class TestEvalSingular:
    def test_coulomb_value_and_gradient(self):
        sp = one_center(1.0)
        V, g = eval_singular(sp, np.array([2.0, 0.0]))
        assert V == pytest.approx(-0.5, rel=1e-14)
        assert np.allclose(g, [0.25, 0.0])

    def test_two_centers_midpoint_symmetry(self):
        sp = one_center(1.0, alphas=(1.0, 1.0), centers=((0.0, 0.0), (2.0, 0.0)))
        _, g = eval_singular(sp, np.array([1.0, 0.0]), r_floor=1e-9)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_diagonal_scatterer_pair_potential(self):
        # projection-formula oracle: d(q, diag) = |q1 - q2| / sqrt(2), so
        # phi = alpha1 alpha2 / sqrt(2) reproduces -a1 a2 / |q1 - q2|
        space = euclidean(2)
        base = ClassicalHamiltonian(space)
        scat = DiagonalScatterer(space)
        a1a2 = 0.3 * 0.7
        sp = SingularPerturbation(base, scat, 1e-2,
                                  phi=lambda q, mu: a1a2 / np.sqrt(2.0))
        q = np.array([0.8, 0.3])
        V, _ = eval_singular(sp, q)
        assert V == pytest.approx(-a1a2 / abs(q[0] - q[1]), rel=1e-12)

    def test_exclusion_radius(self):
        sp = one_center(1e-2)
        with pytest.raises(ExclusionRadiusError):
            eval_singular(sp, np.array([sp.r_min / 2, 0.0]))


class TestFlowSingular:
    def test_mu_zero_matches_base_flow(self):
        sp = one_center(0.0)
        s0 = PhaseState(np.array([1.0, 1.0]), np.array([0.3, -0.2]))
        res = flow_singular(sp, s0, 2.0)
        ref = flow_segment(sp.base, s0, 2.0)
        assert np.linalg.norm(res.trajectory.final.q - ref.final.q) < 1e-10

    def test_hyperbolic_flyby_conservation(self):
        mu = 1e-3
        sp = one_center(mu)
        b = 2.0 * mu  # impact parameter of order mu
        s0 = PhaseState(np.array([-1.0, b]), np.array([1.0, 0.0]))
        res = flow_singular(sp, s0, 2.0)
        assert res.energy_drift <= 1e-6
        assert res.min_distance < 5 * mu
        assert res.min_distance > sp.r_min

    def test_repelling_head_on_turns_back(self):
        # 1-d closed-form turning point at r = mu |alpha| / E
        mu, alpha, E = 1e-3, -1.0, 0.5
        sp = one_center(mu, alphas=(alpha,))
        s0 = PhaseState(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        res = flow_singular(sp, s0, 3.0)
        E0 = sp.energy(s0.q, s0.p)
        r_turn = mu * abs(alpha) / E0
        assert res.min_distance == pytest.approx(r_turn, rel=1e-3)
        assert res.trajectory.final.q[0] < -0.5  # came back out

    def test_mu_continuity_along_first_link(self):
        # trajectory from chain initial data stays within O(mu^0.8) of the link
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        for mu in (1e-3, 1e-4):
            sp = SingularPerturbation(scn.h, scn.scatterer, mu, alphas=scn.alphas)
            start = np.array([0.5, 0.0])
            s0 = PhaseState(start, np.array([1.0, 0.0]))
            res = flow_singular(sp, s0, 0.45 / np.sqrt(2 * 0.5))
            dev = np.max(np.abs(res.trajectory.qs[:, 1]))
            assert dev <= 5.0 * mu ** 0.8


class TestDeflection:
    def test_right_angle_geometry(self):
        E = 0.5
        kappa = 1e-3
        d = rutherford_deflection(np.zeros(2), kappa, E, np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]))
        v2 = 2 * E
        assert d.chi == pytest.approx(np.pi / 2)
        assert d.impact_parameter == pytest.approx(kappa / v2, rel=1e-12)
        assert d.r_p == pytest.approx((kappa / v2) * (np.sqrt(2.0) - 1.0), rel=1e-12)

    def test_energy_at_periapsis(self):
        E = 0.5
        kappa = 2e-3
        d = rutherford_deflection(np.zeros(2), kappa, E, np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]))
        # H = |p|^2/2 - kappa/r at the periapsis equals the asymptotic energy
        H = 0.5 * float(d.momentum @ d.momentum) - kappa / d.r_p
        assert H == pytest.approx(E, rel=1e-12)

    def test_head_on_rejected(self):
        with pytest.raises(singular.SingularShadowError):
            rutherford_deflection(np.zeros(2), 1e-3, 0.5, np.array([1.0, 0.0]),
                                  np.array([-1.0, 0.0]))


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
        # values of the one-link-at-a-time shooting that preceded the lockstep
        # flights; every digit must survive the batching
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        (row,) = shadow_experiment(scn.dl, chain, [10**-2.85], alphas=scn.alphas)
        assert row.converged and row.reason == ""
        assert repr(row.sup_error) == "0.0016522705353819254"
        assert repr(row.min_distance) == "0.0005839325767471941"
        assert repr(row.residual) == "1.8628276698962054e-09"
        assert row.iterations == 3

    def test_failed_row_keeps_reason(self, monkeypatch):
        def fail(self, *args, **kwargs):
            raise singular.SingularShadowError("no descent (|R| = 1.00e-03)")

        monkeypatch.setattr(singular._ChainShooting, "solve", fail)
        scn = scenarios.ncenter_scenario(scenarios.square_centers(), E=0.5)
        chain = scn.chain([(0, 1), (1, 2), (2, 3), (3, 0)])
        (row,) = shadow_experiment(scn.dl, chain, [1e-3], alphas=scn.alphas)
        assert not row.converged and np.isnan(row.sup_error)
        assert row.reason == "SingularShadowError: no descent (|R| = 1.00e-03)"

    def test_collinear_head_on_rejected(self):
        scn = scenarios.ncenter_scenario([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], E=0.5)
        chain = scn.chain([(0, 1), (1, 0)])  # go and come straight back
        with pytest.raises(singular.SingularShadowError):
            shadow_experiment(scn.dl, chain, [1e-3], alphas=scn.alphas)


# ---------------------------------------------------------------------------
# Lockstep kernel and flights
# ---------------------------------------------------------------------------

SQUARE_DIRS = [np.array(u, dtype=float) for u in ((1, 0), (0, 1), (-1, 0), (0, -1))]


def square_perturbation(mu, mass=None):
    space = euclidean(2)
    return SingularPerturbation(ClassicalHamiltonian(space, mass=mass),
                                PointScatterer(space, scenarios.square_centers()), mu)


def square_shooter(mu):
    return singular._ChainShooting(square_perturbation(mu), [0, 1, 2, 3], SQUARE_DIRS, 0.5)


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
    """Rows near the square's centers (the first within 1e-3 of one), each with its own dt."""
    n = draw(st.integers(1, 12))
    Q, P, dt = [], [], []
    for i in range(n):
        center = scenarios.square_centers()[draw(st.integers(0, 3))]
        r = 10 ** draw(st.floats(-5, -3) if i == 0 else st.floats(-5, 0))
        ang = draw(st.floats(0, 2 * np.pi))
        Q.append(center + r * np.array([np.cos(ang), np.sin(ang)]))
        P.append(draw(st.lists(st.floats(-2, 2), min_size=2, max_size=2)))
        dt.append(10 ** draw(st.floats(-9, -1)))
    return np.array(Q), np.array(P), np.array(dt)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestLockstepKernel:
    @seed(20161018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(kernel_rows(), st.sampled_from([None, [[2.0, 0.3], [0.3, 1.0]]]))
    def test_batched_rows_equal_one_row_steps(self, rows, mass):
        Q, P, dt = rows
        sp = square_perturbation(1e-3, mass)
        kernel = singular._PointCenterKernel(sp)
        Qb, Pb = kernel.rk4(Q, P, dt)
        Db = kernel.distance(Q)
        for i in range(len(dt)):
            q1, p1 = kernel.rk4(Q[i:i + 1], P[i:i + 1], dt[i:i + 1])
            assert same_bits(Qb[i], q1[0]) and same_bits(Pb[i], p1[0])
            q_ref, p_ref = reference_rk4(sp, Q[i], P[i], float(dt[i]))
            assert same_bits(Qb[i], q_ref) and same_bits(Pb[i], p_ref)
            rel = Q[i][None, :] - sp.scatterer.points
            assert Db[i] == float(np.min(np.sqrt(np.einsum("ij,ij->i", rel, rel))))

    @pytest.mark.parametrize("kind", ["exclusion", "miss"])
    @seed(20161018)
    @settings(max_examples=2, deadline=None, database=None)
    @given(at=st.integers(0, 4))
    def test_failing_row_leaves_the_others_bit_equal(self, kind, at):
        shooter = square_shooter(1e-2)
        xi, p = shooter.unpack(shooter.predictor())
        good = [(j, xi[j], p[j]) for j in range(4)]
        # start on section 0 (the line x = y) outside the square's corner
        offset = -0.01 if kind == "exclusion" else -0.3
        q_bad = shooter.points[0] + offset * np.sqrt(0.5) * np.ones(2)
        xi_bad = shooter.bases[0].T @ (q_bad - shooter.defl[0].periapsis)
        # at rest: a near-radial fall into center 0; or moving away from the square
        p_bad = np.zeros(2) if kind == "exclusion" else -np.sqrt(0.5) * np.ones(2)
        bad = (0, xi_bad, p_bad)
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
        xi, p = shooter.unpack(shooter.predictor())
        rows = [(j, xi[j], p[j]) for j in range(4)]
        plain = shooter.fly_link(rows)
        for (q, pp, dmin, path), (j, xj, _), ref in zip(shooter.fly_link(rows, collect=True),
                                                        rows, plain):
            assert same_bits(path[0], shooter.node_state(j, xj))
            assert same_bits(path[-1], q) and same_bits(q, ref[0]) and dmin == ref[2]


def flaky_flights(failures, column):
    """fly_link that fails the plus row of one Jacobian column in its first calls."""
    orig = singular._ChainShooting.fly_link
    calls = []

    def fly(self, rows, collect=False):
        out = orig(self, rows, collect)
        if len(calls) < failures:
            # the first call flies every column; later calls only this one
            out[2 * column if not calls else 0] = singular.SingularShadowError("injected")
        calls.append(len(rows))
        return out

    return mock.patch.object(singular._ChainShooting, "fly_link", fly), calls


class TestJacobianRetry:
    @seed(20161018)
    @settings(max_examples=2, deadline=None, database=None)
    @given(st.integers(0, 11), st.integers(1, 3))
    def test_retry_yields_the_quarter_step_column(self, column, failures):
        shooter = square_shooter(1e-2)
        U = shooter.predictor()
        J_ref = shooter.jacobian(U)
        J_small = shooter.jacobian(U, fd_rel=1e-7 * 0.25**failures)
        patch, calls = flaky_flights(failures, column)
        with patch:
            J = shooter.jacobian(U)
        assert calls == [24] + [2] * failures
        others = np.arange(12) != column
        assert same_bits(J[:, column], J_small[:, column])
        assert same_bits(J[:, others], J_ref[:, others])

    def test_four_failures_give_up(self):
        shooter = square_shooter(1e-2)
        patch, calls = flaky_flights(4, 7)
        with patch, pytest.raises(singular.SingularShadowError,
                                  match="finite differences infeasible at node 2"):
            shooter.jacobian(shooter.predictor())
        assert calls == [24, 2, 2, 2]
