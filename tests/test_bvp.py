from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import CallablePotential, HarmonicPotential, central_diff
from shadowbilliards import bvp, dynamics, kepler
from shadowbilliards.dynamics import ClassicalHamiltonian, KeplerPotential, euclidean, flat_torus


def free_h(dim=2, mass=None):
    return ClassicalHamiltonian(euclidean(dim), mass=mass)


def torus_h():
    return ClassicalHamiltonian(flat_torus([1.0, 1.0]))


def straight_guess(h, qm, qp, E, direction=None, tau0=None):
    """The shooting start that the backend once made up itself: the momentum
    of speed sqrt(2 (E - W(q-))) along direction (the chord to q+ by
    default), and tau0 or else the chord's length over that speed."""
    qm, qp = np.asarray(qm, dtype=float), np.asarray(qp, dtype=float)
    chord = qm + h.space.displacement(qm, qp) - qm      # target - q-, as the backend formed it
    direction = chord if direction is None else np.asarray(direction, dtype=float)
    speed = np.sqrt(2.0 * max(E - h.potential.value(qm), 1e-12))
    p0 = h.mass @ (speed * direction / h.mass_norm(direction))
    if tau0 is None:
        tau0 = np.linalg.norm(chord) / max(np.sqrt(p0 @ h.mass_inv @ p0), 1e-12)
    return {"p0": p0, "tau0": tau0}


class TestConnect:
    def test_free_flight_unit(self):
        orb = bvp.connect(free_h(), [0.0, 0.0], [1.0, 0.0], 0.5)
        assert orb.action == pytest.approx(1.0, rel=1e-14)
        assert orb.tau == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(orb.p_minus, [1.0, 0.0])
        assert np.allclose(orb.p_plus, [1.0, 0.0])

    def test_torus_rotation_vector(self):
        orb = bvp.connect(torus_h(), np.zeros(2), np.zeros(2), 0.5, label=(3, 4))
        assert orb.action == pytest.approx(5.0, abs=1e-12)

    def test_kepler_refuses_coincident_endpoints(self):
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        with pytest.raises(kepler.FeasibilityError, match="degenerate chord"):
            bvp.connect(h, [1.0, 0.0], [1.0, 0.0], -0.5, label=(1, "short"))

    def test_kepler_refuses_zero_revolutions(self):
        # n = 0 is the simple arc, which no connect takes
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        with pytest.raises(ValueError, match="n = 0"):
            bvp.connect(h, [0.8, 0.0], [0.0, 0.9], -0.6, label=(0, "short"))

    def test_energy_on_boundary(self):
        for orb in (bvp.connect(free_h(), [0, 0], [0.3, 0.4], 2.0),
                    bvp.connect(torus_h(), np.zeros(2), np.zeros(2), 0.5, label=(1, 0))):
            h = orb.h
            assert abs(h.energy(orb.path[0], orb.p_minus) - orb.E) <= 1e-8
            assert abs(h.energy(orb.path[-1], orb.p_plus) - orb.E) <= 1e-8

    def test_off_shell_orbit_names_its_energy_miss(self):
        # H = 0.5 at q- and 0.605 at q+ against E = 0.5
        with pytest.raises(bvp.ConnectError,
                           match=r"\|H - E\| = 0\.000e\+00 at q-, 1\.050e-01 at q\+, "
                                 r"tolerance 1\.0e-08"):
            bvp.CollisionOrbit(free_h(), 0.5, [0.0, 0.0], [1.0, 0.0], 1.0, 1.0,
                               [1.0, 0.0], [1.1, 0.0], [[0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("p_minus, p_plus", [([np.nan, np.nan], [1.0, 0.0]),
                                                 ([1.0, 0.0], [np.nan, 0.0])])
    def test_nan_momentum_is_off_shell(self, p_minus, p_plus):
        # a nan energy miss at either end is refused, not passed as within tol
        with pytest.raises(bvp.ConnectError, match="violate the energy constraint"):
            bvp.CollisionOrbit(free_h(), 0.5, [0.0, 0.0], [1.0, 0.0], 1.0, 1.0,
                               p_minus, p_plus, [[0.0, 0.0], [1.0, 0.0]])

    def test_straight_backend_refuses_a_potential_before_any_flight(self, monkeypatch):
        def no_flight(*args, **kwargs):
            raise AssertionError("flew a straight chord")

        monkeypatch.setattr(dynamics, "_verlet_steps", no_flight)
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential(1.0))
        with pytest.raises(bvp.ConnectError, match="free flight"):
            bvp.connect(h, [0.1, 0.0], [0.0, 0.2], 1.0, backend="straight")

    def test_shooting_harmonic_quarter(self):
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        orb = bvp.connect(h, [1.0, 0.0], [0.0, 1.0], 1.0, backend="shooting",
                          guess=straight_guess(h, [1.0, 0.0], [0.0, 1.0], 1.0,
                                               [-0.2, 1.0], np.pi / 2))
        assert np.linalg.norm(orb.path[-1] - [0.0, 1.0]) < 1e-9

    def test_shooting_callable_potential(self):
        # the harmonic quarter orbit again, through a user potential applied per row
        pot = CallablePotential(lambda x: 0.5 * float(x @ x), grad=lambda x: x)
        h = ClassicalHamiltonian(euclidean(2), pot)
        orb = bvp.connect(h, [1.0, 0.0], [0.0, 1.0], 1.0, backend="shooting",
                          guess=straight_guess(h, [1.0, 0.0], [0.0, 1.0], 1.0,
                                               [-0.2, 1.0], np.pi / 2))
        assert np.linalg.norm(orb.path[-1] - [0.0, 1.0]) < 1e-9
        assert orb.tau == pytest.approx(np.pi / 2, rel=1e-3)

    def test_shooting_kepler_golden(self):
        # repr of the action summed in the accepted Newton flight of composed
        # Verlet; 6e-11 relative from the closed form 5.551623196096077
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        z = ([0.5, 0.0], [0.0, 0.6])
        arc = bvp.connect(h, z[0], z[1], -1.0, label=(1, "short"))
        shot = bvp.connect(h, z[0], z[1], -1.0, label=(1, "short"), backend="shooting",
                           guess={"p0": arc.p_minus, "tau0": arc.tau})
        assert repr(shot.action) == "5.5516231957548845"

    def test_shooting_needs_p0_and_tau0(self):
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        guess = straight_guess(h, [1.0, 0.0], [0.0, 1.0], 1.0)
        for partial in (None, {"p0": guess["p0"]}, {"tau0": guess["tau0"]}):
            with pytest.raises(ValueError, match="guess with p0 and tau0"):
                bvp.connect(h, [1.0, 0.0], [0.0, 1.0], 1.0, backend="shooting", guess=partial)

    def test_auto_without_a_closed_form_refused(self):
        # shooting is named, with its guess; auto picks closed forms only
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        with pytest.raises(ValueError, match="no closed-form backend"):
            bvp.connect(h, [1.0, 0.0], [0.0, 1.0], 1.0)

    def test_action_additivity(self):
        orb = bvp.connect(free_h(), [0, 0], [2.0, 1.0], 0.5)
        mid = orb.path[len(orb.path) // 2]
        s1 = bvp.connect(free_h(), orb.path[0], mid, 0.5).action
        s2 = bvp.connect(free_h(), mid, orb.path[-1], 0.5).action
        assert s1 + s2 == pytest.approx(orb.action, abs=1e-7)

    def test_reversed(self):
        # time reversal: the orbit from q+ to q- runs the same chord backwards
        orb = bvp.connect(free_h(), [0, 0], [1.0, 2.0], 0.5)
        rev = bvp.connect(free_h(), [1.0, 2.0], [0, 0], 0.5)
        assert rev.action == pytest.approx(orb.action, rel=1e-14)
        assert np.allclose(rev.p_minus, -orb.p_plus)


POINT = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2).map(np.array)
# distinct endpoints: equal ones have no chord to guess along and check nothing
ENDS = st.tuples(POINT, POINT).filter(lambda e: np.linalg.norm(e[1] - e[0]) > 1e-3)


class TestShootingConvergence:
    """A shooting connect that returns meets its tolerance when (p-, tau) is re-flown."""

    @seed(20161103)
    @settings(max_examples=25, deadline=None, database=None)
    @given(st.floats(0.3, 3.0), ENDS, st.floats(0.02, 1.5),
           st.sampled_from([None, [[2.0, 0.3], [0.3, 1.5]]]))
    def test_returned_connect_meets_tol(self, k, ends, excess, mass):
        # only a Newton failure (no descent step, or the iteration budget
        # spent) returns early: 22 of the 25 examples reach the asserts when
        # this file runs alone, 20 in the whole suite (Hypothesis mixes
        # constants of the loaded modules into its draws)
        qm, qp = ends
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential(k), mass=mass)
        E = max(h.potential.value(qm), h.potential.value(qp)) + excess
        tol, spu = bvp._SHOOT_TOL, 200.0
        try:
            with mock.patch.object(bvp, "_SHOOT_STEPS_PER_UNIT", spu):
                orb = bvp.connect(h, qm, qp, E, backend="shooting",
                                  guess=straight_guess(h, qm, qp, E))
        except bvp.ConnectError as exc:
            if "stalled" in str(exc) or "did not converge" in str(exc):
                return
            raise
        q_end, _ = bvp._flow_to(h, qm, orb.p_minus, orb.tau, spu)
        assert np.linalg.norm(q_end - qp) <= tol * max(1.0, np.linalg.norm(qp - qm))
        assert abs(h.energy(qm, orb.p_minus) - E) <= tol * max(1.0, abs(E))

    def test_converges_on_the_last_allowed_step(self, monkeypatch):
        # from 1.001 x the closed-form momentum Newton needs exactly 5 steps
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        qm, qp, E = [0.3, 0.0], [0.0, 0.31], -0.9
        arc = bvp.connect(h, qm, qp, E, label=(1, "short"))
        guess = {"p0": 1.001 * arc.p_minus, "tau0": arc.tau}
        monkeypatch.setattr(bvp, "_SHOOT_ITERS", 5)
        shot = bvp.connect(h, qm, qp, E, label=(1, "short"), backend="shooting",
                           guess=guess)
        assert np.linalg.norm(shot.path[-1] - qp) < 1e-4
        monkeypatch.setattr(bvp, "_SHOOT_ITERS", 4)
        with pytest.raises(bvp.ConnectError, match="did not converge"):
            bvp.connect(h, qm, qp, E, label=(1, "short"), backend="shooting",
                        guess=guess)

    def test_trial_flights_at_most_double_the_travel_time(self, monkeypatch):
        # 0.05 above the potential at q-: Newton steps here proposed travel
        # times over 30x the current one, flights of up to 10^5 steps
        fly, flown = bvp._flow_to, []

        def capped(h, q0, p0, tau, spu):
            assert not flown or tau <= 2 * max(flown), (tau, max(flown))
            flown.append(tau)
            return fly(h, q0, p0, tau, spu)

        monkeypatch.setattr(bvp, "_flow_to", capped)
        monkeypatch.setattr(bvp, "_SHOOT_STEPS_PER_UNIT", 50.0)
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential(2.0))
        qm, qp = np.array([-0.125, 0.628]), np.array([0.402, 0.0])
        E = h.potential.value(qm) + 0.05
        try:
            bvp.connect(h, qm, qp, E, backend="shooting", guess=straight_guess(h, qm, qp, E))
        except bvp.ConnectError:
            pass
        assert len(flown) > 2


@st.composite
def kepler_arcs(draw):
    """Endpoints at radius 0.25..0.8, 0.5..2.5 rad apart, and an energy E < 0
    whose ellipses reach them: 2a = -1/E exceeds the semiperimeter s."""
    r1, r2 = draw(st.floats(0.25, 0.8)), draw(st.floats(0.25, 0.8))
    th, gap = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.5, 2.5))
    qm = r1 * np.array([np.cos(th), np.sin(th)])
    qp = r2 * np.array([np.cos(th + gap), np.sin(th + gap)])
    s = 0.5 * (r1 + r2 + np.linalg.norm(qp - qm))
    return qm, qp, -draw(st.floats(0.6, 0.95)) / s


class TestShootingFlight:
    """The shooting orbit is the accepted Newton flight: its action and its end."""

    @seed(20161103)
    @settings(max_examples=10, deadline=None, database=None)
    @given(kepler_arcs())
    def test_action_matches_J_n_and_path_ends_at_q_plus(self, arc):
        qm, qp, E = arc
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        closed = bvp.connect(h, qm, qp, E, label=(1, "short"))
        tol = bvp._SHOOT_TOL
        shot = bvp.connect(h, qm, qp, E, label=(1, "short"), backend="shooting",
                           guess={"p0": closed.p_minus, "tau0": closed.tau})
        J = kepler.J_n(E, (qm, qp), 1)
        assert abs(shot.action - J) <= 1e-6 * J
        assert np.linalg.norm(shot.path[-1] - qp) <= tol * max(1.0, np.linalg.norm(qp - qm))

def reconnect(orbit, qm, qp):
    """The orbit's branch from qm to qp: bvp.connect with its Hamiltonian,
    energy and label, on the backend it was connected by (auto)."""
    return bvp.connect(orbit.h, qm, qp, orbit.E, label=orbit.label)


def momenta_deviation(orbit, step=1e-6):
    """Central differences of the action in the endpoints against -p-, +p+,
    relative to the larger boundary momentum."""
    gm = central_diff(lambda q: reconnect(orbit, q, orbit.q_plus).action, orbit.q_minus, step)
    gp = central_diff(lambda q: reconnect(orbit, orbit.q_minus, q).action, orbit.q_plus, step)
    scale = max(np.linalg.norm(orbit.p_minus), np.linalg.norm(orbit.p_plus))
    return max(np.linalg.norm(gm + orbit.p_minus), np.linalg.norm(gp - orbit.p_plus)) / scale


class TestBoundaryMomenta:
    """A connector's boundary momenta are the action gradient: dS = p+ dq+ - p- dq-."""

    def test_free_flight(self):
        orb = bvp.connect(free_h(), [0, 0], [1.0, 0.0], 0.5)
        assert momenta_deviation(orb) < 1e-7

    def test_torus_winding(self):
        orb = bvp.connect(torus_h(), np.zeros(2), np.zeros(2), 0.5, label=(1, 0))
        assert momenta_deviation(orb) < 1e-7

    def test_mass_metric(self):
        orb = bvp.connect(free_h(mass=[2.0, 3.0]), [0.1, -0.2], [0.7, 0.5], 1.3)
        assert momenta_deviation(orb) < 1e-7

    def test_reversal_negates_momenta(self):
        orb = bvp.connect(free_h(), [0, 0], [1.0, 1.0], 0.5)
        rev = bvp.connect(free_h(), [1.0, 1.0], [0, 0], 0.5)
        assert np.allclose(rev.p_minus, -orb.p_plus, atol=1e-12)
        assert rev.action == pytest.approx(orb.action, rel=1e-14)

    def test_kepler_arc(self):
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        orb = bvp.connect(h, [0.8, 0.0], [0.0, 0.9], -0.6, label=(1, "short"))
        assert momenta_deviation(orb) < 1e-5


class TestTwist:
    """The twist B = D_{q-} D_{q+} S of a straight chord is -chord_hessian."""

    def test_free_flight_formula(self):
        # analytic oracle: B = sqrt(2E) (u u^T - I) / ell
        E = 0.5
        orb = bvp.connect(free_h(), np.zeros(2), np.array([2.0, 0.0]), E)
        B = -bvp.chord_hessian(orb.h.mass, orb.chord, np.sqrt(2 * E))
        u = np.array([1.0, 0.0])
        expect = np.sqrt(2 * E) * (np.outer(u, u) - np.eye(2)) / 2.0
        assert np.allclose(B, expect, atol=1e-12)
        assert np.linalg.norm(B @ u) < 1e-12

    def test_degeneracy_directions(self):
        orb = bvp.connect(free_h(mass=[1.0, 4.0]), [0.0, 0.0], [1.0, 0.5], 0.8)
        B = bvp.chord_hessian(orb.h.mass, orb.chord, np.sqrt(2 * orb.E))
        vm, vp = orb.h.velocity(orb.q_minus, orb.p_minus), orb.h.velocity(orb.q_plus, orb.p_plus)
        Bn = np.linalg.norm(B)
        assert np.linalg.norm(B @ vm) <= 1e-12 * Bn * np.linalg.norm(vm)
        assert np.linalg.norm(B.T @ vp) <= 1e-12 * Bn * np.linalg.norm(vp)

    def test_fd_matches_analytic_on_mass_metric(self):
        h = free_h(mass=[1.0, 4.0])
        orb = bvp.connect(h, [0.0, 0.0], [1.0, 0.5], 0.8)
        step = 1e-5

        def mixed(i, j):
            ei, ej = step * np.eye(2)[i], step * np.eye(2)[j]
            S = [reconnect(orb, orb.q_minus + a * ei, orb.q_plus + b * ej).action
                 for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
            return (S[0] - S[1] - S[2] + S[3]) / (4 * step**2)

        numeric = np.array([[mixed(i, j) for j in range(2)] for i in range(2)])
        analytic = -bvp.chord_hessian(h.mass, orb.chord, np.sqrt(2 * orb.E))
        assert np.allclose(analytic, numeric, atol=1e-6)


class TestConjugate:
    def test_free_flight_nondegenerate(self):
        orb = bvp.connect(free_h(), [0, 0], [1.5, 0.2], 0.5)
        rep = bvp.conjugate_test(orb)
        assert rep.nondegenerate

    def test_harmonic_half_period_degenerate(self, monkeypatch):
        # all unit-energy orbits from q0 refocus at -q0 after time pi
        h = ClassicalHamiltonian(euclidean(2), HarmonicPotential())
        orb = bvp.connect(h, [0.5, 0.0], [-0.5, 0.0], 1.0, backend="shooting",
                          guess=straight_guess(h, [0.5, 0.0], [-0.5, 0.0], 1.0,
                                               [0.0, 1.0], np.pi))
        monkeypatch.setattr(bvp, "_CONJ_TOL", 1e-4)
        rep = bvp.conjugate_test(orb)
        assert not rep.nondegenerate

    def test_kepler_sigma_min_golden(self):
        # repr of the value flown by composed Verlet at 500 steps per unit time
        h = ClassicalHamiltonian(euclidean(2), KeplerPotential())
        orb = bvp.connect(h, [0.5, 0.0], [0.0, 0.6], -1.0, label=(1, "short"))
        assert repr(bvp.conjugate_test(orb).sigma_min) == "0.23331932661619273"
