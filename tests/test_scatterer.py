import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from shadowbilliards.dynamics import euclidean, flat_torus
from shadowbilliards.scatterer import (ChartScatterer, DiagonalScatterer,
                                       PointScatterer, SphereChart)


def circle_chart():
    # curve psi(u) = (cos u, sin u, 0) in R^3
    return ChartScatterer(
        euclidean(3),
        lambda u: np.array([np.cos(u[0]), np.sin(u[0]), 0.0]),
        lambda u: np.array([[-np.sin(u[0])], [np.cos(u[0])], [0.0]]),
        dim=1, tube_radius=0.5)


class TestFrames:
    def test_point_set_frames(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0]])
        tan, nor = scat.frames(0)
        assert tan.shape == (2, 0)
        assert np.allclose(nor, np.eye(2))

    def test_diagonal_frames(self):
        scat = DiagonalScatterer(euclidean(4))
        tan, nor = scat.frames(np.array([0.3, 0.7]))
        # tangent spanned by (e, e)/sqrt(2); normal by (e, -e)/sqrt(2)
        s = 1 / np.sqrt(2)
        expect_tan = np.array([[s, 0], [0, s], [s, 0], [0, s]])
        expect_nor = np.array([[s, 0], [0, s], [-s, 0], [0, -s]])
        assert np.allclose(tan, expect_tan, atol=1e-12)
        assert np.allclose(nor, expect_nor, atol=1e-12)

    def test_diagonal_frames_shared_and_read_only(self):
        scat = DiagonalScatterer(euclidean(4))
        tan, nor = scat.frames(np.array([0.3, 0.7]))
        assert scat.frames(np.array([-2.0, 5.0]))[1] is nor
        with pytest.raises(ValueError):
            nor[0, 0] = 1.0
        assert not tan.flags.writeable

    def test_curve_chart_frames(self):
        # Gram-Schmidt oracle at u = 0: tangent (0,1,0); normals (1,0,0), (0,0,1)
        scat = circle_chart()
        tan, nor = scat.frames(np.array([0.0]))
        assert np.allclose(tan[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(nor[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(nor[:, 1]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_orthonormality_and_continuity(self):
        scat = circle_chart()
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.uniform(-3, 3, size=1)
            tan, nor = scat.frames(u)
            frame = np.hstack([tan, nor])
            assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
        delta = 1e-5
        t0, n0 = scat.frames(np.array([0.4]))
        t1, n1 = scat.frames(np.array([0.4 + delta]))
        assert np.max(np.abs(t1 - t0)) < 10 * delta
        assert np.max(np.abs(n1 - n0)) < 10 * delta


class TestTubePoint:
    def test_point_set(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0]])
        q = scat.tube_point(0, np.array([1.0, 0.0]), 0.01)
        assert np.allclose(q, [0.01, 0.0])

    def test_zero_radius(self):
        scat = circle_chart()
        x = np.array([0.3])
        assert np.allclose(scat.tube_point(x, np.array([1.0, 0.0]), 0.0), scat.embed(x))

    def test_diagonal_separation(self):
        # bodies move apart by eps * sqrt(2) along the factor direction
        scat = DiagonalScatterer(euclidean(2))
        eps = 0.05
        q = scat.tube_point(np.array([0.4]), np.array([1.0]), eps)
        assert q[0] - q[1] == pytest.approx(eps * np.sqrt(2.0), rel=1e-12)

    def test_cross_section_membership_enforced(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0]])
        with pytest.raises(ValueError):
            scat.boundary_point(0, np.array([2.0, 0.0]), 0.1)


class TestNearest:
    def test_point_distance(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0]])
        res = scat.nearest(np.array([3.0, 4.0]))
        assert res.distance == pytest.approx(5.0)
        assert res.x == 0

    def test_diagonal_projection(self):
        scat = DiagonalScatterer(euclidean(2))
        q = np.array([0.2, 0.6])
        res = scat.nearest(q)
        assert res.distance == pytest.approx(abs(q[0] - q[1]) / np.sqrt(2), rel=1e-12)
        # first-order optimality of the projection
        tan, _ = scat.frames(res.x)
        assert abs((q - scat.embed(res.x)) @ tan[:, 0]) < 1e-10

    def test_on_scatterer(self):
        scat = DiagonalScatterer(euclidean(2))
        assert scat.nearest(np.array([0.3, 0.3])).distance == pytest.approx(0.0, abs=1e-15)

    def test_ambiguous_projection_flagged(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0], [2.0, 0.0]])
        assert scat.nearest(np.array([1.0, 0.7])).ambiguous
        assert not scat.nearest(np.array([0.2, 0.0])).ambiguous

    def test_chart_gauss_newton(self):
        scat = circle_chart()
        q = np.array([1.2 * np.cos(0.5), 1.2 * np.sin(0.5), 0.3])
        res = scat.nearest(q, x0=np.array([0.4]))
        r = q - scat.embed(res.x)
        tan, _ = scat.frames(res.x)
        assert abs(r @ tan[:, 0]) < 1e-10

    def test_torus_images(self):
        scat = PointScatterer(flat_torus([1.0, 1.0]), [[0.0, 0.0]])
        assert scat.nearest(np.array([0.9, 0.0])).distance == pytest.approx(0.1, rel=1e-12)


class TestTubularNeighborhood:
    def test_tube_point_inverts_through_nearest(self):
        scat = circle_chart()
        rng = np.random.default_rng(3)
        for _ in range(8):
            u = rng.uniform(0, 2 * np.pi, size=1)
            s = rng.normal(size=2)
            s /= np.linalg.norm(s)
            eps = 0.05
            q = scat.tube_point(u, s, eps)
            res = scat.nearest(q, x0=u)
            assert res.distance == pytest.approx(eps, rel=1e-9)
            assert np.allclose(scat.embed(res.x), scat.embed(u), atol=1e-9)

    def test_declared_radius_point_set(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0], [1.0, 0.0]])
        assert scat.declared_tube_radius() == pytest.approx(0.5)


class TestSphereChart:
    def test_roundtrip(self):
        chart = SphereChart(np.array([0.0, 0.0, 1.0]))
        sigma = np.array([0.3, -0.2])
        s = chart.value(sigma)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(chart.invert(s), sigma, atol=1e-12)

    def test_jacobian_tangency(self):
        chart = SphereChart(np.array([1.0, 1.0]) / np.sqrt(2))
        J = chart.jacobian(np.array([0.1]))
        s = chart.value(np.array([0.1]))
        assert abs(s @ J[:, 0]) < 1e-12


class TestChartJacobianFallback:
    @seed(20160617)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2).map(np.array))
    def test_central_differences_match_analytic(self, u):
        # surface psi(u) = (cos u0, sin u0, u1 / 2, u0 u1) in R^4, no jac given
        scat = ChartScatterer(
            euclidean(4),
            lambda x: np.array([np.cos(x[0]), np.sin(x[0]), 0.5 * x[1], x[0] * x[1]]),
            dim=2)
        exact = np.array([[-np.sin(u[0]), 0.0], [np.cos(u[0]), 0.0],
                          [0.0, 0.5], [u[1], u[0]]])
        assert np.allclose(scat.jacobian(u), exact, rtol=0, atol=1e-7)
