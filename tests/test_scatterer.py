import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from shadowbilliards.dynamics import euclidean, flat_torus
from shadowbilliards.scatterer import DiagonalScatterer, PointScatterer, SphereChart


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


class TestTubePoint:
    def test_point_set(self):
        scat = PointScatterer(euclidean(2), [[0.0, 0.0]])
        q = scat.tube_point(0, np.array([1.0, 0.0]), 0.01)
        assert np.allclose(q, [0.01, 0.0])

    def test_zero_radius(self):
        points = PointScatterer(euclidean(2), [[0.0, 0.0], [0.3, -0.2]])
        assert np.array_equal(points.tube_point(1, np.array([0.6, 0.8]), 0.0), points.embed(1))
        diagonal = DiagonalScatterer(euclidean(4))
        x = np.array([0.3, -0.7])
        assert np.array_equal(diagonal.tube_point(x, np.array([0.6, 0.8]), 0.0),
                              diagonal.embed(x))

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

    def test_torus_images(self):
        scat = PointScatterer(flat_torus([1.0, 1.0]), [[0.0, 0.0]])
        assert scat.nearest(np.array([0.9, 0.0])).distance == pytest.approx(0.1, rel=1e-12)


class TestTubularNeighborhood:
    def test_tube_point_inverts_through_nearest(self):
        # points near the torus seams: a tube point may lie across a seam, where
        # only a centered image of its point is eps away
        scat = PointScatterer(flat_torus([1.0, 1.0]), [[0.02, 0.5], [0.6, 0.98], [0.4, 0.2]])
        rng = np.random.default_rng(3)
        for _ in range(8):
            i = int(rng.integers(len(scat)))
            s = rng.normal(size=2)
            s /= np.linalg.norm(s)
            eps = 0.05
            q = scat.tube_point(i, s, eps)
            res = scat.nearest(q)
            assert res.x == i
            assert res.distance == pytest.approx(eps, rel=1e-9)

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

    @seed(20160617)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(2, 4), st.integers(0, 3), st.sampled_from([-1.0, 1.0]),
           st.floats(-12.0, -5.0), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_near_axis_center_has_a_tangent_basis(self, dim, axis, sign, exponent, direction):
        # a center 1e-12..1e-5 off a coordinate axis: d - 1 orthonormal columns
        # orthogonal to it (Gram-Schmidt once kept a spurious d-th column)
        axis %= dim
        off = np.array(direction[:dim])
        off[axis] = 0.0
        center = np.zeros(dim)
        center[axis] = sign
        if np.linalg.norm(off) > 0:
            center += 10.0**exponent * off / np.linalg.norm(off)
        chart = SphereChart(center)
        B = chart.basis
        assert B.shape == (dim, dim - 1)
        assert np.allclose(B.T @ B, np.eye(dim - 1), rtol=0, atol=1e-9)
        assert np.allclose(B.T @ chart.center, 0.0, rtol=0, atol=1e-9)
        sigma = np.full(dim - 1, 0.1)
        assert np.allclose(chart.invert(chart.value(sigma)), sigma, rtol=0, atol=1e-9)

