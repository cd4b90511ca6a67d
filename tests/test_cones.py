"""Cone arithmetic: canonical forms, polars, graph-space slices."""

import math

import numpy as np
import pytest

from infcone.cones import (ConeError, HSlice, INF, RayCone, Status,
                           angle_between, canonicalize, cone_distance,
                           cone_intersect, cone_negate, cone_sum,
                           contains_direction, dedup_directions, hmap_kernel,
                           hslice_distance, in_convex_cone, phm_norm,
                           polar_cone, slice_hmap)


def rays(*vecs):
    return canonicalize(np.array(vecs, dtype=float), len(vecs[0]),
                        nonempty=True)


class TestCanonical:
    def test_dedup_merges_close_directions(self):
        d = np.array([[1.0, 0.0], [math.cos(0.001), math.sin(0.001)],
                      [0.0, 1.0]])
        out = dedup_directions(d, 0.01)
        assert len(out) == 2

    def test_zero_input_gives_zero_cone(self):
        c = canonicalize(np.zeros((0, 3)), 3, nonempty=True)
        assert c.is_zero

    def test_json_roundtrip(self):
        c = rays([1.0, 0.0], [0.0, -1.0])
        again = RayCone.from_json(c.to_json())
        assert cone_distance(c, again) == 0.0


class TestConeOps:
    def test_distance_symmetric(self):
        a = rays([1.0, 0.0])
        b = rays([0.0, 1.0])
        assert cone_distance(a, b) == pytest.approx(math.pi / 2.0)
        assert cone_distance(b, a) == pytest.approx(math.pi / 2.0)

    def test_sum_identity(self):
        c = rays([1.0, 1.0])
        z = RayCone.zero(2)
        assert cone_distance(cone_sum(c, z), c) <= 1e-6

    def test_sum_multi_ray_operands(self):
        # 2 + 3 rays: every pair mixes, giving the (k1, 21, k2, dim) grid
        a = rays([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        b = rays([0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
        assert len(b.rays) == 3
        s = cone_sum(a, b)
        assert s.status == Status.RAYS
        for d in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                  [1.0, 0.0, 2.0]):
            assert contains_direction(s, np.array(d) / np.linalg.norm(d),
                                      0.05)
        assert not contains_direction(s, np.array([-1.0, 0.0, 0.0]), 0.05)

    def test_empty_propagates(self):
        e = RayCone.empty(2)
        assert cone_sum(e, rays([1.0, 0.0])).is_empty

    def test_intersect_halves(self):
        quad = rays([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])
        right = rays([1.0, 0.0], [1.0, -1.0], [1.0, 1.0])
        meet = cone_intersect(quad, right, 0.02)
        assert meet.status == Status.RAYS
        assert contains_direction(meet, np.array([1.0, 0.0]), 0.05)
        assert not contains_direction(meet, np.array([0.0, 1.0]), 0.05)

    def test_negate(self):
        c = cone_negate(rays([1.0, 0.0]))
        assert contains_direction(c, np.array([-1.0, 0.0]), 1e-6)


class TestPolar:
    def test_polar_of_halfline(self):
        p = polar_cone(rays([1.0, 0.0]))
        # polar of a single ray is a halfplane: (-1, 0) and (0, +-1) in it
        for d in ([-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            assert contains_direction(p, np.array(d), 0.01)
        assert not contains_direction(p, np.array([1.0, 0.0]), 0.05)

    def test_double_polar_is_convex_hull(self):
        c = rays([1.0, 0.0], [0.0, 1.0])
        dd = polar_cone(polar_cone(c))
        # double polar = convex conic hull: contains the diagonal
        assert contains_direction(dd, np.array([1.0, 1.0]) / math.sqrt(2),
                                  2.0 * dd.resolution)
        assert not contains_direction(dd, np.array([-1.0, 0.0]), 0.05)

    def test_polar_of_zero_is_everything(self):
        p = polar_cone(RayCone.zero(2))
        assert contains_direction(p, np.array([0.3, -0.8]) /
                                  np.linalg.norm([0.3, -0.8]), 0.01)

    def test_polar_of_empty_rejected(self):
        with pytest.raises(ConeError):
            polar_cone(RayCone.empty(2))


class TestSlices:
    def cone36iii(self):
        # graph-space cone of the projection map (x1, x2) -> x1
        s = 1.0 / math.sqrt(2.0)
        return rays([s, 0.0, -s], [-s, 0.0, s])

    def test_slice_points(self):
        sl = slice_hmap(self.cone36iii(), np.array([2.0]), 0.01, 1)
        assert not sl.empty
        d = min(np.linalg.norm(p - np.array([2.0, 0.0])) for p in sl.points)
        assert d <= 1e-9

    def test_slice_positive_homogeneity(self):
        g = self.cone36iii()
        for lam in (0.5, 2.0, 7.0):
            a = slice_hmap(g, np.array([lam]), 0.01, 1)
            b = slice_hmap(g, np.array([1.0]), 0.01, 1)
            d = hslice_distance(a, HSlice(2, points=[lam * p
                                                    for p in b.points]))
            assert d <= 1e-9

    def test_slice_zero_contains_origin(self):
        sl = slice_hmap(self.cone36iii(), np.array([0.0]), 0.01, 1)
        assert any(np.linalg.norm(p) < 1e-12 for p in sl.points)

    def test_horizontal_ray_is_recession(self):
        # b-part zero: the ray shows up as a recession in every slice
        g = rays([1.0, 0.0, 0.0])
        sl = slice_hmap(g, np.array([3.0]), 0.01, 1)
        assert len(sl.points) == 0 and len(sl.recessions) == 1
        sl0 = slice_hmap(g, np.array([0.0]), 0.01, 1)
        assert len(sl0.recessions) == 1

    def test_kernel(self):
        # ray (0, -1): 0 in slice(1), so kernel contains +1
        g = rays([0.0, -1.0])
        ker = hmap_kernel(g, 1)
        assert ker.status == Status.RAYS
        assert contains_direction(ker, np.array([1.0]), 0.01)

    def test_phm_norm(self):
        s = 1.0 / math.sqrt(5.0)
        g = rays([2.0 * s, -s])
        assert phm_norm(g, 1) == pytest.approx(2.0, rel=1e-9)
        assert phm_norm(rays([1.0, 0.0]), 1) == INF

    def test_empty_slice_rejected(self):
        with pytest.raises(ConeError):
            slice_hmap(RayCone.empty(2), np.array([1.0]), 0.01, 1)


class TestMisc:
    def test_angle_between(self):
        assert angle_between([1.0, 0.0], [0.0, 2.0]) == \
            pytest.approx(math.pi / 2)

    def test_in_convex_cone(self):
        gens = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert in_convex_cone(gens, np.array([0.5, 0.5]))
        assert not in_convex_cone(gens, np.array([-1.0, 0.0]))

    def test_hslice_distance_mismatch(self):
        a = HSlice(2, points=[np.zeros(2)])
        b = HSlice.make_empty(2)
        assert hslice_distance(a, b) == INF
