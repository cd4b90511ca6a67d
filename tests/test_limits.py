"""Outer limits along approach paths and pointwise cone estimates."""

import numpy as np
import pytest

from infcone import dsl
from infcone.cones import Status, cone_distance, contains_direction
from infcone.limits import (ApproachSpec, contingent_cone, divergent,
                            frechet_normal_cone, limiting_normal_cone,
                            normal_cone_at_infinity_total, outer_limit,
                            tail_levels)
from infcone.sets import ClosedSet, SetError


def synthetic_approach(dim=2, levels=10):
    def sampler(j):
        return np.full((5, dim), float(j + 1))
    return ApproachSpec(dim, sampler, levels)


class TestOuterLimit:
    def test_persistent_direction(self, fast_cfg):
        e1 = np.array([[1.0, 0.0]])
        res = outer_limit(lambda j, P: e1, synthetic_approach(), fast_cfg)
        assert res.cone.status == Status.RAYS
        assert contains_direction(res.cone, e1[0], 1e-6)
        assert res.converged
        assert res.persistence and len(res.persistence[0]) >= \
            fast_cfg.persistence_window

    def test_flicker_is_dropped(self, fast_cfg):
        e1 = np.array([[1.0, 0.0]])
        empty = np.zeros((0, 2))

        def field(j, P):
            return e1 if j % 2 == 0 else empty

        res = outer_limit(field, synthetic_approach(), fast_cfg)
        assert res.cone.is_zero
        assert not res.converged
        assert res.diagnostics["flicker"]

    def test_no_samples_is_empty(self, fast_cfg):
        ap = ApproachSpec(2, lambda j: np.zeros((0, 2)), 10)
        res = outer_limit(lambda j, P: P, ap, fast_cfg)
        assert res.cone.is_empty

    def test_vanishing_tail_is_zero(self, fast_cfg):
        # samples keep coming but the field dies off after shell 3
        e1 = np.array([[1.0, 0.0]])

        def field(j, P):
            return e1 if j <= 3 else np.zeros((0, 2))

        res = outer_limit(field, synthetic_approach(), fast_cfg)
        assert res.cone.is_zero

    def test_full_flag_carries_sphere(self, fast_cfg):
        def field(j, P):
            return {"dirs": np.zeros((0, 2)), "full": True}

        res = outer_limit(field, synthetic_approach(), fast_cfg)
        assert res.cone.status == Status.RAYS
        for d in ([1.0, 0.0], [0.0, -1.0], [-0.6, 0.8]):
            assert contains_direction(res.cone, np.array(d), 0.05)

    def test_thread_count_does_not_change_result(self, fast_cfg):
        rot = np.array([[np.cos(0.004), np.sin(0.004)]])
        a = outer_limit(lambda j, P: rot, synthetic_approach(), fast_cfg)
        b = outer_limit(lambda j, P: rot, synthetic_approach(),
                        fast_cfg.replace(threads=8))
        assert cone_distance(a.cone, b.cone) == 0.0
        assert a.converged == b.converged


class TestTailOnly:
    def test_tail_levels(self):
        assert tail_levels(10, 4) == range(6, 10)
        assert tail_levels(2, 4) == range(0, 2)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_samples_only_the_shells_read(self, fast_cfg, threads):
        # window 3: the cone reads shells 7-9, the drift test shells 6-8
        assert fast_cfg.persistence_window == 3
        calls = []

        def sampler(j):
            calls.append(j)
            return np.full((5, 2), float(j + 1))

        e1 = np.array([[1.0, 0.0]])
        res = outer_limit(lambda j, P: e1, ApproachSpec(2, sampler, 10),
                          fast_cfg.replace(threads=threads))
        assert sorted(calls) == [6, 7, 8, 9]
        assert res.diagnostics["samples_per_shell"] == [0] * 6 + [5] * 4
        assert res.persistence == [[6, 7, 8, 9]]
        assert res.shells_used == 10
        assert res.cone.status == Status.RAYS and res.converged


def make_set(text, dim, name="S"):
    return ClosedSet(dim, pred=dsl.parse_predicate(text, dim), name=name)


class TestPointwiseCones:
    def test_halfplane_normal(self, fast_cfg):
        s = make_set("v1 <= 0", 2)
        n = frechet_normal_cone(s, np.array([0.0, 1.0]), fast_cfg)
        assert n.status == Status.RAYS
        assert contains_direction(n, np.array([1.0, 0.0]), 0.02)
        assert not contains_direction(n, np.array([0.0, 1.0]), 0.1)

    def test_interior_normal_is_zero(self, fast_cfg):
        s = make_set("v1 <= 0", 2)
        assert limiting_normal_cone(s, np.array([-1.0, 0.0]),
                                    fast_cfg).is_zero

    def test_contingent_halfplane(self, fast_cfg):
        s = make_set("v1 <= 0", 2)
        t = contingent_cone(s, np.array([0.0, 0.0]), fast_cfg)
        for d in ([-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            assert contains_direction(t, np.array(d), 0.05)
        assert not contains_direction(t, np.array([1.0, 0.0]), 0.05)

    def test_limiting_on_cross(self, fast_cfg):
        # union of the two axes: at the origin, limiting normals include
        # the normals of both branches
        s = make_set("v1 == 0 || v2 == 0", 2)
        n = limiting_normal_cone(s, np.zeros(2), fast_cfg)
        for d in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
            assert contains_direction(n, np.array(d), 0.1)

    def test_nonmember_rejected(self, fast_cfg):
        s = make_set("v1 <= 0", 2)
        with pytest.raises(SetError):
            limiting_normal_cone(s, np.array([1.0, 0.0]), fast_cfg)


class TestAtInfinity:
    def test_total_cone_of_line(self, fast_cfg):
        s = make_set("v2 == 0", 2, "Line")
        res = normal_cone_at_infinity_total(s, fast_cfg)
        assert res.cone.status == Status.RAYS
        assert contains_direction(res.cone, np.array([0.0, 1.0]), 0.05)
        assert contains_direction(res.cone, np.array([0.0, -1.0]), 0.05)
        assert not contains_direction(res.cone, np.array([1.0, 0.0]), 0.1)


class TestDivergent:
    def test_zerounionray_seed1_suprema(self):
        # wellposed-zerounionray at seed 1: the ratio is about |x| / 0.01,
        # so the worst radii grow with the suprema
        sups = (239744.0, 509530.0, 780718.0)
        assert divergent([None] + [(s, s / 100.0) for s in sups])

    def test_constant_sup_not_divergent(self):
        r = 1280.0
        assert not divergent([(50.0, 1.9 * r), (50.0, 2.1 * r),
                              (50.0, 4.1 * r)])

    def test_too_few_sampled_shells(self):
        assert not divergent([None, (20.0, 10.0), None, (1e6, 1e4), None])

