"""Metamorphic relations of the normal cones at infinity.

Each transform changes the set in a way whose effect on its cones is
exact: scaling the constraint function g or repeating a piece of the
union leaves the set alone, and a reflection or a permutation of
coordinates maps the cone's rays the same way.  The sampled cones are
compared within 2 * ang_tol, the tolerance outer_limit's own convergence
test allows between two estimates.
"""

import numpy as np
import pytest

from infcone import dsl
from infcone.cones import RayCone, Status, cone_distance
from infcone.config import RunConfig
from infcone.limits import (normal_cone_at_infinity,
                            normal_cone_at_infinity_total)
from infcone.sets import ClosedSet

SEEDS = (0, 1, 42)


def make_set(text, dim, name, split=None):
    return ClosedSet(dim, pred=dsl.parse_predicate(text, dim), split=split,
                     name=name)


def planar_cones(text, ybars, cfg, name):
    """Cones at infinity at each value window ybar, then the total cone."""
    S = make_set(text, 2, name, split=(1, 1))
    out = [normal_cone_at_infinity(S, [y], cfg).cone for y in ybars]
    out.append(normal_cone_at_infinity_total(make_set(text, 2, name),
                                             cfg).cone)
    return out


def mapped(cone, f):
    """The cone with f applied to its rays."""
    if cone.status != Status.RAYS:
        return cone
    return RayCone(cone.dim, Status.RAYS, f(cone.rays), cone.resolution)


def assert_same(got, want, cfg):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert cone_distance(a, b) <= 2.0 * cfg.ang_tol, (a, b)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, text, scaled", [
    ("ExpEpigraph", "v2 >= exp(v1)", "3 * v2 >= 3 * exp(v1)"),
    ("CuspRegion", "v1^2 * v2 >= 1", "2 * (v1^2 * v2) >= 2"),
])
def test_scaling_g_keeps_the_cones(seed, name, text, scaled):
    cfg = RunConfig(seed=seed)
    assert_same(planar_cones(scaled, (0, 1, 2), cfg, name),
                planar_cones(text, (0, 1, 2), cfg, name), cfg)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, text, reflected, sign", [
    ("ExpEpigraph", "v2 >= exp(v1)", "v2 >= exp(-v1)", (-1.0, 1.0)),
    ("CuspRegion", "v1^2 * v2 >= 1", "v1^2 * (-v2) >= 1", (1.0, -1.0)),
])
def test_reflection_reflects_the_cones(seed, name, text, reflected, sign):
    cfg = RunConfig(seed=seed)
    ybars = np.array([0.0, 1.0, 2.0])
    got = planar_cones(reflected, ybars * sign[1], cfg, name)
    assert_same([mapped(c, lambda r: r * sign) for c in got],
                planar_cones(text, ybars, cfg, name), cfg)


def permuted_total_cones(name, cfg):
    """Total cones of {v3 >= exp(v1)} and of its image {v1 >= exp(v2)}
    under x -> (x3, x1, x2), the image's rays mapped back."""
    base = normal_cone_at_infinity_total(
        make_set("v3 >= exp(v1)", 3, name), cfg).cone
    perm = normal_cone_at_infinity_total(
        make_set("v1 >= exp(v2)", 3, name), cfg).cone
    return mapped(perm, lambda r: r[:, [1, 2, 0]]), base


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_coordinates_permutes_the_total_cone(seed):
    cfg = RunConfig(seed=seed)
    got, want = permuted_total_cones("ExpCylinder", cfg)
    assert_same([got], [want], cfg)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the permuted set keeps the ray along its escaping exp "
    "branch on few sampled rows; under these labels it loses it (at the "
    "parent of tail-only sampling too)"))
def test_permutation_thin_exp_branch():
    cfg = RunConfig(seed=42)
    got, want = permuted_total_cones("Cyl", cfg)
    assert_same([got], [want], cfg)


@pytest.mark.parametrize("seed", [
    0, 2, 42,
    pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=(
        "sampler margin, not the field: the last tail shell of the "
        "duplicated set holds one right-branch row (v1 > 1), and it lies "
        "off the boundary (|g| about 1.0 of its scale), so no active "
        "generator gives the ray near (1, 0); the thin exp branch of "
        "test_permutation_thin_exp_branch"))),
])
def test_duplicating_a_piece_keeps_the_cones(seed):
    # the union of a set with itself is the set: every multi-piece row
    # meets two equal cones, so the meet is the one-piece cone
    cfg = RunConfig(seed=seed)
    assert_same(planar_cones("v2 >= exp(v1) || v2 >= exp(v1)", (0, 1, 2),
                             cfg, "ExpEpigraph"),
                planar_cones("v2 >= exp(v1)", (0, 1, 2), cfg,
                             "ExpEpigraph"), cfg)
