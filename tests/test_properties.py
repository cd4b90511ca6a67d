"""Property-based checks for the cone algebra, scalarization and the
limit-point primitive."""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from infcone import cones, dsl
from infcone.cones import (canonicalize, cone_distance, contains_direction,
                           dedup_directions, in_convex_cone, polar_cone,
                           slice_hmap, hslice_distance, HSlice)
from infcone.config import RunConfig
from infcone.limits import (_first_seen, _match_matrix, _tail_runs,
                            limit_points)
from infcone.optimality import OrderingCone, scalarize
from infcone.sets import _choose_columns, _interleave

CFG = RunConfig(shells=4, samples_per_shell=200, probes_per_level=40)
ORTHANT = OrderingCone([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])

SLOW = settings(max_examples=25, deadline=None)
unit_angle = st.floats(min_value=0.0, max_value=2.0 * math.pi,
                       allow_nan=False)
coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                  allow_infinity=False)


def dirs_from_angles(angles):
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


@SLOW
@given(st.lists(unit_angle, min_size=1, max_size=6))
def test_canonicalize_idempotent(angles):
    c = canonicalize(dirs_from_angles(angles), 2, nonempty=True)
    again = canonicalize(c.rays, 2, nonempty=True) if len(c.rays) else c
    assert cone_distance(c, again) <= 1e-7


@SLOW
@given(st.lists(unit_angle, min_size=1, max_size=6))
def test_dedup_separation(angles):
    out = dedup_directions(dirs_from_angles(angles), 0.05)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert float(out[i] @ out[j]) < math.cos(0.05) + 1e-12


@SLOW
@given(st.lists(unit_angle, min_size=1, max_size=4))
def test_polar_pairing_nonpositive(angles):
    c = canonicalize(dirs_from_angles(angles), 2, nonempty=True)
    p = polar_cone(c)
    if c.rays is None or len(c.rays) == 0 or p.status != "rays":
        return
    # every polar ray pairs nonpositively (up to grid slack) with the cone
    sup = float(np.max(p.rays @ c.rays.T))
    assert sup <= math.sin(2.0 * p.resolution) + 1e-9


@SLOW
@given(st.lists(unit_angle, min_size=1, max_size=3),
       st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1,
                max_size=3))
def test_convex_cone_closed_under_combinations(angles, weights):
    G = dirs_from_angles(angles)
    k = min(len(G), len(weights))
    x = np.sum(G[:k] * np.array(weights[:k])[:, None], axis=0)
    if np.linalg.norm(x) < 1e-9:
        return
    assert in_convex_cone(G, x, 1e-6)


@SLOW
@given(unit_angle, st.floats(min_value=0.1, max_value=10.0))
def test_slice_homogeneity(angle, lam):
    # graph-space ray cone in R^1 x R^1: slice(lam*v) = lam*slice(v)
    g = canonicalize(dirs_from_angles([angle]), 2, nonempty=True)
    a = slice_hmap(g, np.array([lam]), 0.01, 1)
    b = slice_hmap(g, np.array([1.0]), 0.01, 1)
    if b.empty:
        assert a.empty
        return
    scaled = HSlice(1, points=[lam * p for p in b.points],
                    recessions=list(b.recessions))
    assert hslice_distance(a, scaled) <= 1e-6 * (1.0 + lam)


@SLOW
@given(coord, coord, coord, coord)
def test_scalarize_lipschitz(y1, y2, z1, z2):
    y = np.array([y1, y2])
    z = np.array([z1, z2])
    fy = scalarize(ORTHANT, ORTHANT.e, y, CFG)
    fz = scalarize(ORTHANT, ORTHANT.e, z, CFG)
    gap = float(np.linalg.norm(y - z))
    # phi = max(y1, y2): 1-Lipschitz up to the slack of the sampled polar,
    # whose rays reach a grid step past K+
    assert abs(fy - fz) <= gap + 0.02 * (1.0 + np.linalg.norm(y)
                                         + np.linalg.norm(z))


@SLOW
@given(coord, coord)
def test_scalarize_sign_is_interior_membership(y1, y2):
    y = np.array([y1, y2])
    phi = scalarize(ORTHANT, ORTHANT.e, y, CFG)
    exact = max(y1, y2)
    assert abs(phi - exact) <= 0.02 * (1.0 + np.linalg.norm(y))
    if exact < -0.1:
        assert phi < 0.0  # strictly inside -K
    if exact > 0.1:
        assert phi > 0.0


@SLOW
@given(st.lists(st.tuples(coord, coord), min_size=1, max_size=20))
def test_predicate_status_matches_sign(pts):
    pred = dsl.parse_predicate("v1 >= v2", 2)
    P = np.array(pts, dtype=float)
    st_ = dsl.eval_predicate(pred, P, 1e-9)
    for row, s in zip(P, np.atleast_1d(st_)):
        g = row[0] - row[1]
        if g > 1e-6:
            assert s == dsl.INSIDE
        elif g < -1e-6:
            assert s == dsl.OUTSIDE


@SLOW
@given(st.lists(unit_angle, min_size=1, max_size=3))
def test_double_polar_contains_generators(angles):
    c = canonicalize(dirs_from_angles(angles), 2, nonempty=True)
    dd = polar_cone(polar_cone(c))
    if c.status != "rays":
        return
    for r in c.rays:
        assert dd.status == "rays" and \
            contains_direction(dd, r, 4.0 * dd.resolution + 0.01)


def greedy_cluster(rows, mesh):
    """Reference: first-seen clustering with a test against every rep."""
    reps = []
    for r in rows:
        if not any(np.linalg.norm(r - q) <= mesh for q in reps):
            reps.append(np.asarray(r, dtype=float))
    return reps


def greedy_persistent(shell_rows, mesh, window):
    """Reference: pooled tail reps matched within 2*mesh in every shell."""
    tail = [greedy_cluster(rows, mesh) for rows in shell_rows[-window:]]
    cands = greedy_cluster([p for sh in tail for p in sh], mesh)
    return [c for c in cands
            if all(any(np.linalg.norm(c - p) <= 2 * mesh for p in sh)
                   for sh in tail)]


@st.composite
def sampled_shells(draw):
    """Shells of rows in 1-4 dims: exact multiples of mesh, duplicates,
    magnitudes up to 1e3 (and a few beyond any exact cell index), and
    empty shells."""
    dim = draw(st.integers(1, 4))
    mesh = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3]))
    value = st.one_of(
        st.integers(-30, 30).map(lambda k: k * mesh),
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from([1e20, -1e20]))
    pool = draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                         min_size=1, max_size=20))
    shells = draw(st.lists(st.lists(st.sampled_from(pool), max_size=30),
                           min_size=1, max_size=6))
    rows = [np.array(sh, dtype=float).reshape(-1, dim) for sh in shells]
    return rows, mesh, draw(st.integers(1, 4))


def same_rows(a, b):
    return len(a) == len(b) and all(np.array_equal(p, q)
                                    for p, q in zip(a, b))


# 2,000 rows within 0.006 of (3, -1), across a cell boundary at mesh 0.02
ONE_CLUSTER = np.random.default_rng(0).uniform(-0.004, 0.004, (2000, 2)) \
    + [3.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(sampled_shells())
# the second row is exactly mesh from the first, one cell over
@example(([np.array([[0.15, 1.0], [0.25, 1.0], [0.35, 1.0]])], 0.1, 1))
@example(([ONE_CLUSTER], 0.02, 1))
def test_limit_points_match_greedy_reference(case):
    rows, mesh, window = case
    for sh in rows:
        assert same_rows(_first_seen(sh, mesh), greedy_cluster(sh, mesh))
    assert same_rows(limit_points(rows, mesh, window),
                     greedy_persistent(rows, mesh, window))



def greedy_dedup(dirs, resolution):
    """Reference: the per-row greedy test against every kept direction."""
    cos_thr = math.cos(resolution)
    kept = np.empty_like(dirs)
    nk = 0
    for d in dirs:
        if nk and np.max(kept[:nk] @ d) > cos_thr:
            continue
        kept[nk] = d
        nk += 1
    return kept[:nk].copy()


@st.composite
def direction_rows(draw):
    """Unit rows in 2-4 dims: fresh directions, rows turned from an earlier
    row by the resolution to within 1e-12 or by half of it, duplicates and
    NaN rows; with a prefilter block size."""
    dim = draw(st.integers(2, 4))
    resolution = draw(st.sampled_from([0.005, 0.05, 0.3]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["new", "edge", "near", "dup",
                                               "nan"]), max_size=80)):
        if kind == "new" or not rows:
            d = gen.standard_normal(dim)
        elif kind == "dup":
            d = rows[gen.integers(len(rows))]
        elif kind == "nan":
            d = np.full(dim, np.nan)
        else:
            base = rows[gen.integers(len(rows))]
            u = gen.standard_normal(dim)
            u -= (u @ base) * base
            t = resolution / 2.0 if kind == "near" else resolution \
                + draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
            d = math.cos(t) * base + math.sin(t) * u / np.linalg.norm(u)
        with np.errstate(invalid="ignore"):
            rows.append(d / np.linalg.norm(d))
    dirs = np.array(rows, dtype=float).reshape(-1, dim)
    return dirs, resolution, draw(st.sampled_from([1, 3, 7, 512]))


@settings(max_examples=300, deadline=None)
@given(direction_rows())
# one row per block: the second row lies 1e-12 inside the resolution of the
# first, which a prefilter margin alone cannot decide
@example((dirs_from_angles([0.3, 0.3 + 0.005 - 1e-12]), 0.005, 1))
# a NaN row kept in the first block makes every later greedy max NaN, so
# the near-duplicates in the second block are kept
@example((np.array([[1.0, 0.0], [np.nan, np.nan], [0.0, 1.0], [1.0, 0.0],
                    [math.cos(0.001), math.sin(0.001)]]), 0.005, 3))
def test_dedup_matches_greedy_reference(case):
    dirs, resolution, block = case
    with mock.patch.object(cones, "_DEDUP_BLOCK", block):
        got = dedup_directions(dirs, resolution)
    want = greedy_dedup(dirs, resolution)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def per_shell_tail(cands, shell_dirs, shell_full, sampled, last, window,
                   cos_thr):
    """Reference: the per-candidate walk back from shell `last` that
    outer_limit ran, on one shell's matches at a time."""
    mask = np.zeros(len(cands), dtype=bool)
    runs = [[] for _ in cands]

    def row(j):
        if not sampled[j]:
            return np.zeros(len(cands), dtype=bool)
        if shell_full[j]:
            return np.ones(len(cands), dtype=bool)
        if not len(shell_dirs[j]):
            return np.zeros(len(cands), dtype=bool)
        return np.max(cands @ shell_dirs[j].T, axis=1) >= cos_thr

    rows = [row(j) for j in range(last + 1)]
    for i in range(len(cands)):
        j = last
        while j >= 0 and rows[j][i]:
            j -= 1
        if last - j >= window:
            mask[i] = True
            runs[i] = list(range(j + 1, last + 1))
    return mask, runs


@st.composite
def tail_cases(draw):
    """Candidates and shells on a 5-degree lattice of planar directions
    (so matches sit exactly on and off the tolerance), with unsampled,
    empty and full-flagged shells."""
    angle = st.integers(0, 71).map(lambda k: k * math.pi / 36.0)
    cands = dirs_from_angles(draw(st.lists(angle, max_size=8)))
    shells = draw(st.lists(st.tuples(st.sampled_from(["off", "dirs",
                                                      "full"]),
                                     st.lists(angle, max_size=5)),
                           min_size=1, max_size=8))
    sampled = [kind != "off" for kind, _ in shells]
    shell_dirs = [dirs_from_angles(a).reshape(-1, 2) if kind == "dirs"
                  else np.zeros((0, 2)) for kind, a in shells]
    shell_full = [kind == "full" for kind, _ in shells]
    tol = draw(st.sampled_from([0.01, math.pi / 36.0, 0.1]))
    return (cands.reshape(-1, 2), shell_dirs, shell_full, sampled,
            draw(st.integers(1, 4)), math.cos(tol))


@settings(max_examples=300, deadline=None)
@given(tail_cases())
def test_tail_runs_match_per_shell_reference(case):
    cands, shell_dirs, shell_full, sampled, window, cos_thr = case
    matched = _match_matrix(cands, shell_dirs, shell_full, cos_thr)
    J = len(shell_dirs)
    for last in (J - 1, J - 2):
        mask, runs = _tail_runs(matched, last, window)
        want_mask, want_runs = per_shell_tail(
            cands, shell_dirs, shell_full, sampled, last, window, cos_thr)
        assert np.array_equal(mask, want_mask) and runs == want_runs


def reduction_columns(allowed, u):
    """Reference: the column choice by reductions along the short axis."""
    counts = allowed.sum(axis=1)
    target = np.floor(u * np.maximum(counts, 1))
    col = np.argmax(np.cumsum(allowed, axis=1) > target[:, None], axis=1)
    return np.where(counts > 0, col, -1)


@st.composite
def column_masks(draw):
    """(B, 2-3) masks with all-False and all-True rows, and draws in [0, 1)."""
    B = draw(st.sampled_from([1, 2, 7, 256, 1000]))
    cols = draw(st.integers(2, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    allowed = gen.random((B, cols)) < draw(st.sampled_from([0.0, 0.3, 0.7,
                                                            1.0]))
    allowed[gen.random(B) < 0.1] = False
    u = gen.random(B)
    u[gen.random(B) < 0.05] = np.nextafter(1.0, 0.0)
    return allowed, u


@settings(max_examples=300, deadline=None)
@given(column_masks())
def test_choose_columns_matches_reductions(case):
    allowed, u = case
    got = _choose_columns(allowed, u)
    assert np.array_equal(got, reduction_columns(allowed, u))
    assert ((got == -1) == ~allowed.any(axis=1)).all()


def round_robin(arrays):
    """Reference: one row from each array in turn, skipping used-up ones."""
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return None
    rows, idx = [], [0] * len(arrays)
    while len(rows) < sum(len(a) for a in arrays):
        for ai, a in enumerate(arrays):
            if idx[ai] < len(a):
                rows.append(a[idx[ai]])
                idx[ai] += 1
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=5))
def test_interleave_matches_round_robin(lengths):
    arrays, start = [], 0
    for k in lengths:
        arrays.append(np.arange(start, start + 2 * k, dtype=float)
                      .reshape(k, 2))
        start += 2 * k
    got, want = _interleave(arrays), round_robin(arrays)
    assert (got is None and want is None) or np.array_equal(got, want)
