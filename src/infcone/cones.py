"""Finite-ray representation and algebra of closed cones.

A closed cone is approximated by its status (Empty / ZeroOnly / Rays) plus
a finite list of unit rays understood up to an angular resolution.  Lines
are antipodal ray pairs; halfplanes and smooth fans are dense ray samples.
Empty and ZeroOnly are distinct answers: the normal cone at infinity of a
set can legitimately be the empty set rather than the trivial cone.

All operations are pure; RayCone and HSlice are immutable after
construction.
"""

import math

import numpy as np

from .grids import sphere_grid

INF = float("inf")

_ZERO_NORM = 1e-12
_DEDUP_BLOCK = 512  # rows per prefilter product in dedup_directions


class ConeError(ValueError):
    """Invalid cone construction or operation input."""


class Status:
    EMPTY = "empty"
    ZERO = "zero"
    RAYS = "rays"


def unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < _ZERO_NORM:
        raise ConeError("cannot normalize a zero vector")
    return v / n


def angle_between(a, b):
    """Angle in [0, pi] between two nonzero vectors."""
    c = float(np.dot(unit(a), unit(b)))
    return math.acos(max(-1.0, min(1.0, c)))


class RayCone:
    """Status + unit rays + angular resolution.  Immutable."""

    __slots__ = ("dim", "status", "rays", "resolution")

    def __init__(self, dim, status, rays=None, resolution=0.01, _trusted=False):
        if dim < 1:
            raise ConeError("dim must be positive")
        if not 0.0 < resolution:
            raise ConeError("resolution must be positive")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "resolution", float(resolution))
        if status == Status.RAYS:
            r = np.array(rays, dtype=float).reshape(-1, dim)
            if r.shape[0] == 0:
                raise ConeError("Rays status requires at least one ray")
            if not _trusted:
                norms = np.linalg.norm(r, axis=1)
                if np.any(norms < _ZERO_NORM):
                    raise ConeError("zero vector among rays")
                r = r / norms[:, None]
            r.setflags(write=False)
            object.__setattr__(self, "rays", r)
        else:
            if rays is not None and len(rays):
                raise ConeError("rays only allowed with Rays status")
            empty = np.zeros((0, dim))
            empty.setflags(write=False)
            object.__setattr__(self, "rays", empty)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RayCone is immutable")

    @classmethod
    def empty(cls, dim, resolution=0.01):
        return cls(dim, Status.EMPTY, resolution=resolution)

    @classmethod
    def zero(cls, dim, resolution=0.01):
        return cls(dim, Status.ZERO, resolution=resolution)

    @property
    def is_empty(self):
        return self.status == Status.EMPTY

    @property
    def is_zero(self):
        return self.status == Status.ZERO

    def __repr__(self):
        if self.status == Status.RAYS:
            return "RayCone(dim=%d, rays=%d, res=%g)" % (
                self.dim, len(self.rays), self.resolution)
        return "RayCone(dim=%d, %s)" % (self.dim, self.status)

    def to_json(self):
        return {
            "dim": self.dim,
            "status": self.status,
            "rays": [[float(x) for x in r] for r in self.rays],
            "resolution": self.resolution,
        }

    @classmethod
    def from_json(cls, d):
        status = d["status"]
        rays = d.get("rays") or None
        return cls(d["dim"], status, rays=rays if status == Status.RAYS else None,
                   resolution=d.get("resolution", 0.01))


class HSlice:
    """A set of the form {finite points} + cone(recession directions).

    Holds coderivative values D*F(.)(v) and subdifferentials, which are
    closed but generally not cones.
    """

    __slots__ = ("dim", "points", "recessions", "empty")

    def __init__(self, dim, points=(), recessions=(), empty=False):
        pts = np.array(list(points), dtype=float).reshape(-1, dim)
        rec = np.array(list(recessions), dtype=float).reshape(-1, dim)
        if rec.shape[0]:
            rec = rec / np.linalg.norm(rec, axis=1, keepdims=True)
        if empty and (pts.shape[0] or rec.shape[0]):
            raise ConeError("empty HSlice must carry no points/recessions")
        if not empty and pts.shape[0] == 0 and rec.shape[0] == 0:
            raise ConeError("nonempty HSlice needs points or recessions")
        pts.setflags(write=False)
        rec.setflags(write=False)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "recessions", rec)
        object.__setattr__(self, "empty", bool(empty))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("HSlice is immutable")

    @classmethod
    def make_empty(cls, dim):
        return cls(dim, empty=True)

    def __repr__(self):
        if self.empty:
            return "HSlice(dim=%d, empty)" % self.dim
        return "HSlice(dim=%d, points=%d, recessions=%d)" % (
            self.dim, len(self.points), len(self.recessions))

    def to_json(self):
        return {
            "dim": self.dim,
            "empty": self.empty,
            "points": [[float(x) for x in p] for p in self.points],
            "recessions": [[float(x) for x in r] for r in self.recessions],
        }


def canonicalize(raw_dirs, dim, resolution=0.01, nonempty=False):
    """Normalize and deduplicate directions into a RayCone.

    Dedup keeps the first-seen representative within `resolution` (input
    order), for determinism.  nonempty distinguishes ZeroOnly from Empty
    when the direction list is empty.
    """
    if not 0.0 < resolution <= math.pi / 4.0:
        raise ConeError("resolution must lie in (0, pi/4]")
    dirs = np.array(list(raw_dirs), dtype=float).reshape(-1, dim)
    if dirs.shape[0] == 0:
        return RayCone.zero(dim, resolution) if nonempty \
            else RayCone.empty(dim, resolution)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms < _ZERO_NORM):
        raise ConeError("zero vector in raw_dirs")
    dirs = dirs / norms[:, None]
    kept = dedup_directions(dirs, resolution)
    return RayCone(dim, Status.RAYS, kept, resolution, _trusted=True)


def dedup_directions(dirs, resolution):
    """Greedy first-seen angular dedup of an (k, d) array of unit rows.

    One product per block of rows against the directions kept so far
    drops the rows inside the angle by more than 1e-9 in cosine (far above
    rounding), as the greedy test would; the rest take that test in order.
    A kept NaN row makes every later greedy max NaN: in a block, the rows
    from the first non-finite one on all take the test.
    """
    cos_thr = math.cos(resolution)
    kept = np.empty_like(dirs)
    nk = 0
    for i in range(0, len(dirs), _DEDUP_BLOCK):
        rows = dirs[i:i + _DEDUP_BLOCK]
        if nk:
            drop = np.max(rows @ kept[:nk].T, axis=1) > cos_thr + 1e-9
            drop &= ~np.logical_or.accumulate(~np.isfinite(rows).all(axis=1))
            rows = rows[~drop]
        for d in rows:
            if nk and np.max(kept[:nk] @ d) > cos_thr:
                continue
            kept[nk] = d
            nk += 1
    return kept[:nk].copy()


def _check_same_dim(c1, c2):
    if c1.dim != c2.dim:
        raise ConeError("dimension mismatch: %d vs %d" % (c1.dim, c2.dim))


def _hausdorff_angles(a, b, chunk=2000):
    """sup over rows of a of the min angle to rows of b."""
    worst = 0.0
    for i in range(0, len(a), chunk):
        dots = np.clip(a[i:i + chunk] @ b.T, -1.0, 1.0)
        worst = max(worst, float(np.max(np.arccos(np.max(dots, axis=1)))))
    return worst


def cone_distance(c1, c2):
    """Two-sided angular Hausdorff distance between unit-sphere traces.

    Status mismatch (Empty vs anything else, ZeroOnly vs Rays) is +inf:
    a hard fixture failure, never a small number.
    """
    _check_same_dim(c1, c2)
    if c1.status != c2.status:
        return INF
    if c1.status in (Status.EMPTY, Status.ZERO):
        return 0.0
    return max(_hausdorff_angles(c1.rays, c2.rays),
               _hausdorff_angles(c2.rays, c1.rays))


def polar_cone(c, grid_sizes=None, slack=0.0):
    """Polar of the conic hull of c, sampled on a direction grid.

    Keeps grid directions xi with max_d <xi, d> <= sin(grid step) + slack;
    the grid-step slack stops boundary polar rays from being dropped
    between grid points, and `slack` absorbs over-inclusion in a sampled
    input cone.  ZeroOnly maps to the full grid; a cone spanning the
    whole space maps to ZeroOnly.
    """
    if c.is_empty:
        raise ConeError("polar of the empty cone is undefined")
    grid, step = sphere_grid(c.dim, grid_sizes)
    if c.is_zero:
        return RayCone(c.dim, Status.RAYS, grid, resolution=step / 2.0,
                       _trusted=True)
    sup = np.max(grid @ c.rays.T, axis=1)
    keep = grid[sup <= math.sin(step) + slack + 1e-12]
    if keep.shape[0] == 0:
        return RayCone.zero(c.dim, resolution=step / 2.0)
    return RayCone(c.dim, Status.RAYS, keep, resolution=step / 2.0,
                   _trusted=True)


def cone_sum(c1, c2):
    """Minkowski sum, sampled: normalized convex combinations of ray pairs.

    Empty propagates as Empty; {0} is the additive identity (returned
    operand unchanged, exactly).
    """
    _check_same_dim(c1, c2)
    if c1.is_empty or c2.is_empty:
        return RayCone.empty(c1.dim, min(c1.resolution, c2.resolution))
    if c1.is_zero:
        return c2
    if c2.is_zero:
        return c1
    res = min(c1.resolution, c2.resolution)
    t = np.linspace(0.0, 1.0, 21)
    combos = (t[None, :, None, None] * c1.rays[:, None, None, :]
              + (1.0 - t)[None, :, None, None] * c2.rays[None, None, :, :])
    # combos shape: (k1, 21, k2, dim) via broadcasting
    combos = combos.reshape(-1, c1.dim)
    norms = np.linalg.norm(combos, axis=1)
    combos = combos[norms > 1e-9]
    out = np.vstack([c1.rays, c2.rays, combos])
    return canonicalize(out, c1.dim, resolution=res, nonempty=True)


def cone_intersect(c1, c2, ang_tol):
    """Rays of c1 within ang_tol of some ray of c2 (sampled intersection)."""
    _check_same_dim(c1, c2)
    if c1.is_empty or c2.is_empty:
        return RayCone.empty(c1.dim)
    if c1.is_zero or c2.is_zero:
        return RayCone.zero(c1.dim)
    cos_thr = math.cos(ang_tol)
    keep = c1.rays[np.max(c1.rays @ c2.rays.T, axis=1) >= cos_thr]
    if keep.shape[0] == 0:
        return RayCone.zero(c1.dim, c1.resolution)
    return RayCone(c1.dim, Status.RAYS, keep, c1.resolution, _trusted=True)


def cone_negate(c):
    if c.status != Status.RAYS:
        return c
    return RayCone(c.dim, Status.RAYS, -c.rays, c.resolution, _trusted=True)


def contains_direction(c, d, ang_tol):
    """True iff some ray of c lies within ang_tol of direction d."""
    if c.status != Status.RAYS:
        return False
    d = unit(np.asarray(d, dtype=float))
    return bool(np.max(c.rays @ d) >= math.cos(ang_tol))


def split_ray(ray, m):
    """Split a product-space ray into (a, b) with b the last m coords."""
    return ray[:-m], ray[-m:]


def slice_hmap(g, v, ang_tol, m=None):
    """Extract the v-slice {u : (u, -v) in g} of a graph-space cone.

    g lives in R^n x R^m; v in R^m.  Rays (a, b) with direction(b) within
    ang_tol of -v are rescaled so the b-part equals -v exactly, emitting
    the point (|v|/|b|) a.  Rays with b ~ 0 are recession directions of
    every slice.  slice(0) always contains the point 0.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if m is None:
        m = v.shape[0]
    if g.is_empty:
        raise ConeError("cannot slice an Empty cone")
    n = g.dim - m
    if n < 1:
        raise ConeError("slice dimension exceeds cone dimension")
    vnorm = float(np.linalg.norm(v))
    zero_b = math.sin(min(ang_tol, math.pi / 2.0))
    if g.is_zero:
        if vnorm < _ZERO_NORM:
            return HSlice(n, points=[np.zeros(n)])
        return HSlice.make_empty(n)
    points = []
    recessions = []
    for ray in g.rays:
        a, b = split_ray(ray, m)
        bn = float(np.linalg.norm(b))
        if bn <= zero_b:
            if np.linalg.norm(a) > _ZERO_NORM:
                recessions.append(a)
            continue
        if vnorm < _ZERO_NORM:
            continue
        cosang = float(np.dot(b / bn, -v / vnorm))
        if cosang >= math.cos(ang_tol):
            points.append((vnorm / bn) * a)
    if vnorm < _ZERO_NORM:
        points.append(np.zeros(n))
    if not points and not recessions:
        return HSlice.make_empty(n)
    if recessions:
        rec = dedup_directions(
            np.array(recessions) /
            np.linalg.norm(recessions, axis=1, keepdims=True),
            g.resolution)
    else:
        rec = ()
    return HSlice(n, points=points, recessions=rec)


def hmap_kernel(g, m, tol=0.02):
    """Kernel directions {v : 0 in slice(v)} of a graph-space cone.

    Rays (a, b) with |a| <= tol |b| witness 0 in the slice at -b's
    direction.  Always at least ZeroOnly (0 is in slice(0)).
    """
    if g.is_empty:
        raise ConeError("kernel of an Empty cone is undefined")
    if g.is_zero:
        return RayCone.zero(m, g.resolution)
    dirs = []
    for ray in g.rays:
        a, b = split_ray(ray, m)
        bn = float(np.linalg.norm(b))
        if bn > _ZERO_NORM and float(np.linalg.norm(a)) <= tol * bn:
            dirs.append(-b / bn)
    return canonicalize(dirs, m, resolution=g.resolution, nonempty=True)


def phm_norm(g, m, zero_tol=0.02):
    """Norm of the positively homogeneous slice map of g.

    sup |a|/|b| over rays (a, b); +inf when some ray has b ~ 0 with a
    nonzero (the slice at 0 is unbounded); 0 for ZeroOnly.
    """
    if g.is_empty:
        raise ConeError("norm of an Empty cone is undefined")
    if g.is_zero:
        return 0.0
    worst = 0.0
    for ray in g.rays:
        a, b = split_ray(ray, m)
        an, bn = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if bn <= zero_tol:
            if an > _ZERO_NORM:
                return INF
            continue
        worst = max(worst, an / bn)
    return worst


def in_convex_cone(generators, x, tol=1e-7):
    """Membership of x in the convex cone spanned by generator rows (NNLS)."""
    from scipy.optimize import nnls
    x = np.asarray(x, dtype=float)
    xn = np.linalg.norm(x)
    if xn < _ZERO_NORM:
        return True
    gen = np.asarray(generators, dtype=float)
    if gen.size == 0:
        return False
    _, resid = nnls(gen.T, x / xn)
    return resid <= tol


def hslice_distance(s1, s2):
    """Hausdorff-style distance between two HSlices (points + recessions).

    Used for fixture comparison: +inf on empty/nonempty mismatch; the
    point parts use Euclidean Hausdorff distance; the recession parts use
    the angular metric, scaled into the same number via max().
    """
    if s1.empty != s2.empty:
        return INF
    if s1.empty:
        return 0.0
    if (len(s1.recessions) > 0) != (len(s2.recessions) > 0):
        return INF
    d = 0.0
    if len(s1.recessions):
        d = max(_hausdorff_angles(s1.recessions, s2.recessions),
                _hausdorff_angles(s2.recessions, s1.recessions))
    if (len(s1.points) > 0) != (len(s2.points) > 0):
        return INF
    if len(s1.points):
        diff = s1.points[:, None, :] - s2.points[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        d = max(d, float(np.max(np.min(dist, axis=1))),
                float(np.max(np.min(dist, axis=0))))
    return d
