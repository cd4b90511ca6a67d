"""Outer-limit sampling engine and the normal-cone computations on it.

outer_limit discretizes a Painleve-Kuratowski outer limit of a direction
field: the field is evaluated on samples drawn shell by shell along an
approach (to a point, or to infinity with/without a value window), and a
direction survives when it is matched in every shell of a tail run.  All
normal cones -- contingent, Frechet, limiting, at infinity with a value,
at infinity total -- reduce to this engine plus the closed-set oracles.
"""

import itertools
import math
import operator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .cones import (RayCone, Status, canonicalize, cone_distance,
                    cone_intersect, cone_negate, cone_sum,
                    contains_direction, dedup_directions, in_convex_cone,
                    polar_cone)
from .grids import grid_sizes_from_config, sphere_grid
from .sets import ClosedSet, SetError, Shell
from .verdict import Verdict


class ApproachSpec:
    """How base points approach the limit: a sampler per shell level.

    sampler(j) returns the shell-j base points; levels is the number of
    shells.  The constructors below cover the two approach modes.
    """

    __slots__ = ("dim", "sampler", "levels")

    def __init__(self, dim, sampler, levels):
        self.dim = int(dim)
        self.sampler = sampler
        self.levels = int(levels)

    @classmethod
    def to_infinity_with_value(cls, S, ybar, cfg, label=""):
        """x-block escapes through radius shells, y-block stays near ybar."""
        if S.split is None:
            raise SetError("at-infinity-with-value needs split metadata")
        n, m = S.split
        ybar = np.asarray(ybar, dtype=float).reshape(m)

        def sampler(j):
            sh = Shell(range(n), cfg.radius(j), cfg.radius(j + 1),
                       center=ybar, rho=cfg.rho(j))
            return S.sample_shell(sh, cfg.samples_per_shell, cfg,
                                  label="%s|j%d" % (label, j))

        return cls(S.dim, sampler, cfg.shells)

    @classmethod
    def to_infinity(cls, S, cfg, label=""):
        """All coordinates escape together through radius shells."""

        def sampler(j):
            sh = Shell(range(S.dim), cfg.radius(j), cfg.radius(j + 1))
            return S.sample_shell(sh, cfg.samples_per_shell, cfg,
                                  label="%s|t%d" % (label, j))

        return cls(S.dim, sampler, cfg.shells)


class LimsupResult:
    __slots__ = ("cone", "persistence", "shells_used", "converged",
                 "diagnostics")

    def __init__(self, cone, persistence, shells_used, converged,
                 diagnostics=None):
        self.cone = cone
        self.persistence = persistence  # list of shell-index lists per ray
        self.shells_used = int(shells_used)
        self.converged = bool(converged)
        self.diagnostics = diagnostics or {}

    def __repr__(self):
        return "LimsupResult(%r, shells=%d, converged=%s)" % (
            self.cone, self.shells_used, self.converged)

    def to_json(self):
        return {"cone": self.cone.to_json(),
                "persistence": self.persistence,
                "shells_used": self.shells_used,
                "converged": self.converged,
                "diagnostics": self.diagnostics}


def _normalize_field_output(out, dim):
    if isinstance(out, dict):
        dirs = np.asarray(out.get("dirs"), dtype=float).reshape(-1, dim)
        return dirs, bool(out.get("full", False))
    dirs = np.asarray(out, dtype=float).reshape(-1, dim)
    return dirs, False


def _match_matrix(cands, shell_dirs, shell_full, cos_thr):
    """(shells x candidates) bool: does shell j match candidate i.

    A shell matches a candidate when it is full-flagged or contains a
    direction within the angular tolerance (cos_thr = cos(ang_tol)).
    """
    matched = np.zeros((len(shell_dirs), len(cands)), dtype=bool)
    for j, (dirs, full) in enumerate(zip(shell_dirs, shell_full)):
        if full:
            matched[j, :] = True
        elif len(dirs):
            matched[j] = np.max(cands @ dirs.T, axis=1) >= cos_thr
    return matched


def tail_levels(levels, count):
    """The last `count` of `levels` shell levels: all that a tail rule reads."""
    return range(max(levels - count, 0), levels)


def _tail_runs(matched, last, window):
    """Which candidates are matched in a tail run ending at shell `last`.

    The run must have length >= window.  Returns (mask, runs) where
    runs[i] is the list of matched shell indices of candidate i's tail
    run (empty when not persistent).
    """
    run = np.zeros(matched.shape[1], dtype=int)
    alive = np.ones(matched.shape[1], dtype=bool)
    for j in range(last, -1, -1):
        alive &= matched[j]
        run += alive
    mask = run >= window
    runs = [list(range(last + 1 - r, last + 1)) if ok else []
            for r, ok in zip(run.tolist(), mask.tolist())]
    return mask, runs


def _tail_cone(cands, mask, tail_sampled, dim):
    """Empty when the tail saw no samples, ZeroOnly when nothing persists,
    else the canonical cone of the persistent candidates."""
    if not tail_sampled:
        return RayCone.empty(dim)
    if not mask.any():
        return RayCone.zero(dim)
    return canonicalize(cands[mask], dim, nonempty=True)


def _cells(X, side):
    """Cell index per row of X over its (at most three) leading coordinates.

    Rows within side/2 of each other get indices at most 1 apart in each
    coordinate, whatever the rounding in x / side, also once clipped at
    2^48, where x / side is still within 1/16 of exact.
    """
    if len(X) == 0:
        return []
    with np.errstate(all="ignore"):
        Q = np.nan_to_num(np.floor(np.asarray(X, dtype=float)[:, :3] / side))
    return list(map(tuple, np.clip(Q, -2**48, 2**48).astype(int).tolist()))


def _near(cells, x, key, radius):
    """True when a point q hashed in the cells around key has
    np.linalg.norm(x - q) <= radius; the cells only prune the pairs tested."""
    return any(np.linalg.norm(x - q) <= radius
               for off in itertools.product((-1, 0, 1), repeat=len(key))
               for q in cells.get(tuple(map(operator.add, key, off)), ()))


def _first_seen(rows, radius):
    """Greedy first-seen clustering: a row becomes a representative when
    no earlier representative lies within radius (cells of side 2*radius)."""
    reps, cells = [], {}
    X = np.asarray(rows, dtype=float)
    for x, key in zip(X, _cells(X, 2.0 * radius)):
        if not _near(cells, x, key, radius):
            reps.append(x)
            cells.setdefault(key, []).append(x)
    return reps


def limit_points(shell_rows, mesh, window):
    """Points that persist through the last `window` shells of samples.

    Each tail shell's rows are clustered first-seen at radius mesh, their
    pooled representatives again, and a pooled one persists when every
    tail shell has a representative within 2*mesh.  The point-side twin
    of _tail_runs; returns the persistent points in first-seen order.
    """
    tail = [_first_seen(rows, mesh) for rows in shell_rows[-window:]]
    pooled = _first_seen([p for reps in tail for p in reps], mesh)
    grids = []
    for reps in tail:
        grids.append({})
        for p, key in zip(reps, _cells(reps, 4.0 * mesh)):
            grids[-1].setdefault(key, []).append(p)
    return [c for c, key in zip(pooled, _cells(pooled, 4.0 * mesh))
            if all(_near(g, c, key, 2.0 * mesh) for g in grids)]


def divergent(trend):
    """True when per-shell suprema escape together with their shells.

    trend[j] is None for a shell without values, else (sup, radius) with
    radius the norm of the base point attaining sup.  Over the last three
    shells with values, sup must end above 10 and grow by at least 0.8
    times the growth of that radius.  The first and last of those shells
    never overlap, so at radius factor 2 a constant sup cannot pass.
    """
    seen = [t for t in trend if t is not None]
    if len(seen) < 3:
        return False
    (s0, r0), _, (s2, r2) = seen[-3:]
    return s2 > 10.0 and s2 >= 0.8 * (r2 / r0) * s0


def outer_limit(field, approach, cfg):
    """Tail-persistent directions of `field` along `approach`.

    field(j, points) -> direction array or {"dirs": ..., "full": bool};
    the full flag marks shells whose samples generate every direction
    (e.g. isolated atoms).  Only the shells a tail rule reads are sampled:
    the last window + 1.  Empty iff the final window saw no samples;
    ZeroOnly when samples exist but no direction persists.
    converged=False when the estimate still moved at the last shell or
    some direction flickered in the final window without persisting.
    """
    dim = approach.dim
    J = approach.levels
    window = cfg.persistence_window
    levels = tail_levels(J, window + 1)

    def eval_shell(j):
        P = approach.sampler(j)
        if len(P) == 0:
            return False, np.zeros((0, dim)), False, 0
        dirs, full = _normalize_field_output(field(j, P), dim)
        if len(dirs):
            nrm = np.linalg.norm(dirs, axis=1, keepdims=True)
            keep = nrm[:, 0] > 1e-12
            dirs = dirs[keep] / nrm[keep]
            dirs = dedup_directions(dirs, cfg.ang_tol / 2.0)
        return True, dirs, full, len(P)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            rows = list(ex.map(eval_shell, levels))
    else:
        rows = [eval_shell(j) for j in levels]
    sampled = [r[0] for r in rows]
    shell_dirs = [r[1] for r in rows]
    shell_full = [r[2] for r in rows]
    counts = [0] * levels.start + [r[3] for r in rows]

    all_dirs = [d for d in shell_dirs if len(d)]
    if any(shell_full):
        # full-flagged shells generate every direction; seed the candidate
        # pool with a sphere grid so they can carry the whole sphere
        grid, _ = sphere_grid(dim)
        all_dirs.append(grid)
    cands = np.vstack(all_dirs) if all_dirs else np.zeros((0, dim))
    if len(cands):
        cands = dedup_directions(cands, cfg.ang_tol / 2.0)
    cos_thr = np.cos(cfg.ang_tol)

    k = len(levels)
    matched = _match_matrix(cands, shell_dirs, shell_full, cos_thr)
    mask, runs = _tail_runs(matched, k - 1, window)
    cone = _tail_cone(cands, mask, any(sampled[max(k - window, 0):]), dim)
    diagnostics = {"samples_per_shell": counts,
                   "candidates": int(len(cands))}
    # map kept canonical rays back to candidate persistence runs
    persistence = []
    if cone.status == Status.RAYS:
        kept_idx = np.flatnonzero(mask)
        for ray in cone.rays:
            best = kept_idx[int(np.argmax(cands[kept_idx] @ ray))]
            persistence.append([levels[i] for i in runs[best]])

    # convergence: drop the last shell, recompute, compare; also flag
    # directions that matched part of the final window without persisting
    prev_mask, _ = _tail_runs(matched, k - 2, window)
    prev = _tail_cone(cands, prev_mask,
                      any(sampled[max(k - 1 - window, 0):k - 1]), dim)
    drift = cone_distance(prev, cone)
    recent = matched[max(k - window, 0):k].any(axis=0)
    flicker = bool(np.any(recent & ~mask))
    converged = drift <= 2.0 * cfg.ang_tol and not flicker
    diagnostics["drift"] = None if np.isinf(drift) else float(drift)
    diagnostics["flicker"] = flicker
    return LimsupResult(cone, persistence, J, converged, diagnostics)


# ---------------------------------------------------------------------------
# Pointwise cones


def _require_member(S, x, cfg):
    x = np.asarray(x, dtype=float)
    if not S.contains(x, max(cfg.eq_tol, 1e-9) * 100):
        raise SetError("point %s is not in the set" % (x.tolist(),))
    return x


def contingent_cone(S, x, cfg):
    """Sampled contingent (tangent) cone of S at a member x.

    A grid direction d survives when, for every step t in a decreasing
    schedule, the set comes within t*ang_tol + 5t^2 of x + t*d; the
    quadratic slack accommodates curved boundaries at the larger steps.
    """
    x = _require_member(S, x, cfg)
    if S.discrete is not None:
        return RayCone.zero(S.dim)  # isolated atoms: tangent cone is {0}
    grid, _ = sphere_grid(S.dim, grid_sizes_from_config(cfg))
    ok = np.ones(len(grid), dtype=bool)
    for j in range(3, 11):
        t = cfg.delta(j)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            break
        d = S.approx_dist(x + t * grid[idx])
        ok[idx[d > t * cfg.ang_tol + 5.0 * t * t]] = False
    rays = grid[ok]
    return canonicalize(rays, S.dim, nonempty=True)


def frechet_normal_cone(S, x, cfg):
    """Regular (Frechet) normal cone: polar of the contingent cone."""
    if S.discrete is not None:
        _require_member(S, x, cfg)
        grid, step = sphere_grid(S.dim, grid_sizes_from_config(cfg))
        return RayCone(S.dim, Status.RAYS, grid, resolution=step / 2.0,
                       _trusted=True)
    # the sampled contingent cone over-includes by up to ang_tol; give
    # the polar the matching slack so boundary normals survive
    return polar_cone(contingent_cone(S, x, cfg),
                      grid_sizes_from_config(cfg),
                      slack=math.sin(cfg.ang_tol))


def limiting_normal_cone(S, x, cfg):
    """Limiting (Mordukhovich) normal cone at a member x.

    Fast path: x inside a single smooth piece -- the cone is generated by
    the active constraint gradients, sampled on the grid when several
    inequalities are active.  Otherwise (corners, several pieces,
    nonsmooth comparisons) falls back to the projection-direction field:
    probes q near x project back to the set and q - proj(q) accumulates
    normal directions.
    """
    x = _require_member(S, x, cfg)
    grid, step = sphere_grid(S.dim, grid_sizes_from_config(cfg))
    if S.discrete is not None:
        # isolated atom: every direction is normal
        return RayCone(S.dim, Status.RAYS, grid, resolution=step / 2.0,
                       _trusted=True)
    pstat = S.piece_status(x[None, :], cfg.eq_tol)[:, 0]
    members = np.flatnonzero(pstat >= 0)
    if len(members) == 1:
        A, have, ok = S.pieces[members[0]].active_generators(x[None, :])
        if ok[0]:
            G = A[0, have[0]]
            if len(G) == 0:
                return RayCone.zero(S.dim)
            if len(G) == 1:
                return canonicalize(G, S.dim, nonempty=True)
            # grid directions sit up to step/2 off the generator cone
            tol = max(1e-6, math.sin(step))
            keep = np.fromiter(
                (in_convex_cone(G, d, tol) for d in grid),
                dtype=bool, count=len(grid))
            if not keep.any():
                return canonicalize(G, S.dim, nonempty=True)
            return canonicalize(grid[keep], S.dim, nonempty=True)
    # projection fallback
    dirs = []
    for j in (4, 6, 8):
        delta = cfg.delta(j)
        rng = cfg.rng("limnorm", S.name, j,
                      np.round(x, 9).tobytes().hex())
        n = max(cfg.probes_per_level // 2, 8)
        u = rng.standard_normal((n, S.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rad = delta * rng.random(n) ** (1.0 / S.dim)
        Q = x + u * rad[:, None]
        for q in Q:
            if S.contains(q, cfg.eq_tol):
                continue
            try:
                res = S.project(q, cfg, starts=2)
            except SetError:
                continue
            for p in res.minimizers:
                d = q - p
                nd = np.linalg.norm(d)
                if nd > 1e-9 * (1.0 + np.linalg.norm(q)):
                    dirs.append(d / nd)
    return canonicalize(dirs, S.dim, nonempty=True)


# ---------------------------------------------------------------------------
# Cones at infinity


def normal_cone_at_infinity(S, ybar, cfg, method="frechet", label=""):
    """Normal cone at infinity with value window ybar (split sets).

    Tail-persistent limit of the per-sample regular-normal field along
    shells where the x-block escapes and the y-block stays near ybar.
    method "limiting" swaps in the projection-direction field; "both"
    returns the regular-field result and records the angular distance to
    the limiting-field result as a diagnostic.
    """
    if method not in ("frechet", "limiting", "both"):
        raise ValueError("method must be frechet, limiting or both")
    approach = ApproachSpec.to_infinity_with_value(
        S, ybar, cfg, label=label or S.name)

    def field_reg(j, P):
        return S.frechet_field(P, cfg)

    def field_lim(j, P):
        return S.projection_dir_field(P, cfg,
                                      label="%s|j%d" % (label or S.name, j))

    if method == "limiting":
        return outer_limit(field_lim, approach, cfg)
    res = outer_limit(field_reg, approach, cfg)
    if method == "both":
        alt = outer_limit(field_lim, approach, cfg)
        d = cone_distance(res.cone, alt.cone)
        res.diagnostics["limiting_agreement"] = \
            None if np.isinf(d) else float(d)
        res.diagnostics["limiting_status"] = alt.cone.status
    return res


def normal_cone_at_infinity_total(S, cfg, label=""):
    """Normal cone at infinity without a value window (whole set escapes)."""
    approach = ApproachSpec.to_infinity(S, cfg, label=label or S.name)

    def field(j, P):
        return S.frechet_field(P, cfg)

    return outer_limit(field, approach, cfg)


def _with_split(S, split):
    if S.split == tuple(split):
        return S
    return ClosedSet(S.dim, pred=S.pred, discrete=S.discrete, split=split,
                     unbounded=S.unbounded, name=S.name)


def verify_intersection_rule(o1, o2, ybar, cfg):
    """Check the at-infinity normal-cone sum rule for an intersection.

    Under the qualification N_1(inf,ybar) meets -N_2(inf,ybar) only at 0,
    every normal direction of the intersection at infinity should lie in
    the sampled sum of the two cones.  CQ failure is Inconclusive; an
    unexplained direction is a Fail with that ray as witness.
    """
    if o1.dim != o2.dim:
        raise SetError("dimension mismatch")
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    split = (o1.dim - len(ybar), len(ybar))
    s1 = _with_split(o1, split)
    s2 = _with_split(o2, split)
    from .sets import intersection_set
    n1 = normal_cone_at_infinity(s1, ybar, cfg, label="ir1")
    n2 = normal_cone_at_infinity(s2, ybar, cfg, label="ir2")
    diag = {"cone1": n1.cone.to_json(), "cone2": n2.cone.to_json()}
    if n1.cone.is_empty or n2.cone.is_empty:
        return Verdict.inconclusive("empty cone at infinity", **diag)
    meet = cone_intersect(n1.cone, cone_negate(n2.cone), cfg.ang_tol)
    if meet.status == Status.RAYS:
        return Verdict.inconclusive("CQ violated",
                                    cq_witness=meet.rays[0].tolist(), **diag)
    inter = _with_split(intersection_set(o1, o2), split)
    left = normal_cone_at_infinity(inter, ybar, cfg, label="ir12")
    right = cone_sum(n1.cone, n2.cone)
    diag["left"] = left.cone.to_json()
    diag["right"] = right.to_json()
    if left.cone.status != Status.RAYS:
        return Verdict.passed(**diag)
    for ray in left.cone.rays:
        if right.status != Status.RAYS or \
                not contains_direction(right, ray, 2.0 * cfg.ang_tol):
            return Verdict.failed(ray.tolist(), **diag)
    return Verdict.passed(**diag)
