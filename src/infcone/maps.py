"""Set-valued mapping analysis on top of the closed-set graph oracle.

A MultiMap is a closed graph in R^n x R^m with split metadata.  This
module computes Jelonek sets (asymptotic values), coderivative cones at
points and at infinity, limiting/singular subdifferentials of piecewise
functions at infinity, the distance function d_F(x, y) = dist(y, F(x)),
and runs the sum-rule and chain-rule inclusion verifiers.
"""

import math

import numpy as np

from . import dsl
from .cones import (INF, RayCone, Status, canonicalize, cone_intersect,
                    contains_direction, slice_hmap, hmap_kernel, HSlice)
from .dsl import (Comparison, Conj, Predicate, Var, _add, _ev,
                  eval_predicate, free_vars, gradient, subst_vars)
from .limits import (ApproachSpec, divergent, limit_points,
                     limiting_normal_cone, normal_cone_at_infinity,
                     normal_cone_at_infinity_total, outer_limit, tail_levels)
from .sets import (ClosedSet, SetError, Shell, epigraph_set, full_space,
                   graph_of_function, graph_set, nearest_points, row_norms)
from .verdict import Verdict


class MultiMap:
    """Set-valued mapping F: R^n =:: R^m represented by its closed graph."""

    __slots__ = ("n", "m", "graph", "name")

    def __init__(self, n, m, graph, name=""):
        self.n = int(n)
        self.m = int(m)
        if graph.dim != self.n + self.m:
            raise SetError("graph dimension does not match n + m")
        if graph.split != (self.n, self.m):
            raise SetError("graph split metadata does not match n + m")
        self.graph = graph
        self.name = name or graph.name

    @classmethod
    def from_mapdef(cls, md):
        return cls(md.n, md.m, graph_set(md), name=md.name)

    @classmethod
    def from_funcdef(cls, fd):
        """Single-valued map x -> {f(x)} through the function's graph."""
        return cls(fd.n, 1, graph_of_function(fd), name=fd.name)

    def __repr__(self):
        return "MultiMap(%r, %d->%d)" % (self.name, self.n, self.m)

    def values_near(self, x, center, radius, count, cfg, label=""):
        """Finite sample of F(x) within `radius` of `center`."""
        return self.graph.sample_fiber(x, center, radius, count, cfg,
                                       label=label)

    def explicit_pieces(self):
        """[(region comparisons, value exprs)] when F is x -> {e(x)}.

        Each graph piece must pin every output coordinate by an equality
        v_{n+j} == e_j(x) with the remaining comparisons involving only
        x-variables; returns None otherwise.
        """
        if self.graph.discrete is not None:
            return None
        xvars = set(range(self.n))
        out = []
        for piece in self.graph.pieces:
            exprs = [None] * self.m
            rest = []
            for c in piece.comparisons:
                used = False
                if c.is_eq:
                    for side, other in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
                        if isinstance(side, Var) and side.idx >= self.n \
                                and exprs[side.idx - self.n] is None \
                                and free_vars(other) <= xvars:
                            exprs[side.idx - self.n] = other
                            used = True
                            break
                if not used:
                    rest.append(c)
            if any(e is None for e in exprs):
                return None
            if any(not (free_vars(c.lhs) | free_vars(c.rhs)) <= xvars
                   for c in rest):
                return None
            out.append((rest, exprs))
        return out


# ---------------------------------------------------------------------------
# Jelonek set


class JelonekSample:
    """Sampled asymptotic value set within a window.

    values are cluster centers of y-values witnessed at ever larger
    radii; radii[i] is the largest radius at which values[i] was seen.
    """

    __slots__ = ("values", "radii", "window", "mesh")

    def __init__(self, values, radii, window, mesh):
        self.values = [np.asarray(v, dtype=float) for v in values]
        self.radii = [float(r) for r in radii]
        self.window = np.asarray(window, dtype=float)
        self.mesh = float(mesh)

    def __repr__(self):
        return "JelonekSample(%d values, mesh=%g)" % (len(self.values),
                                                      self.mesh)

    def to_json(self):
        return {"values": [v.tolist() for v in self.values],
                "radii": self.radii,
                "window": self.window.tolist(),
                "mesh": self.mesh}


def jelonek_set(F, window, cfg, mesh=0.1, label=""):
    """Asymptotic values of F inside a box window, by cell persistence.

    window: (m, 2) array of [lo, hi] per output coordinate.  A cell is
    kept when shell samples of the graph keep hitting it through the
    final persistence window of radii.
    """
    window = np.asarray(window, dtype=float).reshape(F.m, 2)
    lo, hi = window[:, 0], window[:, 1]
    center = 0.5 * (lo + hi)
    rad = float(np.linalg.norm(hi - lo)) / 2.0 + mesh
    J = cfg.shells
    cells = []
    for j in range(J):
        sh = Shell(range(F.n), cfg.radius(j), cfg.radius(j + 1),
                   center=center, rho=rad)
        P = F.graph.sample_shell(sh, cfg.samples_per_shell, cfg,
                                 label="jel|%s|%d" % (label or F.name, j))
        shell_cells = {}
        if len(P):
            Y = P[:, F.n:]
            inside = np.all((Y >= lo - 1e-12) & (Y <= hi + 1e-12), axis=1)
            Y = Y[inside]
            idx = np.floor((Y - lo) / mesh).astype(int)
            for key, y in zip(map(tuple, idx), Y):
                s, c = shell_cells.get(key, (np.zeros(F.m), 0))
                shell_cells[key] = (s + y, c + 1)
        cells.append(shell_cells)
    window_n = cfg.persistence_window
    persistent = set(cells[J - 1]) if cells[J - 1] else set()
    for j in range(J - 2, J - 1 - window_n, -1):
        persistent &= set(cells[j])
    values, radii = [], []
    for key in sorted(persistent):
        j = J - 1
        while j > 0 and key in cells[j - 1]:
            j -= 1
        total = np.zeros(F.m)
        count = 0
        for jj in range(j, J):
            if key in cells[jj]:
                s, c = cells[jj][key]
                total += s
                count += c
        values.append(total / count)
        radii.append(cfg.radius(J - 1))
    return JelonekSample(values, radii, window, mesh)


# ---------------------------------------------------------------------------
# Coderivatives


def coderivative_cone_at(F, x, y, cfg):
    """Graph normal cone at (x, y); slice with slice_hmap for D*F(x,y)(v)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return limiting_normal_cone(F.graph, np.concatenate([x, y]), cfg)


def coderivative_at_infinity(F, ybar, cfg, method="frechet", label=""):
    """Graph normal cone at infinity with value window ybar (LimsupResult).

    Slices of the returned cone give D*F(inf, ybar)(v) through slice_hmap;
    an Empty cone means ybar was not reached by the graph at large radii.
    """
    return normal_cone_at_infinity(F.graph, ybar, cfg, method=method,
                                   label=label or ("cod|" + F.name))


# ---------------------------------------------------------------------------
# Distance function and preimage distance


_MIRROR = {"==": "==", "<=": ">=", "<": ">", ">=": "<=", ">": "<"}


def _fiber_structure(piece, key):
    """How the piece's comparisons meet the pinned/free split key, a
    (frozenset of pinned, tuple of free) coordinate pair (cached).

    Returns (fixed, free_cis, bounds): the comparisons over the pinned
    block alone, the other comparison indices, and, when the piece's
    fiber is a box, one (k, op, e) per comparison that touches a free
    coordinate, read as v op e for free column k and e a function of the
    pinned block alone (else None).  Strict operators count as closed, as
    in dsl._eval_conj.
    """
    hit = piece.fiber_cache.get(key)
    if hit is not None:
        return hit
    pinned = key[0]
    col = {k: j for j, k in enumerate(key[1])}
    fixed, free_cis, bounds = [], [], []
    for ci, c in enumerate(piece.comparisons):
        cvars = free_vars(c.lhs) | free_vars(c.rhs)
        (fixed if cvars and cvars <= pinned else free_cis).append(ci)
        if bounds is None or not cvars & col.keys():
            continue
        for v, op, e in ((c.lhs, c.op, c.rhs),
                         (c.rhs, _MIRROR[c.op], c.lhs)):
            if isinstance(v, Var) and v.idx in col \
                    and free_vars(e) <= pinned:
                bounds.append((col[v.idx], op, e))
                break
        else:
            bounds = None
    hit = piece.fiber_cache[key] = (fixed, free_cis, bounds)
    return hit


def _accepted(piece, V, free_idx, Z, T):
    """(ok, |z - t|) per row: ok where the finite z, put into the free
    coordinates of the full rows V (overwritten), passes Piece.accepts."""
    V[:, free_idx] = Z
    ok = piece.accepts(V)[1] & np.isfinite(Z).all(axis=1)
    return ok, row_norms(Z - T)


def _pinned_min(S, pinned_idx, pinned_vals, free_idx, targets, starts):
    """min |z - t| per row over the points of S that take the row of
    pinned_vals on pinned_idx, with z their free coordinates free_idx and
    t the row of targets.

    A piece whose fiber is a box (_fiber_structure) offers the clip of each
    row's target into the row's box, all rows at once.  Other pieces, and
    rows whose clip fails Piece.accepts, go to nearest_points one row at a
    time, from the points starts(i) returns for row i; it runs at most
    once per row, when the first piece needs it.

    Returns the (N,) distances, +inf where the row's fiber is empty.
    """
    T = np.asarray(targets, dtype=float)
    N, nf = T.shape
    full = np.empty((N, S.dim))
    full[:, pinned_idx] = pinned_vals
    full[:, free_idx] = T
    key = (frozenset(int(i) for i in pinned_idx),
           tuple(int(k) for k in free_idx))
    every = np.arange(N)
    best = np.full(N, INF)
    start_pts = [None] * N
    with np.errstate(all="ignore"):
        for piece in S.pieces:
            fixed, free_cis, bounds = _fiber_structure(piece, key)
            # constant infeasibility in the pinned block rules a row out
            rows = every
            for ci in fixed:
                V = full[rows]
                g = piece._gval(ci, V)
                viol = np.abs(g) if piece.comparisons[ci].is_eq \
                    else np.maximum(g, 0.0)
                rows = rows[viol <= 1e-9 * piece._rhs_scale(ci, V)]
            if bounds is not None and len(rows):
                V = full[rows]
                lo = np.full((len(rows), nf), -np.inf)
                hi = np.full((len(rows), nf), np.inf)
                for k, op, e in bounds:
                    b = _ev(e, V)
                    if op in ("==", "<=", "<"):
                        hi[:, k] = np.minimum(hi[:, k], b)
                    if op in ("==", ">=", ">"):
                        lo[:, k] = np.maximum(lo[:, k], b)
                # only a column bounded by two comparisons can be empty
                if len({k for k, _, _ in bounds}) < len(bounds):
                    tol = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
                    box = ~(lo - hi > tol).any(axis=1)
                    rows, V, lo, hi = rows[box], V[box], lo[box], hi[box]
                Tr = T[rows]
                ok, d = _accepted(piece, V, free_idx,
                                  np.minimum(np.maximum(Tr, lo), hi), Tr)
                best[rows] = np.fmin(best[rows], np.where(ok, d, INF))
                rows = rows[~ok]
            for i in rows:
                if start_pts[i] is None:
                    start_pts[i] = starts(i)
                Z = list(nearest_points(piece, full[i], free_idx, free_cis,
                                        start_pts[i]))
                if not Z:
                    continue
                ok, d = _accepted(piece, np.repeat(full[i:i + 1], len(Z), 0),
                                  free_idx, np.array(Z), T[i])
                for di in d[ok]:
                    if di < best[i]:
                        best[i] = di
    return best


def _rows(a, width):
    return np.asarray(a, dtype=float).reshape(-1, width)


def distances_to_image(F, X, Y, cfg):
    """d_F(x, y) = dist(y, F(x)) per row pair of X (N, n) and Y (N, m);
    +inf where F(x) is empty."""
    X, Y = _rows(X, F.n), _rows(Y, F.m)
    G = F.graph
    if G.discrete is not None:
        K = np.round(X[:, 0])
        V = G._atom_values(K)
        out = ~np.isfinite(V) | \
            (np.abs(X[:, 0] - K) > 1e-9 * (1.0 + np.abs(K)))
        if G.discrete["domain"] == "naturals":
            out |= K < 0
        with np.errstate(invalid="ignore"):
            return np.where(out, INF, np.abs(Y[:, 0] - V))

    def starts(i):
        # y plus the nearest sampled fiber point, for pieces that need SLSQP
        x, y = X[i], Y[i]
        for r in (0.5, 2.0, 8.0, 32.0):
            Yc = F.values_near(x, y, r, 64, cfg, label="dimg|%.3g" % r)
            if len(Yc):
                return [y, Yc[int(np.argmin(np.linalg.norm(Yc - y, axis=1)))]]
        return [y]

    return _pinned_min(G, np.arange(F.n), X, np.arange(F.n, F.n + F.m), Y,
                       starts)


def dists_to_preimage(F, Z, X0, cfg):
    """dist(x0, F^{-1}(z)) = inf{|x - x0| : z in F(x)} per row pair of
    Z (N, m) and X0 (N, n); +inf where the preimage is empty."""
    Z, X0 = _rows(Z, F.m), _rows(X0, F.n)
    G = F.graph
    if G.discrete is None:
        return _pinned_min(G, np.arange(F.n, F.n + F.m), Z, np.arange(F.n),
                           X0, lambda i: [X0[i], X0[i] + 1.0, X0[i] - 1.0])
    # F(k) = {g(k)}: the preimage of z is the set of atoms with value z
    return np.array([_nearest_atom(G, z, x0)
                     for z, x0 in zip(Z[:, 0], X0[:, 0])])


# atoms a discrete preimage search reaches from x0, and the most it adds
# to its window's radius in one step
_ATOM_REACH = 1e6
_ATOM_STEP = 2.0 ** 15


def _nearest_atom(G, z, x0):
    """|k - x0| for the atom k nearest x0 with g(k) = z, among those
    within _ATOM_REACH of x0; +inf when there is none.

    The window [x0 - R, x0 + R] grows from R = 1 by doubling R, by at
    most _ATOM_STEP a step, and each step evaluates only the atoms the
    window gained, in blocks small enough to stay in cache.  The first
    window that holds a hit holds the nearest one, since every atom
    outside it lies farther than R.  A miss evaluates each atom within
    reach once.
    """
    R, ks = 1.0, G._atom_range(x0 - 1.0, x0 + 1.0)
    while True:
        vals = G._atom_values(ks)
        hit = np.abs(vals - z) <= 1e-9 * (1.0 + np.abs(vals))
        if hit.any():
            return float(np.min(np.abs(ks[hit] - x0)))
        if R >= _ATOM_REACH:
            return INF
        lo, hi = math.ceil(x0 - R), math.floor(x0 + R)
        R = min(R + min(R, _ATOM_STEP), _ATOM_REACH)
        ks = np.concatenate([G._atom_range(x0 - R, lo - 1),
                             G._atom_range(hi + 1, x0 + R)])


def distance_to_image(F, x, y, cfg):
    """d_F(x, y) = dist(y, F(x)); +inf when F(x) is empty."""
    return float(distances_to_image(F, x, y, cfg)[0])


def dist_to_preimage(F, z, x0, cfg):
    """dist(x0, F^{-1}(z)) = inf{|x - x0| : z in F(x)}; +inf when empty."""
    return float(dists_to_preimage(F, z, x0, cfg)[0])


# ---------------------------------------------------------------------------
# Sum rule


def _sum_graph(F1, F2):
    e1 = F1.explicit_pieces()
    e2 = F2.explicit_pieces()
    if e1 is None or e2 is None:
        return None, None, None
    n, m = F1.n, F1.m
    conjs = []
    for r1, ex1 in e1:
        for r2, ex2 in e2:
            cmps = list(r1) + list(r2)
            for j in range(m):
                cmps.append(Comparison(_add(ex1[j], ex2[j]), "==",
                                       Var(n + j)))
            conjs.append(Conj(cmps))
    g = ClosedSet(n + m, pred=Predicate(conjs, n + m), split=(n, m),
                  name="gph %s+%s" % (F1.name, F2.name))
    return MultiMap(n, m, g, name="%s+%s" % (F1.name, F2.name)), e1, e2


def _eval_explicit(pieces_meta, X, m, eq_tol=1e-9):
    """Per-row value of an explicit map; rows outside every region get nan."""
    N = X.shape[0]
    out = np.full((N, m), np.nan)
    for rest, exprs in pieces_meta:
        if rest:
            pred = Predicate([Conj(list(rest))], X.shape[1])
            ok = eval_predicate(pred, X, eq_tol) >= dsl.BOUNDARY
        else:
            ok = np.ones(N, dtype=bool)
        rows = np.flatnonzero(ok & np.isnan(out[:, 0]))
        if rows.size:
            out[rows] = dsl.eval_columns(exprs, X[rows])
    return out


def _slice_cone(s, dim):
    """Conic content of a slice-at-0 HSlice as a RayCone."""
    if s.empty:
        return RayCone.empty(dim)
    dirs = [np.asarray(r, dtype=float) for r in s.recessions]
    for p in s.points:
        if np.linalg.norm(p) > 1e-6:
            dirs.append(np.asarray(p, dtype=float))
    return canonicalize(dirs, dim, nonempty=True)


def _default_v_grid(m):
    if m == 1:
        return [np.array([t]) for t in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    grid = [np.zeros(m)]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        grid.append(e.copy())
        grid.append(-e)
    return grid


def _graph_samples(F, ybar, cfg, j, count, label):
    """Shell-j graph samples of F: x escaping, values near ybar."""
    sh = Shell(range(F.n), cfg.radius(j), cfg.radius(j + 1),
               center=ybar, rho=cfg.rho(j))
    return F.graph.sample_shell(sh, count, cfg, label="%s|%d" % (label, j))


def _limit_sweep(F, ybar, cfg, label, values, blocks, mesh):
    """Shell sweep shared by the sum- and chain-rule verifiers.

    values(j, P) -> (V, X): value rows of the shell-j graph samples P and
    the base point of each.  Returns (sups, points): sups[b][j] is the
    largest norm of column block b in shell j (None without rows); points
    are the limit points of V, or None when some block diverges.
    """
    rows, trends = [], [[] for _ in blocks]
    for j in range(cfg.shells):
        P = _graph_samples(F, ybar, cfg, j, cfg.samples_per_shell // 2,
                           label)
        V, X = values(j, P) if len(P) else ((), ())
        rows.append(V)
        for blk, trend in zip(blocks, trends):
            if len(V) == 0:
                trend.append(None)
                continue
            norms = np.linalg.norm(V[:, blk], axis=1)
            i = int(np.argmax(norms))
            trend.append((float(norms[i]), float(np.linalg.norm(X[i]))))
    sups = [[None if t is None else t[0] for t in trend] for trend in trends]
    if any(divergent(trend) for trend in trends):
        return sups, None
    return sups, limit_points(rows, mesh, cfg.persistence_window)


def verify_sum_rule(F1, F2, ybar, v_grid, cfg):
    """Check the coderivative-at-infinity inclusion for F1 + F2 at ybar.

    Falsifies the boundedness condition (each summand value stays bounded
    when the sum approaches ybar at large x) and the constraint
    qualification (the two D*(0) slices meet conically only at 0); when
    neither falsifier fires, asserts for each v that every point of
    D*(F1+F2)(inf, ybar)(v) is explained by a sum of summand slice points
    over the sampled limit pairs.
    """
    if (F1.n, F1.m) != (F2.n, F2.m):
        raise SetError("summands must share dimensions")
    n, m = F1.n, F1.m
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    Fsum, e1, e2 = _sum_graph(F1, F2)
    if Fsum is None:
        return Verdict.inconclusive("unsupported: summands are not "
                                    "explicit single-valued maps")
    mesh = 0.05
    diag = {"j_plus_mesh": mesh}

    def values(j, P):
        X = P[:, :n]
        Y1 = _eval_explicit(e1, X, m)
        Y2 = _eval_explicit(e2, X, m)
        good = np.isfinite(Y1).all(axis=1) & np.isfinite(Y2).all(axis=1)
        return np.hstack([Y1, Y2])[good], X[good]

    # boundedness falsifier, then limit pairs (a, b) of the summand values
    norms, points = _limit_sweep(Fsum, ybar, cfg, "sum", values,
                                 [slice(0, m), slice(m, None)], mesh)
    if points is None:
        return Verdict.inconclusive("boundedness", summand_norms=norms,
                                    **diag)
    pairs = [(c[:m], c[m:]) for c in points]
    diag["j_plus"] = [[a.tolist(), b.tolist()] for a, b in pairs]
    if not pairs:
        return Verdict.inconclusive("no limit pairs sampled near ybar",
                                    **diag)
    cones1 = {}
    cones2 = {}
    for a, b in pairs:
        ka, kb = tuple(np.round(a, 6)), tuple(np.round(b, 6))
        if ka not in cones1:
            cones1[ka] = coderivative_at_infinity(F1, a, cfg,
                                                  label="sum1|%s" % (ka,))
        if kb not in cones2:
            cones2[kb] = coderivative_at_infinity(F2, b, cfg,
                                                  label="sum2|%s" % (kb,))
    # constraint qualification on the D*(0) conic parts
    for a, b in pairs:
        c1 = cones1[tuple(np.round(a, 6))].cone
        c2 = cones2[tuple(np.round(b, 6))].cone
        if c1.is_empty or c2.is_empty:
            continue
        s1 = _slice_cone(slice_hmap(c1, np.zeros(m), cfg.ang_tol, m), n)
        s2 = _slice_cone(slice_hmap(c2, np.zeros(m), cfg.ang_tol, m), n)
        if s1.status == Status.RAYS and s2.status == Status.RAYS:
            from .cones import cone_negate
            meet = cone_intersect(s1, cone_negate(s2), cfg.ang_tol)
            if meet.status == Status.RAYS:
                return Verdict.inconclusive(
                    "CQ", cq_pair=[a.tolist(), b.tolist()],
                    cq_ray=meet.rays[0].tolist(), **diag)
    left = coderivative_at_infinity(Fsum, ybar, cfg, label="sum0")
    diag["left_cone"] = left.cone.to_json()
    if left.cone.status != Status.RAYS:
        return Verdict.passed(**diag)
    if v_grid is None:
        v_grid = _default_v_grid(m)
    for v in v_grid:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        ls = slice_hmap(left.cone, v, cfg.ang_tol, m)
        if ls.empty:
            continue
        right_pts = []
        right_rec = []
        for a, b in pairs:
            c1 = cones1[tuple(np.round(a, 6))].cone
            c2 = cones2[tuple(np.round(b, 6))].cone
            if c1.is_empty or c2.is_empty:
                continue
            s1 = slice_hmap(c1, v, cfg.ang_tol, m)
            s2 = slice_hmap(c2, v, cfg.ang_tol, m)
            if s1.empty or s2.empty:
                continue
            for p1 in s1.points:
                for p2 in s2.points:
                    right_pts.append(p1 + p2)
            right_rec.extend(list(s1.recessions) + list(s2.recessions))
        tol = mesh + 0.05 * (1.0 + float(np.linalg.norm(v)))
        for p in ls.points:
            if not right_pts or \
                    min(np.linalg.norm(p - q) for q in right_pts) > tol:
                return Verdict.failed([v.tolist(), p.tolist()], **diag)
        if len(ls.recessions):
            rc = canonicalize(right_rec, n, nonempty=True) if right_rec \
                else RayCone.zero(n)
            for r in ls.recessions:
                if not contains_direction(rc, r, 2.0 * cfg.ang_tol):
                    return Verdict.failed([v.tolist(),
                                           ("recession", r.tolist())], **diag)
    return Verdict.passed(**diag)


# ---------------------------------------------------------------------------
# Chain rule


def _compose_graph(F1, F2):
    e1 = F1.explicit_pieces()
    if e1 is None or F2.graph.discrete is not None:
        return None
    n, p, m = F1.n, F1.m, F2.m
    conjs = []
    for rest, exprs in e1:
        for pc in F2.graph.pieces:
            mapping = {j: exprs[j] for j in range(p)}
            mapping.update({p + j: Var(n + j) for j in range(m)})
            cmps = list(rest)
            for c in pc.comparisons:
                cmps.append(Comparison(subst_vars(c.lhs, mapping), c.op,
                                       subst_vars(c.rhs, mapping)))
            conjs.append(Conj(cmps))
    g = ClosedSet(n + m, pred=Predicate(conjs, n + m), split=(n, m),
                  name="gph %s.%s" % (F2.name, F1.name))
    return MultiMap(n, m, g, name="%s.%s" % (F2.name, F1.name))


def verify_chain_rule(F1, F2, ybar, cfg, comp=None, v_grid=None):
    """Check the coderivative-at-infinity inclusion for F2 after F1.

    The composition graph comes from symbolic substitution when F1 is an
    explicit single-valued map, otherwise from the caller-supplied comp.
    Falsifies intermediate-value boundedness and the qualification
    D*F2(z, ybar)(0) meets ker D*F1(inf, z) only at 0 over the sampled
    intermediate limit values z.
    """
    if F1.m != F2.n:
        raise SetError("inner output dimension must match outer input")
    n, p, m = F1.n, F1.m, F2.m
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    e1 = F1.explicit_pieces()
    if comp is None:
        comp = _compose_graph(F1, F2)
    if comp is None:
        return Verdict.inconclusive("unsupported: inner map is not explicit "
                                    "and no composition graph was supplied")
    mesh = 0.05
    diag = {"j_mid_mesh": mesh}

    def values(j, P):
        """Intermediate values z with (x, z) in gph F1, (z, y) in gph F2."""
        X, Y = P[:, :n], P[:, n:]
        if e1 is not None:
            Z = _eval_explicit(e1, X, p)
            keep = np.isfinite(Z).all(axis=1)
            keep[keep] = distances_to_image(F2, Z[keep], Y[keep],
                                            cfg) <= 2 * mesh
            return Z[keep], X[keep]
        sel = np.linspace(0, len(P) - 1, min(len(P), 40)).round().astype(int)
        Zc = [F1.values_near(x, np.zeros(p), 5.0, 32, cfg,
                             label="chainz|%d" % j) for x in X[sel]]
        at = np.repeat(sel, [len(Zk) for Zk in Zc])
        Z = np.reshape(np.concatenate(Zc), (-1, p))
        keep = distances_to_image(F2, Z, Y[at], cfg) <= 2 * mesh
        return Z[keep], X[at[keep]]

    (znorms,), zbars = _limit_sweep(comp, ybar, cfg, "chain", values,
                                    [slice(None)], mesh)
    if zbars is None:
        # with escaping intermediates the quantifier set of the
        # qualification condition is empty, so neither hypothesis of the
        # chain rule can be affirmed
        return Verdict.inconclusive(
            "CQ unverifiable: intermediate values escape "
            "(boundedness condition fails, no limit values z)",
            intermediate_norms=znorms, **diag)
    diag["j_mid"] = [z.tolist() for z in zbars]
    if not zbars:
        return Verdict.inconclusive("no intermediate limit values sampled",
                                    **diag)
    inner = {}
    for z in zbars:
        kz = tuple(np.round(z, 6))
        inner[kz] = coderivative_at_infinity(F1, z, cfg,
                                             label="chain1|%s" % (kz,))

    outer_pt = {}

    def f2_point_cone(z):
        """Point cone of gph F2 at (z, ybar), snapping the mesh-accurate
        cluster center onto the graph first."""
        kz = tuple(np.round(z, 6))
        if kz not in outer_pt:
            w = np.concatenate([z, ybar])
            if not F2.graph.contains(w, cfg.eq_tol):
                try:
                    w = F2.graph.project(w, cfg).minimizers[0]
                except SetError:
                    outer_pt[kz] = None
                    return None
            outer_pt[kz] = limiting_normal_cone(F2.graph, w, cfg)
        return outer_pt[kz]
    # constraint qualification per intermediate limit value
    for z in zbars:
        kz = tuple(np.round(z, 6))
        c1 = inner[kz].cone
        if c1.is_empty:
            continue
        ker = hmap_kernel(c1, p)
        c2pt = f2_point_cone(z)
        if c2pt is None:
            continue
        d20 = _slice_cone(slice_hmap(c2pt, np.zeros(m), cfg.ang_tol, m), p)
        if ker.status == Status.RAYS and d20.status == Status.RAYS:
            meet = cone_intersect(d20, ker, cfg.ang_tol)
            if meet.status == Status.RAYS:
                return Verdict.inconclusive(
                    "CQ", cq_z=z.tolist(),
                    cq_ray=meet.rays[0].tolist(), **diag)
    left = coderivative_at_infinity(comp, ybar, cfg, label="chain0")
    diag["left_cone"] = left.cone.to_json()
    if left.cone.status != Status.RAYS:
        return Verdict.passed(**diag)
    if v_grid is None:
        v_grid = _default_v_grid(m)
    for v in v_grid:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        ls = slice_hmap(left.cone, v, cfg.ang_tol, m)
        if ls.empty:
            continue
        right_pts = []
        right_rec = []
        unbounded_mid = False
        for z in zbars:
            kz = tuple(np.round(z, 6))
            c1 = inner[kz].cone
            if c1.is_empty:
                continue
            c2pt = f2_point_cone(z)
            if c2pt is None:
                continue
            s2 = slice_hmap(c2pt, v, cfg.ang_tol, m)
            if s2.empty:
                continue
            if len(s2.recessions):
                unbounded_mid = True
            for w in s2.points:
                s1 = slice_hmap(c1, w, cfg.ang_tol, p)
                if s1.empty:
                    continue
                right_pts.extend(list(s1.points))
                right_rec.extend(list(s1.recessions))
        tol = mesh + 0.05 * (1.0 + float(np.linalg.norm(v)))
        for q in ls.points:
            ok = right_pts and \
                min(np.linalg.norm(q - w) for w in right_pts) <= tol
            if not ok:
                if unbounded_mid:
                    return Verdict.inconclusive(
                        "unbounded intermediate slice", at_v=v.tolist(),
                        **diag)
                return Verdict.failed([v.tolist(), q.tolist()], **diag)
        if len(ls.recessions):
            rc = canonicalize(right_rec, n, nonempty=True) if right_rec \
                else RayCone.zero(n)
            for r in ls.recessions:
                if not contains_direction(rc, r, 2.0 * cfg.ang_tol):
                    return Verdict.failed([v.tolist(),
                                           ("recession", r.tolist())], **diag)
    return Verdict.passed(**diag)


# ---------------------------------------------------------------------------
# Subdifferentials


def function_value(f, x):
    """Value of a piecewise FuncDef at x (first matching region)."""
    x = np.asarray(x, dtype=float).reshape(f.n)
    for region, value in f.pieces:
        if region is None or \
                eval_predicate(region, x[None, :], 1e-9)[0] >= dsl.BOUNDARY:
            with np.errstate(all="ignore"):
                return float(_ev(value, x[None, :])[0])
    raise SetError("point outside the function's domain")


def _horizontal_rays(cone, m, ang_tol):
    """Rays (a, b) of a graph-space cone with b ~ 0, as a RayCone over a."""
    n = cone.dim - m
    if cone.is_empty:
        return RayCone.empty(n)
    if cone.is_zero:
        return RayCone.zero(n)
    zero_b = np.sin(min(ang_tol, np.pi / 2.0))
    dirs = []
    for ray in cone.rays:
        a, b = ray[:n], ray[n:]
        if np.linalg.norm(b) <= zero_b and np.linalg.norm(a) > 1e-9:
            dirs.append(a)
    return canonicalize(dirs, n, nonempty=True)


def point_subdifferential(f, x, cfg):
    """(basic HSlice, singular RayCone) of f at x via the epigraph."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    fx = function_value(f, x)
    if not np.isfinite(fx):
        raise SetError("function value not finite at x")
    epi = epigraph_set(f)
    N = limiting_normal_cone(epi, np.concatenate([x, [fx]]), cfg)
    basic = slice_hmap(N, np.array([1.0]), cfg.ang_tol, 1)
    singular = _horizontal_rays(N, 1, cfg.ang_tol)
    return basic, singular


class SubdiffAtInfinity:
    __slots__ = ("basic", "singular", "diagnostics")

    def __init__(self, basic, singular, diagnostics=None):
        self.basic = basic
        self.singular = singular
        self.diagnostics = diagnostics or {}

    def __repr__(self):
        return "SubdiffAtInfinity(basic=%r, singular=%r)" % (self.basic,
                                                             self.singular)

    def to_json(self):
        return {"basic": self.basic.to_json(),
                "singular": self.singular.to_json(),
                "diagnostics": self.diagnostics}


def _graph_piece_values(f):
    """Value expression per graph piece, matching graph_of_function order."""
    out = []
    for region, value in f.pieces:
        k = 1 if region is None else len(region.conjs)
        out.extend([value] * k)
    return out


def subdifferential_at_infinity(f, ybar, cfg, label=""):
    """Limiting and singular subdifferentials of f at (infinity, ybar).

    Basic part: cluster-persistent gradient values along samples with
    f(x) near ybar and |x| through the shells.  Singular part:
    tail-persistent directions of gradients whose norm exceeds an
    escalating threshold, sampled over each piece's domain with boundary
    biasing (no value window: gradient blow-up feeding the singular cone
    may happen off the level set).
    """
    n = f.n
    ybar = float(np.atleast_1d(ybar)[0])
    Fg = MultiMap.from_funcdef(f)
    G = Fg.graph
    piece_vals = _graph_piece_values(f)
    grad_exprs = [gradient(v, n) for v in piece_vals]
    mesh = 0.02
    shell_grads = []
    for j in tail_levels(cfg.shells, cfg.persistence_window):
        P = _graph_samples(Fg, [ybar], cfg, j, cfg.samples_per_shell,
                           "sdb|" + (label or f.name))
        if len(P) == 0:
            shell_grads.append(())
            continue
        pstat = G.piece_status(P, cfg.eq_tol)
        member = pstat >= dsl.BOUNDARY
        X = P[:, :n]
        U = np.full((len(P), n), np.nan)
        for pi, gex in enumerate(grad_exprs):
            rows = np.flatnonzero(member[pi] & np.isnan(U[:, 0]))
            if rows.size:
                U[rows] = dsl.eval_columns(gex, X[rows])
        good = np.isfinite(U).all(axis=1) & \
            (np.linalg.norm(U, axis=1) <= 1e3)
        shell_grads.append(U[good])
    pts = limit_points(shell_grads, mesh, cfg.persistence_window)
    basic = HSlice(n, points=pts) if pts else HSlice.make_empty(n)

    # singular field over each piece's domain, no value window
    domain_sets = []
    for i, (region, value) in enumerate(f.pieces):
        if region is None:
            D = full_space(n, name="dom|%s|%d" % (f.name, i))
        else:
            D = ClosedSet(n, pred=region, name="dom|%s|%d" % (f.name, i))
        domain_sets.append((D, gradient(value, n)))

    def sample_domains(j):
        sh = Shell(range(n), cfg.radius(j), cfg.radius(j + 1))
        blocks = [D.sample_shell(sh, cfg.samples_per_shell, cfg,
                                 label="sds|%s|%d" % (label or f.name, j))
                  for D, _ in domain_sets]
        # rows are (domain index, x): each domain keeps its own gradient
        return np.vstack([np.column_stack((np.full(len(X), i), X))
                          for i, X in enumerate(blocks)])

    def singular_field(j, P):
        tau = 2.0 ** j
        dirs = []
        for i, (_, gex) in enumerate(domain_sets):
            X = P[P[:, 0] == i, 1:]
            if len(X) == 0:
                continue
            U = dsl.eval_columns(gex, X)
            finite = np.isfinite(U).all(axis=1)
            W = U[finite]
            # scale each row by its largest entry before taking the norm,
            # which overflows on finite entries above ~1e154
            big = np.abs(W).max(axis=1, initial=0.0)
            W, big = W[big > 0], big[big > 0]
            W /= big[:, None]
            wn = np.linalg.norm(W, axis=1)
            keep = big >= tau / wn
            if keep.any():
                dirs.append(W[keep] / wn[keep, None])
            # overflowed gradients blow up along their infinite components
            over = ~finite & ~np.isnan(U).any(axis=1)
            if over.any():
                D = np.where(np.isinf(U[over]), np.sign(U[over]), 0.0)
                D /= np.linalg.norm(D, axis=1, keepdims=True)
                dirs.append(D)
        return np.vstack(dirs) if dirs else np.zeros((0, n))

    res = outer_limit(singular_field,
                      ApproachSpec(n, sample_domains, cfg.shells), cfg)
    singular = res.cone
    if singular.is_empty:
        singular = RayCone.zero(n)
    return SubdiffAtInfinity(basic, singular,
                             diagnostics={"singular_converged": res.converged,
                                          "mesh": mesh})


def check_prop314(f, ybar, cfg):
    """Graph-coderivative consistency of the subdifferentials at infinity.

    (i) the basic subdifferential should equal the graph coderivative
    slice at v = 1; (ii) the singular cone should be contained in the
    conic slice at v = 0.  Independent pipelines: left sides come from
    gradient-field sampling, right sides from graph normal cones.  Each
    part compares both sides under one approach: (i) uses the value
    window at ybar on both sides, (ii) is window-free on both sides,
    slicing the total graph normal cone at infinity, since the singular
    part samples gradient blow-up off the level set too.
    Reports whether the (ii) inclusion is strict.
    """
    n = f.n
    sub = subdifferential_at_infinity(f, ybar, cfg, label="p314")
    Fg = MultiMap.from_funcdef(f)
    cod = coderivative_at_infinity(Fg, np.atleast_1d(ybar), cfg,
                                   label="p314g")
    diag = {"basic": sub.basic.to_json(), "singular": sub.singular.to_json(),
            "graph_cone": cod.cone.to_json()}
    if cod.cone.is_empty:
        return Verdict.inconclusive("graph cone empty at infinity", **diag)
    right1 = slice_hmap(cod.cone, np.array([1.0]), cfg.ang_tol, 1)
    diag["d_star_1"] = right1.to_json()
    from .cones import hslice_distance
    # horizon rays of the graph cone enter every nonzero slice as
    # recession directions (an over-approximation of the exact slice);
    # the equality check is on the bounded parts
    if right1.empty or len(right1.points) == 0:
        right1_pts = HSlice.make_empty(n) if right1.empty else right1
    else:
        right1_pts = HSlice(n, points=right1.points)
    d1 = hslice_distance(sub.basic, right1_pts)
    diag["basic_gap"] = None if np.isinf(d1) else float(d1)
    if d1 > 0.05:
        return Verdict.failed({"part": "i", "gap": diag["basic_gap"]}, **diag)
    total = normal_cone_at_infinity_total(Fg.graph, cfg, label="p314t")
    right0 = _slice_cone(slice_hmap(total.cone, np.zeros(1), cfg.ang_tol, 1),
                         n)
    diag["d_star_0"] = right0.to_json()
    if sub.singular.status == Status.RAYS:
        if right0.status != Status.RAYS:
            return Verdict.failed(
                {"part": "ii", "ray": sub.singular.rays[0].tolist()}, **diag)
        for r in sub.singular.rays:
            if not contains_direction(right0, r, 2.0 * cfg.ang_tol):
                return Verdict.failed({"part": "ii", "ray": r.tolist()},
                                      **diag)
    strict = False
    if right0.status == Status.RAYS:
        if sub.singular.status != Status.RAYS:
            strict = True
        else:
            strict = any(
                not contains_direction(sub.singular, r, 2.0 * cfg.ang_tol)
                for r in right0.rays)
    diag["strict"] = strict
    return Verdict.passed(**diag)
