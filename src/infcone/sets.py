"""Closed-set oracles: membership, distance, projection, shell sampling.

A ClosedSet is either a union of predicate "pieces" (each an
inequality/equality system from the DSL, in DNF) or a discrete graph
{(k, g(k)) : k integer}.  On top of the membership oracle this module
provides the two sampling primitives everything else is built on:

* sample_shell -- members with the escaping coordinate block in a radius
  shell and the remaining block in a small ball, with equality constraints
  repaired by per-point 1-D Newton steps and inequality boundaries biased
  (plus a geometric offset ladder, so gradient blow-up near a boundary is
  visible to the normal fields).  A Newton step that takes its coordinate
  out of the shell ends that point's repair as a failure: a root out
  there fails the shell filter, and few points come back;
* frechet_field / projection_dir_field -- per-sample normal directions via
  active constraint gradients, or via projection of nearby outside probes.

Shell sampling biases an inequality to its boundary only in pieces with no
equality constraint: equality-carrying pieces are curves/manifolds whose
generic stratum is the equality itself.
"""

import io
import math

import numpy as np

from numpy.polynomial import polynomial as npoly

from . import dsl
from .dsl import (Bin, Call, Comparison, Conj, Neg, Num, Pow, Predicate, Var,
                  _ev, _eval_conj, free_vars, shift_vars)


class SetError(Exception):
    pass


class ProjectionFailure(SetError):
    """No feasible projection found within budget; carries best residual."""

    def __init__(self, message, best_residual):
        super().__init__(message)
        self.best_residual = float(best_residual)


class Shell:
    """Sampling region: x-block norm in [r_lo, r_hi], rest near center.

    x_idx are the escaping coordinates; center (may be None when x_idx
    covers everything) is the target for the remaining block, rho its
    radius.
    """

    __slots__ = ("x_idx", "r_lo", "r_hi", "center", "rho")

    def __init__(self, x_idx, r_lo, r_hi, center=None, rho=0.0):
        self.x_idx = tuple(int(i) for i in x_idx)
        if not self.x_idx:
            raise SetError("shell needs at least one escaping coordinate")
        if not 0.0 < r_lo < r_hi < np.inf:
            raise SetError("shell radii must satisfy 0 < r_lo < r_hi < inf")
        if not 0.0 <= rho < np.inf:
            raise SetError("shell rho must be finite and >= 0")
        self.r_lo = float(r_lo)
        self.r_hi = float(r_hi)
        self.center = None if center is None \
            else np.asarray(center, dtype=float)
        if self.center is not None and not np.isfinite(self.center).all():
            raise SetError("shell center must be finite")
        self.rho = float(rho)

    def rest_idx(self, dim):
        inside = set(self.x_idx)
        return np.array([i for i in range(dim) if i not in inside], dtype=int)

    def __repr__(self):
        return "Shell(x=%r, [%g, %g], rho=%g)" % (
            self.x_idx, self.r_lo, self.r_hi, self.rho)


class ProjectionResult:
    __slots__ = ("query", "dist", "minimizers", "quality")

    def __init__(self, query, dist, minimizers, quality):
        self.query = np.asarray(query, dtype=float)
        self.dist = float(dist)
        self.minimizers = [np.asarray(m, dtype=float) for m in minimizers]
        self.quality = float(quality)

    def __repr__(self):
        return "ProjectionResult(dist=%.6g, minimizers=%d)" % (
            self.dist, len(self.minimizers))

    def to_json(self):
        return {"query": self.query.tolist(), "dist": self.dist,
                "minimizers": [m.tolist() for m in self.minimizers],
                "quality": self.quality}


class Piece:
    """One conjunction of comparisons; caches gradients and fiber structure."""

    __slots__ = ("conj", "comparisons", "dim", "eq_idx", "ineq_idx",
                 "fiber_cache")

    def __init__(self, conj, dim):
        self.conj = conj
        self.comparisons = conj.comparisons
        self.dim = int(dim)
        self.eq_idx = [i for i, c in enumerate(self.comparisons) if c.is_eq]
        self.ineq_idx = [i for i, c in enumerate(self.comparisons)
                         if not c.is_eq]
        self.fiber_cache = {}

    def gval(self, ci, P):
        with np.errstate(all="ignore"):
            return self._gval(ci, P)

    def rhs_scale(self, ci, P):
        with np.errstate(all="ignore"):
            return self._rhs_scale(ci, P)

    # gval and rhs_scale for callers that hold np.errstate(all="ignore")
    def _gval(self, ci, P):
        g = _ev(self.comparisons[ci].g, P)
        return np.where(np.isnan(g), np.inf, g)

    def _rhs_scale(self, ci, P):
        r = _ev(self.comparisons[ci].rhs, P)
        return 1.0 + np.abs(np.where(np.isfinite(r), r, 0.0))

    def grad(self, ci, P):
        """(N, dim) gradient of g at P; raises dsl.NonSmooth."""
        return dsl.eval_columns(self.comparisons[ci].grad_exprs(self.dim), P)

    def residual(self, P):
        """Max scaled constraint violation per point (0 when satisfied)."""
        out = np.zeros(P.shape[0])
        with np.errstate(all="ignore"):
            for ci, c in enumerate(self.comparisons):
                g = self._gval(ci, P)
                v = np.abs(g) if c.is_eq else np.maximum(g, 0.0)
                out = np.maximum(out, v / self._rhs_scale(ci, P))
        return out

    def accepts(self, V):
        """(residual, ok) per row of the (N, dim) points V: the
        projections' feasibility test, residual <= 1e-7 (1 + |v|)."""
        resid = self.residual(V)
        return resid, resid <= 1e-7 * (1.0 + row_norms(V))

    def active_generators(self, Q):
        """The unit outward gradients of the comparisons active at each
        row of the (N, dim) points Q, in comparison order, with u and -u
        for an equality, as (A, have, ok): row r's generators are
        A[r, have[r]], and ok[r] is False where the analytic picture
        breaks down.  That is every row of a piece with a nonsmooth
        comparison (which depends on its symbols, never on the row), and
        a row where an active comparison's gradient is not finite.
        """
        N = len(Q)
        ok = np.full(N, all(c.smooth for c in self.comparisons))
        slots = []          # (rows, unit gradients) per generator
        # a nonsmooth piece, or no rows: nothing to evaluate
        for ci, c in enumerate(self.comparisons if ok.any() else ()):
            act = ok.copy() if c.is_eq else ok & (
                np.abs(self.gval(ci, Q)) <= _ACT_TOL * self.rhs_scale(ci, Q))
            rows = np.flatnonzero(act)
            if rows.size == 0:
                continue
            try:
                G = self.grad(ci, Q[rows])
            except dsl.NonSmooth:
                ok[rows] = False
                continue
            with np.errstate(all="ignore"):
                nrm = row_norms(G)
            # an active constraint with a blown-up gradient: the analytic
            # generator picture is unreliable at that row
            bad = ~(np.isfinite(nrm) & np.isfinite(G).all(axis=1))
            ok[rows[bad]] = False
            use = ~bad & (nrm > 1e-9)
            U = G[use] / nrm[use, None]
            slots.append((rows[use], U))
            if c.is_eq:
                slots.append((rows[use], -U))
        A = np.zeros((N, len(slots), self.dim))
        have = np.zeros((N, len(slots)), dtype=bool)
        for k, (rows, U) in enumerate(slots):
            A[rows, k] = U
            have[rows, k] = True
        return A, have, ok


def row_norms(R):
    """Euclidean norm of each row of the (N, d) array R, bit for bit that
    of np.linalg.norm(row): one dot product per row, where a sum or an
    einsum along the rows rounds differently in the last bit."""
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


# offset ladder for inequality biasing: mostly exact boundary, plus points
# at geometrically spaced interior distances so that constraint-gradient
# blow-up adjacent to the boundary shows up in sampled normal fields
_LADDER = np.array([0.0, 0.0, 0.0, 0.0, 1e-3, 1e-4, 1e-5, 1e-6,
                    1e-8, 1e-10, 1e-12])

_NEWTON_ITERS = 60
_NEWTON_ACCEPT = 1e-10
_ACT_TOL = 1e-6
# consecutive rounds that accept nothing before a sampler gives up: the
# region is empty or unreachable (no suite shell ever accepts after this)
_DRY_ROUNDS = 4

# relative change of |v - q|^2 per iteration below which an accepted SLSQP
# iterate counts as settled (nearest_points)
_SETTLE_RTOL = 1e-13
# highest degree _poly_in builds; past it the fiber goes to SLSQP
_POLY_MAX_DEG = 16


def _poly_in(e, k, q):
    """Coefficients, lowest degree first, of e as a polynomial in
    coordinate k with the other coordinates held at q; None when e is not
    one of degree _POLY_MAX_DEG or less, or a coefficient is not finite."""
    if isinstance(e, Num):
        p = np.array([e.val])
    elif isinstance(e, Var):
        p = np.array([0.0, 1.0]) if e.idx == k else np.array([q[e.idx]])
    elif isinstance(e, Call):
        if k in free_vars(e):
            return None
        p = np.array([dsl.eval_expr(e, q)])
    elif isinstance(e, Neg):
        p = _poly_in(e.arg, k, q)
        return None if p is None else -p
    elif isinstance(e, Pow):
        p = _poly_in(e.base, k, q)
        if p is None or e.exp < 0 \
                or (len(p) - 1) * e.exp > _POLY_MAX_DEG:
            return None
        p = npoly.polypow(p, e.exp)
    elif isinstance(e, Bin):
        a, b = _poly_in(e.l, k, q), _poly_in(e.r, k, q)
        if a is None or b is None:
            return None
        if e.op == "+":
            p = npoly.polyadd(a, b)
        elif e.op == "-":
            p = npoly.polysub(a, b)
        elif e.op == "*" and len(a) + len(b) - 2 <= _POLY_MAX_DEG:
            p = npoly.polymul(a, b)
        elif e.op == "/" and len(b) == 1 and b[0] != 0.0:
            p = a / b[0]
        else:
            return None
    else:
        return None
    return p if np.isfinite(p).all() else None


def _line_candidates(piece, q, k, cis):
    """Points of coordinate k that contain the nearest point to q[k] of the
    piece's fiber along v_k, or None unless every comparison in cis is a
    polynomial in v_k.

    A closed subset of the line meets its nearest point to q[k] at q[k] or
    at a boundary point, where some comparison holds with equality; so
    q[k] and the roots of each comparison contain it.  Complex roots give
    their real part: rounding moves a double root off the axis.  One Newton
    step polishes each root where it lowers |p|.
    """
    cands = [np.array([q[k]])]
    for ci in cis:
        p = _poly_in(piece.comparisons[ci].g, k, q)
        if p is None:
            return None
        p = np.trim_zeros(p, "b")
        if len(p) < 2:
            continue
        r = npoly.polyroots(p).real
        with np.errstate(all="ignore"):
            t = r - npoly.polyval(r, p) / npoly.polyval(r, npoly.polyder(p))
            better = np.abs(npoly.polyval(t, p)) < np.abs(npoly.polyval(r, p))
        cands.extend(np.array([x]) for x in np.where(better, t, r))
    return cands


def nearest_points(piece, q, free_idx, cis, starts):
    """Candidate nearest points to q of the piece's points that agree with
    q off the coordinates free_idx.

    The comparisons cis are the constraints; the piece's other comparisons
    must not involve a free coordinate.  A start and each yielded result
    hold the free coordinates alone.  With one free coordinate and
    polynomial constraints, the results are the roots of _line_candidates
    and the starts go unused.  Otherwise they are SLSQP runs of
    min |v - q|^2, one per start.  Each run stops at maxiter=200, at
    ftol=1e-14, or (status 99) at an iterate that passes Piece.accepts
    once |v - q|^2 has changed by at most _SETTLE_RTOL of itself over each
    of the last two iterations: ftol is an absolute bound, and at
    |v - q|^2 of 1e4 and more float rounding never gets below it.  An
    iterate that fails Piece.accepts is never stopped early, since
    stalled infeasible starts can still escape.  Runs that raise are
    skipped.
    """
    if len(free_idx) == 1:
        cands = _line_candidates(piece, q, int(free_idx[0]), cis)
        if cands is not None:
            yield from cands
            return
    from scipy.optimize import minimize
    target = q[free_idx]

    def embed(z):
        v = q.copy()
        v[free_idx] = z
        return v

    cons = []
    for ci in cis:
        c = piece.comparisons[ci]
        sgn = 1.0 if c.is_eq else -1.0

        def fun(z, ci=ci, sgn=sgn):
            return sgn * float(piece.gval(ci, embed(z)[None, :])[0])

        entry = {"type": "eq" if c.is_eq else "ineq", "fun": fun}
        if c.smooth:
            def jac(z, ci=ci, sgn=sgn):
                g = piece.grad(ci, embed(z)[None, :])[0, free_idx]
                return sgn * np.where(np.isfinite(g), g, 0.0)
            entry["jac"] = jac
        cons.append(entry)

    for st in starts:
        seen = []

        def settle(zk):
            f = float(np.sum((zk - target) ** 2))
            seen.append(f)
            if len(seen) >= 3 \
                    and abs(f - seen[-2]) <= _SETTLE_RTOL * f \
                    and abs(seen[-2] - seen[-3]) <= _SETTLE_RTOL * f \
                    and piece.accepts(embed(zk)[None, :])[1][0]:
                raise StopIteration

        try:
            res = minimize(
                lambda z: float(np.sum((z - target) ** 2)), st,
                jac=lambda z: 2.0 * (z - target),
                constraints=cons, method="SLSQP", callback=settle,
                options={"maxiter": 200, "ftol": 1e-14})
        except (ValueError, OverflowError):
            continue
        yield np.asarray(res.x, dtype=float)


def _choose_columns(allowed, u):
    """Pick one True column per row by its uniform draw u; -1 when none.
    A loop over the few (2-3) columns beats reductions along them."""
    cols = list(allowed.T)
    target = np.floor(u * np.maximum(sum(cols), 1))
    col = np.full(len(u), -1)
    seen = 0
    for k, c in enumerate(cols):
        seen = seen + c
        col[(col < 0) & (seen > target)] = k
    return col


def _interleave(arrays):
    """Round-robin merge of (k_i, dim) arrays, preserving inner order."""
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return None
    rank = np.concatenate([np.arange(len(a)) for a in arrays])
    return np.vstack(arrays)[np.argsort(rank, kind="stable")]


class ClosedSet:
    """Union of smooth predicate pieces, or a discrete integer graph."""

    def __init__(self, dim, pred=None, discrete=None, split=None,
                 unbounded=True, name=""):
        self.dim = int(dim)
        self.pred = pred
        self.discrete = discrete
        self.split = tuple(split) if split is not None else None
        self.unbounded = bool(unbounded)
        self.name = name
        if (pred is None) == (discrete is None):
            raise SetError("exactly one of pred/discrete required")
        if pred is not None:
            if pred.dim != self.dim:
                raise SetError("predicate dimension mismatch")
            self.pieces = [Piece(c, self.dim) for c in pred.conjs]
        else:
            if self.dim != 2:
                raise SetError("discrete graphs are (k, g(k)) in the plane")
            self.pieces = []

    @classmethod
    def from_setdef(cls, sd, split=None):
        return cls(sd.dim, pred=sd.pred, split=split, unbounded=sd.unbounded,
                   name=sd.name)

    def __repr__(self):
        kind = "discrete" if self.discrete else "%d pieces" % len(self.pieces)
        return "ClosedSet(%r, dim=%d, %s)" % (self.name, self.dim, kind)

    # -- membership -------------------------------------------------------

    def status(self, P, eq_tol=1e-9):
        """Inside/Boundary/Outside classification (vectorized)."""
        if self.discrete is not None:
            P = np.asarray(P, dtype=float)
            single = P.ndim == 1
            if single:
                P = P[None, :]
            d = self._discrete_dist(P)
            tol = eq_tol * (1.0 + np.linalg.norm(P, axis=1))
            st = np.where(d <= tol, dsl.BOUNDARY, dsl.OUTSIDE)
            return int(st[0]) if single else st
        return dsl.eval_predicate(self.pred, P, eq_tol)

    def contains(self, x, eq_tol=1e-9):
        return self.status(np.asarray(x, dtype=float), eq_tol) >= dsl.BOUNDARY

    def piece_status(self, P, eq_tol=1e-9):
        """(n_pieces, N) per-piece classification."""
        return np.stack([_eval_conj(pc.conj, P, eq_tol)
                         for pc in self.pieces])

    def _atom_values(self, k):
        with np.errstate(all="ignore"):
            return _ev(self.discrete["atom"], k.reshape(-1, 1))

    def _atom_range(self, lo, hi):
        lo, hi = math.ceil(lo), math.floor(hi)
        if self.discrete["domain"] == "naturals":
            lo = max(lo, 0)
        if hi < lo:
            return np.zeros(0)
        return np.arange(lo, hi + 1, dtype=float)

    def _discrete_dist(self, P):
        x, y = P[:, 0], P[:, 1]
        k0 = np.round(x)
        best = np.full(len(P), np.inf)
        for off in range(-2, 3):
            k = k0 + off
            if self.discrete["domain"] == "naturals":
                k = np.maximum(k, 0.0)
            gy = self._atom_values(k)
            d = np.hypot(x - k, y - gy)
            best = np.minimum(best, np.where(np.isfinite(d), d, np.inf))
        return best

    def approx_dist(self, P):
        """First-order distance estimate (exact for discrete graphs)."""
        P = np.asarray(P, dtype=float)
        single = P.ndim == 1
        if single:
            P = P[None, :]
        if self.discrete is not None:
            d = self._discrete_dist(P)
            return float(d[0]) if single else d
        out = np.full(P.shape[0], np.inf)
        for pc in self.pieces:
            acc = np.zeros(P.shape[0])
            for ci, c in enumerate(pc.comparisons):
                g = pc.gval(ci, P)
                v = np.abs(g) if c.is_eq else np.maximum(g, 0.0)
                gn = np.ones(P.shape[0])
                if c.smooth:
                    try:
                        G = pc.grad(ci, P)
                        n = np.linalg.norm(G, axis=1)
                        gn = np.where(np.isfinite(n) & (n > 1e-9), n, 1.0)
                    except dsl.NonSmooth:
                        pass
                acc = np.maximum(acc, v / gn)
            out = np.minimum(out, acc)
        return float(out[0]) if single else out

    # -- shell sampling ---------------------------------------------------

    def _newton_to(self, piece, ci, P, rows, locked, rng, target, box):
        """Drive g_ci(P) to `target` on masked rows by per-point 1-D Newton.

        Each point varies one randomly chosen coordinate (not previously
        locked, gradient entry nonzero); that coordinate is then locked so
        later equalities vary a different one.  Returns a success mask
        (aligned with P); untouched rows report False.

        box = (mid, lo, hi), one entry per column, is the region the
        caller's final filter accepts.  A row whose moved coordinate v_c
        breaks lo[c] <= |v_c - mid[c]| <= hi[c] after a step stops there
        and fails: a root it reached out there would keep that coordinate
        (the column is locked) and fail the filter.

        Only the rows still moving are evaluated: per row, the arithmetic
        and the random draw of a full-batch evaluation.
        """
        mid, lo, hi = box
        B = P.shape[0]
        succ = np.zeros(B, dtype=bool)
        if not rows.any():
            return succ
        target = np.broadcast_to(np.asarray(target, dtype=float), (B,))
        idx = np.flatnonzero(rows)
        Q = P.take(idx, axis=0)  # take: far cheaper than P[idx] on rows
        resid = piece.gval(ci, Q) - target[idx]
        # rows already on target need no Newton step (they still get a
        # column, which is locked below)
        done = np.abs(resid) <= _NEWTON_ACCEPT * piece.rhs_scale(ci, Q)
        succ[idx[done]] = True
        if done.all():
            return succ
        G = piece.grad(ci, Q)
        col = _choose_columns(
            np.isfinite(G) & (np.abs(G) > 1e-9) & ~locked.take(idx, axis=0),
            rng.random(B)[idx])
        keep = ~done & (col >= 0)
        act, resid, colc = idx[keep], resid[keep], col[keep]
        gc = G[keep, colc]
        for it in range(_NEWTON_ITERS):
            if not act.size:
                break
            if it:  # the first pass reuses the values computed above
                Q = P.take(act, axis=0)
                resid = piece.gval(ci, Q) - target[act]
                conv = np.abs(resid) <= _NEWTON_ACCEPT \
                    * piece.rhs_scale(ci, Q)
                if conv.any():
                    succ[act[conv]] = True
                    if conv.all():
                        break
                    stay = ~conv
                    act, resid, colc = act[stay], resid[stay], colc[stay]
                    Q = Q.compress(stay, axis=0)
                gc = piece.grad(ci, Q)[np.arange(act.size), colc]
            with np.errstate(all="ignore"):
                step = resid / np.where(np.abs(gc) > 1e-14, gc, np.nan)
            fin = np.isfinite(step)
            if not fin.all():
                act, step, colc = act[fin], step[fin], colc[fin]
            x = P[act, colc]
            cap = 4.0 * (np.abs(x) + np.abs(target[act]) + 10.0)
            x = x - np.clip(step, -cap, cap)
            P[act, colc] = x
            off = np.abs(x - mid[colc])
            inside = (off >= lo[colc]) & (off <= hi[colc])
            if not inside.all():
                act, colc = act[inside], colc[inside]
        good = succ[idx] & (col >= 0)
        locked[idx[good], col[good]] = True
        return succ

    def _repair_and_bias(self, piece, P, ok, locked, rng, box):
        """Inequality boundary biasing, then equality repair, each Newton
        step kept in `box` (see _newton_to).

        Biasing runs first and locks the column it moved, so the equality
        repair afterwards has to solve for a different coordinate and the
        bias offset survives.  A repair step may still disturb another
        biased inequality sharing variables; such rows fail the final
        membership filter and only cost yield.
        """
        biasable = [ci for ci in piece.ineq_idx
                    if piece.comparisons[ci].smooth]
        if biasable:
            B = P.shape[0]
            mask = ok & (rng.random(B) < 0.5)
            choice = rng.integers(0, len(biasable), B)
            delta = _LADDER[rng.integers(0, len(_LADDER), B)]
            for t, ci in enumerate(biasable):
                rows = mask & (choice == t)
                if rows.any():
                    succ = self._newton_to(piece, ci, P, rows, locked, rng,
                                           -delta, box)
                    ok &= succ | ~rows
        for ci in piece.eq_idx:
            if not piece.comparisons[ci].smooth:
                ok[:] = False
                return
            ok &= self._newton_to(piece, ci, P, ok, locked, rng, 0.0, box)

    def sample_shell(self, shell, count, cfg, label=""):
        """Up to `count` members in the shell; deterministic given labels."""
        if self.discrete is not None:
            return self._sample_shell_discrete(shell, count)
        dim = self.dim
        x_idx = np.asarray(shell.x_idx, dtype=int)
        rest_idx = shell.rest_idx(dim)
        if rest_idx.size and shell.center is None:
            raise SetError("shell leaves coordinates free but has no center")
        rng = cfg.rng("shell", self.name, label, len(x_idx),
                      "%.6e" % shell.r_lo)
        # the final filter's bounds, column by column, for the Newton steps
        mid, lo, hi = np.zeros(dim), np.zeros(dim), np.zeros(dim)
        hi[x_idx] = shell.r_hi * (1.0 + 1e-9)
        if len(x_idx) == 1:
            lo[x_idx] = shell.r_lo * (1.0 - 1e-9)
        if rest_idx.size:
            mid[rest_idx] = shell.center
            hi[rest_idx] = shell.rho * (1.0 + 1e-9)
        per_piece = [[] for _ in self.pieces]
        got = 0
        dry = 0
        for _ in range(cfg.max_rounds):
            if got >= count or dry >= _DRY_ROUNDS:
                break
            B = int(min(max(256, 2 * (count - got)), 8192))
            for pi, piece in enumerate(self.pieces):
                P = np.empty((B, dim))
                if len(x_idx) == 1:
                    r = rng.uniform(shell.r_lo, shell.r_hi, B)
                    P[:, x_idx[0]] = r * rng.choice([-1.0, 1.0], B)
                else:
                    d = rng.standard_normal((B, len(x_idx)))
                    d /= np.linalg.norm(d, axis=1, keepdims=True)
                    r = rng.uniform(shell.r_lo, shell.r_hi, B)
                    P[:, x_idx] = d * r[:, None]
                if rest_idx.size:
                    u = rng.standard_normal((B, len(rest_idx)))
                    u /= np.linalg.norm(u, axis=1, keepdims=True)
                    rad = shell.rho * rng.random(B) ** (1.0 / len(rest_idx))
                    P[:, rest_idx] = shell.center + u * rad[:, None]
                ok = np.ones(B, dtype=bool)
                locked = np.zeros((B, dim), dtype=bool)
                try:
                    self._repair_and_bias(piece, P, ok, locked, rng,
                                          (mid, lo, hi))
                except dsl.NonSmooth:
                    ok[:] = False
                if not ok.any():
                    continue
                ok &= np.isfinite(P).all(axis=1)
                st = self.status(P, cfg.eq_tol)
                ok &= st >= dsl.BOUNDARY
                xn = np.linalg.norm(P[:, x_idx], axis=1)
                ok &= (xn >= shell.r_lo * (1.0 - 1e-9)) \
                    & (xn <= shell.r_hi * (1.0 + 1e-9))
                if rest_idx.size:
                    rn = np.linalg.norm(P[:, rest_idx] - shell.center, axis=1)
                    ok &= rn <= shell.rho * (1.0 + 1e-9)
                if ok.any():
                    per_piece[pi].append(P[ok])
            new_got = sum(len(a) for lst in per_piece for a in lst)
            dry = dry + 1 if new_got == got else 0
            got = new_got
        merged = _interleave([np.vstack(lst) for lst in per_piece if lst])
        if merged is None:
            return np.zeros((0, dim))
        return merged[:count]

    def _sample_shell_discrete(self, shell, count):
        if tuple(shell.x_idx) != (0,):
            raise SetError("discrete graphs escape along the first "
                           "coordinate only")
        ks = []
        ks.append(self._atom_range(shell.r_lo, shell.r_hi))
        if self.discrete["domain"] == "integers":
            ks.append(self._atom_range(-shell.r_hi, -shell.r_lo))
        k = np.concatenate(ks)
        if k.size == 0:
            return np.zeros((0, 2))
        y = self._atom_values(k)
        keep = np.isfinite(y)
        if shell.center is not None:
            keep &= np.abs(y - shell.center[0]) <= shell.rho
        k, y = k[keep], y[keep]
        if len(k) > count:
            sel = np.linspace(0, len(k) - 1, count).round().astype(int)
            k, y = k[sel], y[sel]
        return np.stack([k, y], axis=1)

    def sample_fiber(self, xval, center, radius, count, cfg, label=""):
        """Sample the slice {y : (xval, y) in S} near center (split sets)."""
        if self.split is None:
            raise SetError("sample_fiber needs split metadata")
        n, m = self.split
        xval = np.asarray(xval, dtype=float)
        center = np.asarray(center, dtype=float)
        if self.discrete is not None:
            k = float(np.round(xval[0]))
            if abs(xval[0] - k) > 1e-9 * (1.0 + abs(k)):
                return np.zeros((0, m))
            if self.discrete["domain"] == "naturals" and k < 0:
                return np.zeros((0, m))
            y = self._atom_values(np.array([k]))[0]
            if np.isfinite(y) and abs(y - center[0]) <= radius:
                return np.array([[y]])
            return np.zeros((0, m))
        rng = cfg.rng("fiber", self.name, label,
                      np.round(xval, 9).tobytes().hex(), "%.6e" % radius)
        out = []
        got = 0
        dry = 0
        ycols = np.arange(n, n + m)
        # y within the filter's radius of center; x is locked
        mid, lo, hi = np.zeros(self.dim), np.zeros(self.dim), \
            np.full(self.dim, np.inf)
        mid[ycols] = center
        hi[ycols] = radius * (1.0 + 1e-9)
        for _ in range(cfg.max_rounds // 2):
            if got >= count or dry >= _DRY_ROUNDS:
                break
            B = int(min(max(128, 2 * (count - got)), 4096))
            for piece in self.pieces:
                P = np.empty((B, self.dim))
                P[:, :n] = xval
                u = rng.standard_normal((B, m))
                u /= np.linalg.norm(u, axis=1, keepdims=True)
                rad = radius * rng.random(B) ** (1.0 / m)
                P[:, ycols] = center + u * rad[:, None]
                ok = np.ones(B, dtype=bool)
                locked = np.zeros((B, self.dim), dtype=bool)
                locked[:, :n] = True
                try:
                    self._repair_and_bias(piece, P, ok, locked, rng,
                                          (mid, lo, hi))
                except dsl.NonSmooth:
                    ok[:] = False
                if not ok.any():
                    continue
                ok &= np.isfinite(P).all(axis=1)
                ok &= self.status(P, cfg.eq_tol) >= dsl.BOUNDARY
                ok &= np.linalg.norm(P[:, ycols] - center, axis=1) \
                    <= radius * (1.0 + 1e-9)
                if ok.any():
                    out.append(P[ok][:, ycols])
            new_got = sum(len(a) for a in out)
            dry = dry + 1 if new_got == got else 0
            got = new_got
        if not out:
            return np.zeros((0, m))
        return np.vstack(out)[:count]

    # -- projection -------------------------------------------------------

    def project(self, q, cfg, starts=None):
        q = np.asarray(q, dtype=float)
        if self.discrete is not None:
            return self._project_discrete(q)
        if self.contains(q, cfg.eq_tol):
            return ProjectionResult(q, 0.0, [q], 0.0)
        n_starts = cfg.projection_starts if starts is None else starts
        rng = cfg.rng("project", self.name,
                      np.round(q, 9).tobytes().hex())
        qn = 1.0 + np.linalg.norm(q)
        cand = []
        best_resid = np.inf
        for piece in self.pieces:
            pts = [q]
            scales = (0.05, 0.2, 1.0, 3.0)
            for k in range(max(n_starts - 1, len(scales))):
                s = scales[k % len(scales)]
                pts.append(q + s * qn * rng.standard_normal(self.dim))
            for x in nearest_points(piece, q, np.arange(self.dim),
                                    range(len(piece.comparisons)),
                                    pts[:max(n_starts, 1) + 1]):
                if not np.isfinite(x).all():
                    continue
                resid, ok = piece.accepts(x[None, :])
                resid = float(resid[0])
                best_resid = min(best_resid, resid)
                if ok[0]:
                    cand.append((float(np.linalg.norm(x - q)), x, resid))
        if not cand:
            raise ProjectionFailure(
                "no feasible projection found (best residual %.3g)"
                % best_resid, best_resid)
        cand.sort(key=lambda t: t[0])
        best = cand[0][0]
        thr = best * (1.0 + 1e-6) + 1e-12
        minimizers, quality = [], 0.0
        for d, x, resid in cand:
            if d > thr:
                break
            if any(np.linalg.norm(x - mz) <= 1e-6 * (1.0 + best)
                   for mz in minimizers):
                continue
            minimizers.append(x)
            quality = max(quality, resid)
        return ProjectionResult(q, best, minimizers, quality)

    def _project_discrete(self, q):
        x = q[0]
        k0 = self._atom_range(x - 3, x + 3)
        if k0.size == 0:
            k0 = self._atom_range(-1, 3)
        y0 = self._atom_values(k0)
        fin = np.isfinite(y0)
        if not fin.any():
            raise ProjectionFailure("no finite atoms near query", np.inf)
        d0 = float(np.min(np.hypot(x - k0[fin], q[1] - y0[fin])))
        k = self._atom_range(x - d0 - 1, x + d0 + 1)
        y = self._atom_values(k)
        fin = np.isfinite(y)
        k, y = k[fin], y[fin]
        d = np.hypot(x - k, q[1] - y)
        best = float(np.min(d))
        sel = d <= best * (1.0 + 1e-6) + 1e-12
        minimizers = [np.array([kk, yy]) for kk, yy in zip(k[sel], y[sel])]
        return ProjectionResult(q, best, minimizers, 0.0)

    # -- normal direction fields -----------------------------------------

    def frechet_field(self, P, cfg):
        """Regular-normal directions at the sample points P (pooled).

        Points in a single piece contribute the unit gradients of their
        active constraints (both signs for equalities).  Points in several
        pieces contribute the sampled intersection of the per-piece convex
        generator cones (the regular cone of a union is the intersection
        of the pieces' polars).  Discrete graphs are isolated atoms: every
        direction is normal, reported via the `full` flag.
        """
        P = np.asarray(P, dtype=float)
        if self.discrete is not None:
            return {"dirs": np.zeros((0, self.dim)), "n_samples": len(P),
                    "full": len(P) > 0}
        if len(P) == 0:
            return {"dirs": np.zeros((0, self.dim)), "n_samples": 0,
                    "full": False}
        pstat = self.piece_status(P, cfg.eq_tol)
        member = pstat >= dsl.BOUNDARY
        mcount = member.sum(axis=0)
        single = mcount == 1
        dirs = []
        for pi, piece in enumerate(self.pieces):
            rows = member[pi] & single
            if not rows.any():
                continue
            sub = P[rows]
            for ci, c in enumerate(piece.comparisons):
                if not c.smooth:
                    continue
                g = piece.gval(ci, sub)
                rs = piece.rhs_scale(ci, sub)
                act = np.abs(g) <= _ACT_TOL * rs if not c.is_eq \
                    else np.ones(len(sub), dtype=bool)
                if not act.any():
                    continue
                try:
                    G = piece.grad(ci, sub[act])
                except dsl.NonSmooth:
                    continue
                nrm = np.linalg.norm(G, axis=1)
                keep = np.isfinite(nrm) & (nrm > 1e-9) \
                    & np.isfinite(G).all(axis=1)
                if keep.any():
                    D = G[keep] / nrm[keep, None]
                    dirs.append(D)
                    if c.is_eq:
                        dirs.append(-D)
        multi = np.flatnonzero(mcount >= 2)
        if multi.size:
            dirs.append(self._meet_dirs(P[multi], member[:, multi]))
        all_dirs = np.vstack(dirs) if dirs else np.zeros((0, self.dim))
        return {"dirs": all_dirs, "n_samples": len(P), "full": False}

    def _meet_dirs(self, P, member):
        """Regular normals at rows P that lie in several pieces (member is
        the pieces x rows membership), in row order: each row's candidates
        (its member cones' generators, in piece order) that lie in every
        member cone.  A row with a blocked or a zero member cone has none."""
        from .cones import in_convex_cone
        n = len(P)
        usable = np.ones(n, dtype=bool)
        single = np.ones(n, dtype=bool)     # one generator in every cone
        cones = []                          # (A, have) per piece, all rows
        for pi, piece in enumerate(self.pieces):
            at = member[pi]
            a, h, ok = piece.active_generators(P[at])
            A = np.zeros((n,) + a.shape[1:])
            have = np.zeros((n, h.shape[1]), dtype=bool)
            A[at], have[at] = a, h
            usable[at] &= ok & h.any(axis=1)
            single &= ~at | (have.sum(axis=1) == 1)
            cones.append((A, have))
        M = member.T
        # one generator g per member cone: one-column NNLS in closed form,
        # t = max(0, c.g) and residual |t g - c| <= 1e-6, for every pair
        fast = np.flatnonzero(usable & single)
        C = np.stack([A[fast, have[fast].argmax(axis=1)] if have.shape[1]
                      else np.zeros((len(fast), self.dim))
                      for A, have in cones], axis=1)
        t = np.maximum(C @ C.transpose(0, 2, 1), 0.0)
        R = t[..., None] * C[:, None, :, :] - C[:, :, None, :]
        fits = row_norms(R.reshape(-1, self.dim)).reshape(t.shape) <= 1e-6
        keep = M[fast] & (fits | ~M[fast, None, :]).all(axis=2)
        rows, out = [fast[np.nonzero(keep)[0]]], [C[keep]]
        for r in np.flatnonzero(usable & ~single):
            row = [A[r, have[r]] for (A, have), m in zip(cones, M[r]) if m]
            cand = np.vstack(row)
            kept = cand[[all(in_convex_cone(g, c, 1e-6) for g in row)
                         for c in cand]]
            rows.append(np.full(len(kept), r))
            out.append(kept)
        return np.vstack(out)[np.argsort(np.concatenate(rows), kind="stable")]

    def _local_piece_project(self, piece, Q):
        """Cheap sequential-correction projection of Q onto one piece.

        Moves each point along the gradient of its currently worst-violated
        constraint; adequate for the small corrections used by the
        projection-direction field (probes start near the set).
        """
        Q = Q.copy()
        N = Q.shape[0]
        conv = np.zeros(N, dtype=bool)
        for _ in range(60):
            worst = np.zeros(N)
            widx = np.full(N, -1)
            for ci, c in enumerate(piece.comparisons):
                g = piece.gval(ci, Q)
                v = np.abs(g) if c.is_eq else np.maximum(g, 0.0)
                v = v / piece.rhs_scale(ci, Q)
                upd = v > worst
                worst = np.where(upd, v, worst)
                widx = np.where(upd, ci, widx)
            conv = worst <= 1e-11
            if conv.all():
                break
            for ci in set(widx[widx >= 0]):
                rows = np.flatnonzero((widx == ci) & ~conv)
                if rows.size == 0:
                    continue
                try:
                    G = piece.grad(ci, Q[rows])
                except dsl.NonSmooth:
                    return Q, conv
                g = piece.gval(ci, Q[rows])
                c = piece.comparisons[ci]
                mag = g if c.is_eq else np.maximum(g, 0.0)
                nn = np.sum(G * G, axis=1)
                with np.errstate(all="ignore"):
                    step = (mag / np.where(nn > 1e-18, nn, np.nan))[:, None] \
                        * G
                good = np.isfinite(step).all(axis=1)
                Q[rows[good]] -= step[good]
        return Q, conv

    def projection_dir_field(self, P, cfg, label="", n_probe=4):
        """Projection-difference directions from probes near the samples.

        Implements the limiting-normal field: probe points q just off the
        set project back to it, and (q - proj)/|q - proj| approximates a
        normal at the nearby boundary point.
        """
        P = np.asarray(P, dtype=float)
        if len(P) == 0:
            return np.zeros((0, self.dim))
        rng = cfg.rng("projdir", self.name, label)
        eta = 1e-4 * (1.0 + np.linalg.norm(P, axis=1))
        U = rng.standard_normal((len(P), n_probe, self.dim))
        U /= np.linalg.norm(U, axis=2, keepdims=True)
        Q = (P[:, None, :] + eta[:, None, None] * U).reshape(-1, self.dim)
        base = np.repeat(P, n_probe, axis=0)
        if self.discrete is not None:
            # isolated atoms project to themselves: every probe direction
            # is a normal direction
            d = Q - base
            return d / np.linalg.norm(d, axis=1, keepdims=True)
        outside = self.status(Q, cfg.eq_tol) < dsl.BOUNDARY
        pstat = self.piece_status(P, cfg.eq_tol)
        first_piece = np.argmax(pstat >= dsl.BOUNDARY, axis=0)
        pidx = np.repeat(first_piece, n_probe)
        dirs = []
        for pi in range(len(self.pieces)):
            rows = np.flatnonzero(outside & (pidx == pi))
            if rows.size == 0:
                continue
            Y, conv = self._local_piece_project(self.pieces[pi], Q[rows])
            d = Q[rows] - Y
            nrm = np.linalg.norm(d, axis=1)
            keep = conv & (nrm > 1e-12 * (1.0 + np.linalg.norm(Q[rows],
                                                               axis=1)))
            if keep.any():
                dirs.append(d[keep] / nrm[keep, None])
        return np.vstack(dirs) if dirs else np.zeros((0, self.dim))


# ---------------------------------------------------------------------------
# Constructors


def full_space(dim, name="R^n"):
    return ClosedSet(dim, pred=Predicate([Conj([])], dim), name=name)


def _shift_cmp(c, k):
    return Comparison(shift_vars(c.lhs, k), c.op, shift_vars(c.rhs, k))


def graph_set(md):
    """Graph of a MapDef as a ClosedSet in R^n x R^m with split metadata."""
    if md.discrete is not None:
        return ClosedSet(md.n + md.m, discrete=md.discrete,
                         split=(md.n, md.m), name="gph " + md.name)
    return ClosedSet(md.n + md.m, pred=md.graph, split=(md.n, md.m),
                     name="gph " + md.name)


def _piecewise_pred(fd, op):
    """Predicate over (x, r) combining f's pieces with `value op r`."""
    dim = fd.n + 1
    conjs = []
    for region, value in fd.pieces:
        tail = Comparison(value, op, Var(fd.n))
        if region is None:
            conjs.append(Conj([tail]))
        else:
            for rc in region.conjs:
                conjs.append(Conj(list(rc.comparisons) + [tail]))
    return Predicate(conjs, dim)


def graph_of_function(fd):
    return ClosedSet(fd.n + 1, pred=_piecewise_pred(fd, "=="),
                     split=(fd.n, 1), name="gph " + fd.name)


def epigraph_set(fd):
    return ClosedSet(fd.n + 1, pred=_piecewise_pred(fd, "<="),
                     split=(fd.n, 1), name="epi " + fd.name)


def product_set(s1, s2, name=None):
    if s1.discrete is not None or s2.discrete is not None:
        raise SetError("product of discrete sets is not supported")
    dim = s1.dim + s2.dim
    conjs = []
    for c1 in s1.pred.conjs:
        for c2 in s2.pred.conjs:
            conjs.append(Conj(list(c1.comparisons)
                              + [_shift_cmp(c, s1.dim)
                                 for c in c2.comparisons]))
    return ClosedSet(dim, pred=Predicate(conjs, dim), split=(s1.dim, s2.dim),
                     name=name or "%s x %s" % (s1.name, s2.name))


def indicator_graph(omega, m, name=None):
    """Graph of the indicator mapping of omega: omega x {0}^m."""
    if omega.discrete is not None:
        raise SetError("indicator of a discrete set is not supported")
    dim = omega.dim + m
    zeros = [Comparison(Var(omega.dim + j), "==", Num(0.0)) for j in range(m)]
    conjs = [Conj(list(c.comparisons) + zeros) for c in omega.pred.conjs]
    return ClosedSet(dim, pred=Predicate(conjs, dim), split=(omega.dim, m),
                     name=name or "gph indicator(%s)" % omega.name)


def intersection_set(s1, s2, name=None):
    if s1.dim != s2.dim:
        raise SetError("dimension mismatch in intersection")
    if s1.discrete is not None or s2.discrete is not None:
        raise SetError("intersection with discrete sets is not supported")
    conjs = []
    for c1 in s1.pred.conjs:
        for c2 in s2.pred.conjs:
            conjs.append(Conj(list(c1.comparisons) + list(c2.comparisons)))
    return ClosedSet(s1.dim, pred=Predicate(conjs, s1.dim), split=s1.split,
                     name=name or "%s & %s" % (s1.name, s2.name))


def points_to_csv(P):
    """Point cloud as CSV text with header idx,coord0,coord1,..."""
    P = np.asarray(P, dtype=float)
    buf = io.StringIO()
    cols = P.shape[1] if P.ndim == 2 else 0
    buf.write("idx," + ",".join("coord%d" % j for j in range(cols)) + "\n")
    for i, row in enumerate(P):
        buf.write("%d,%s\n" % (i, ",".join("%.17g" % x for x in row)))
    return buf.getvalue()
