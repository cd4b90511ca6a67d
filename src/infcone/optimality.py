"""Set-valued optimization at infinity: ordering cones and Fermat rule.

Ordering cones are generator-specified pointed convex cones with a chosen
interior point e.  Scalarization uses the Gerstewitz-type function
phi(y) = inf{t real : t e in y + K}, in its dual form: the maximum of
<c, y> over the sampled positive polar rays c normalized to <c, e> = 1
(Gerth & Weidner 1990).  The Fermat certificate search looks for c* in the
positive polar with 0 in D*F(inf, ybar)(c*) + N_Omega(inf), gated on the
weak efficiency and constraint-qualification falsifiers.
"""

import math

import numpy as np

from .cones import (INF, HSlice, RayCone, Status, canonicalize,
                    cone_intersect, cone_negate, contains_direction,
                    split_ray, unit)
from .grids import grid_sizes_from_config, sphere_grid
from .limits import (ApproachSpec, _first_seen, normal_cone_at_infinity_total,
                     outer_limit)
from .maps import _slice_cone, coderivative_at_infinity, slice_hmap
from .sets import (SetError, Shell, full_space, intersection_set,
                   product_set)
from .verdict import Verdict

_BUDGET_NOTE = "no counterexample within budget (not a proof)"


class OrderingCone:
    """Pointed closed convex cone cone(generators) with interior point e."""

    __slots__ = ("generators", "e", "m", "name", "_kplus")

    def __init__(self, generators, interior_point, name=""):
        gens = np.asarray(generators, dtype=float)
        if gens.ndim != 2 or gens.shape[0] == 0:
            raise SetError("ordering cone needs generator rows")
        norms = np.linalg.norm(gens, axis=1)
        if np.any(norms < 1e-12):
            raise SetError("zero generator in ordering cone")
        self.generators = gens / norms[:, None]
        self.m = gens.shape[1]
        self.e = np.asarray(interior_point, dtype=float).reshape(self.m)
        self.name = name
        self._kplus = None
        # pointedness: no generator direction is (approximately) in -K
        khat = canonicalize(self.generators, self.m, nonempty=True)
        meet = cone_intersect(khat, cone_negate(khat), 0.01)
        if meet.status == Status.RAYS:
            raise SetError("ordering cone is not pointed: +-%s"
                           % (meet.rays[0].tolist(),))

    @classmethod
    def from_conedef(cls, cd):
        return cls(cd.generators, cd.interior_point, name=cd.name)

    def __repr__(self):
        return "OrderingCone(%r, m=%d, %d generators)" % (
            self.name, self.m, len(self.generators))

    def kplus(self, cfg):
        if self._kplus is None:
            kp = positive_polar(self, cfg)
            if kp.status != Status.RAYS:
                raise SetError("ordering cone is not pointed: its generators "
                               "positively span the space (polar is {0})")
            emin = float(np.min(kp.rays @ self.e))
            if not emin > 1e-6:
                raise SetError("interior point is not strictly interior "
                               "(min polar pairing %.3g)" % emin)
            self._kplus = kp
        return self._kplus


def positive_polar(K, cfg):
    """K+ = {c : <c, y> >= 0 for all y in K}, sampled on the grid."""
    grid, step = sphere_grid(K.m, grid_sizes_from_config(cfg))
    mins = np.min(grid @ K.generators.T, axis=1)
    keep = grid[mins >= -math.sin(step) - 1e-12]
    if keep.shape[0] == 0:
        return RayCone.zero(K.m, resolution=step / 2.0)
    return RayCone(K.m, Status.RAYS, keep, resolution=step / 2.0,
                   _trusted=True)


def _phi_rays(K, e, cfg):
    """The sampled polar rays of K, each scaled so that <c, e> = 1.

    phi(y) is the maximum of their products with y; e must be an interior
    point of K, so that every polar ray pairs positively with it.
    """
    rays = K.kplus(cfg).rays
    return rays / (rays @ e)[:, None]


def scalarize(K, e, y, cfg):
    """phi(y) = inf{t : t e - y in K} = max over c in K+ of <c, y> / <c, e>.

    The dual form of the Gerstewitz functional of a closed convex cone with
    interior point e (Gerth & Weidner 1990, JOTA 67), over the sampled
    positive polar.
    """
    y = np.asarray(y, dtype=float).reshape(K.m)
    return float(np.max(_phi_rays(K, e, cfg) @ y))


def scalarize_subdiff(K, e, y, cfg, tol=0.05):
    """Subdifferential of phi at y: the active face of the polar.

    {c* in K+ : <c*, e> = 1, <c*, y> = phi(y)}, sampled from the polar
    grid and returned as points on the normalization slice.
    """
    y = np.asarray(y, dtype=float).reshape(K.m)
    c = _phi_rays(K, e, cfg)
    vals = c @ y
    keep = c[vals >= np.max(vals) - tol * (1.0 + np.linalg.norm(y))]
    return HSlice(K.m, points=_first_seen(keep, 0.01))


# ---------------------------------------------------------------------------
# Weak efficiency and CQ


def _constrained_graph(F, omega):
    if omega.pred is not None and \
            all(len(pc.comparisons) == 0 for pc in omega.pieces):
        return F.graph
    lifted = product_set(omega, full_space(F.m))
    return intersection_set(F.graph, lifted, name="gph %s|%s"
                            % (F.name, omega.name))


def _constrained_coderivative(F, omega, ybar, cfg, label):
    """Graph cone at infinity along feasible escapes only.

    Normals are still regular normals of gph F, but the escape sequence
    is restricted to x in omega: graph normals reachable only through
    infeasible points are irrelevant to the constrained problem and
    would poison the CQ and the certificate search.
    """
    S = _constrained_graph(F, omega)
    if S is F.graph:
        return coderivative_at_infinity(F, ybar, cfg, label=label)
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    # feasible escapes can be polynomially thin (x large forces y close
    # at some power rate); stretch the shell radii so the shrinking value
    # window still catches them
    cfg = cfg.replace(radius_factor=max(cfg.radius_factor, 4.0))
    approach = ApproachSpec.to_infinity_with_value(S, ybar, cfg,
                                                   label=label + "|con")

    def field(j, P):
        return F.graph.frechet_field(P, cfg)

    return outer_limit(field, approach, cfg)


def check_weak_efficient(F, omega, K, ybar, cfg, margin=0.02):
    """Falsify weak efficiency of ybar for F over omega.

    Samples values y in F(omega) at bounded and escaping radii; a sample
    with phi(y - ybar) < -margin lies in ybar - int K and is a
    counterexample.  Also reports how closely samples approach ybar
    (closure membership evidence).
    """
    ybar = np.asarray(ybar, dtype=float).reshape(K.m)
    C = _phi_rays(K, K.e, cfg)
    S = _constrained_graph(F, omega)
    closest = INF
    probes = 0
    for j in range(cfg.shells + 2):
        lo = 0.2 * 2.0 ** j
        sh = Shell(range(F.n), lo, 2.0 * lo, center=ybar, rho=8.0)
        P = S.sample_shell(sh, cfg.samples_per_shell // 4, cfg,
                           label="weff|%d" % j)
        d = P[:, F.n:] - ybar
        # one dot product per row, as np.linalg.norm takes it for a single
        # vector, so closure_gap does not depend on the batching
        dist = np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])
        phi = np.max(d @ C.T, axis=1)
        bad = np.flatnonzero(phi < -margin * (1.0 + dist))
        if bad.size:
            i = int(bad[0])
            return Verdict.failed(
                {"x": P[i, :F.n].tolist(), "y": P[i, F.n:].tolist(),
                 "phi": float(phi[i])},
                closure_gap=min(closest, float(np.min(dist[:i + 1]))))
        closest = min(closest, float(np.min(dist, initial=INF)))
        probes += len(P)
    return Verdict.passed(probes=probes,
                          closure_gap=None if np.isinf(closest)
                          else float(closest),
                          note=_BUDGET_NOTE)


def _cq_verdict(cod, nom, n, m, cfg):
    """CQ verdict from the constrained coderivative and the Omega cone.

    cod and nom are the outer-limit results of _constrained_coderivative
    and normal_cone_at_infinity_total; the cones go into the diagnostics.
    """
    if cod.cone.is_empty:
        return Verdict.inconclusive("coderivative cone empty at infinity")
    s0 = _slice_cone(slice_hmap(cod.cone, np.zeros(m), cfg.ang_tol, m), n)
    diag = {"slice0_cone": s0, "omega_cone": nom.cone}
    if nom.cone.is_empty:
        return Verdict.inconclusive("constraint-set cone empty at infinity",
                                    **diag)
    if s0.status != Status.RAYS or nom.cone.status != Status.RAYS:
        return Verdict.passed(**diag)
    meet = cone_intersect(s0, cone_negate(nom.cone), cfg.ang_tol)
    if meet.status == Status.RAYS:
        return Verdict.failed(meet.rays[0].tolist(), **diag)
    return Verdict.passed(**diag)


def check_cq_infinity(F, omega, ybar, cfg):
    """Constraint qualification: D*F(inf,ybar)(0) meets -N_omega(inf) at 0."""
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    cod = _constrained_coderivative(F, omega, ybar, cfg, "cq")
    nom = normal_cone_at_infinity_total(omega, cfg, label="cqO")
    return _cq_verdict(cod, nom, F.n, F.m, cfg)


# ---------------------------------------------------------------------------
# Fermat certificate


def _candidate_grid(K, cfg):
    if K.m == 1:
        return np.array([[1.0], [-1.0]])
    if K.m == 2:
        th = np.deg2rad(np.arange(360.0))
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    from .grids import fibonacci_sphere
    if K.m == 3:
        return np.asarray(fibonacci_sphere(10000))
    grid, _ = sphere_grid(K.m, grid_sizes_from_config(cfg))
    return np.asarray(grid)


def _certificate_residual(chat, K, e, cone, nom, n, m, cfg):
    """Best (score, u, w, residual) over cone rays for unit candidate chat.

    score adds an alignment penalty so a coarse-grid candidate near the
    true c* still ranks correctly before refinement.
    """
    pair = float(np.dot(chat, e))
    if pair <= 1e-9:
        return INF, None, None, INF
    c = chat / pair
    cn = float(np.linalg.norm(c))
    snap = 2.0 * cfg.ang_tol + (cone.resolution if cone.status == Status.RAYS
                                else 0.0)
    best = (INF, None, None, INF)
    if cone.status != Status.RAYS:
        return best
    for ray in cone.rays:
        a, b = split_ray(ray, m)
        bn = float(np.linalg.norm(b))
        if bn <= math.sin(min(cfg.ang_tol, math.pi / 2)):
            continue
        align = float(np.arccos(np.clip(np.dot(b / bn, -unit(c)), -1, 1)))
        if align > 0.35:  # ~20 degrees: not a plausible slice match
            continue
        u = (cn / bn) * a
        un = float(np.linalg.norm(u))
        if un <= 1e-9:
            w = np.zeros(n)
            resid = un
        elif nom.status == Status.RAYS and \
                contains_direction(nom, -u, snap):
            w = -u  # within cone-estimate resolution of a sampled normal
            resid = 0.0
        elif nom.status == Status.RAYS:
            cos = float(np.max(nom.rays @ (-u / un)))
            resid = un * math.sqrt(max(0.0, 2.0 - 2.0 * cos))
            w = -u if cos >= 1.0 - 1e-12 else \
                un * nom.rays[int(np.argmax(nom.rays @ (-u / un)))]
            resid = min(resid, un)  # w = 0 fallback
            if resid == un:
                w = np.zeros(n)
        else:
            w = np.zeros(n)
            resid = un
        score = resid + align * (1.0 + un)
        if score < best[0]:
            best = (score, u, w, resid)
    return best


def _refine_direction(chat, score0, score_at, K, cfg, name):
    """A unit candidate near chat whose score is at most score0.

    In the plane: golden-section search on the angle within 1.5 degrees.
    In 3+ dimensions: six rounds of 60 random probes at halving radii.
    """
    m = K.m
    if m == 2:
        th0 = math.atan2(chat[1], chat[0])
        gr = (math.sqrt(5.0) - 1.0) / 2.0
        fcache = {}

        def fval(t):
            if t not in fcache:
                fcache[t] = score_at(np.array([math.cos(t), math.sin(t)]))
            return fcache[t]

        a, b = th0 - math.radians(1.5), th0 + math.radians(1.5)
        c1 = b - gr * (b - a)
        c2 = a + gr * (b - a)
        for _ in range(40):
            if fval(c1) <= fval(c2):
                b, c2 = c2, c1
                c1 = b - gr * (b - a)
            else:
                a, c1 = c1, c2
                c2 = a + gr * (b - a)
        tbest = min(fcache, key=fcache.get)
        if fcache[tbest] <= score0:
            return np.array([math.cos(tbest), math.sin(tbest)])
    elif m >= 3:
        rng = cfg.rng("fermat-refine", name)
        radius = 0.03
        for _ in range(6):
            probes = chat + radius * rng.standard_normal((60, m))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            probes = probes[np.min(probes @ K.generators.T, axis=1) >= -0.01]
            for p in probes:
                s = score_at(p)
                if s < score0:
                    score0, chat = s, np.asarray(p, dtype=float)
            radius *= 0.5
    return chat


def fermat_certificate(F, omega, K, ybar, cfg, tol=0.05):
    """The Fermat rule at infinity in one pass, as one Verdict.

    Runs the weak-efficiency falsifier, builds the constrained
    coderivative cone and the Omega cone at infinity once, and reads the
    CQ verdict off those two cones.  If either precondition does not
    pass, the answer is Inconclusive.  Otherwise scans the normalization
    slice of K+ for c* whose coderivative slice meets -N_omega(inf) and
    refines the best candidate: Pass carries c_star, u, w and residual in
    its diagnostics, Fail the best residual found.  Every outcome lists
    both precondition verdicts and the Omega cone.
    """
    ybar = np.asarray(ybar, dtype=float).reshape(K.m)
    weff = check_weak_efficient(F, omega, K, ybar, cfg)
    cod = _constrained_coderivative(F, omega, ybar, cfg, "fermat")
    nomr = normal_cone_at_infinity_total(omega, cfg, label="fermatO")
    pre = {"weak_efficient": weff,
           "cq_infinity": _cq_verdict(cod, nomr, F.n, F.m, cfg)}
    cone, nom = cod.cone, nomr.cone
    diag = {"preconditions": pre, "omega_cone": nom,
            "omega_converged": nomr.converged}
    failing = [name for name, v in pre.items() if not v.ok]
    if failing:
        return Verdict.inconclusive(
            "precondition not passed: " + ", ".join(failing), **diag)
    n, m = F.n, F.m
    kgen = K.generators
    grid = _candidate_grid(K, cfg)
    mins = np.min(grid @ kgen.T, axis=1)
    cands = list(grid[mins >= -0.01])
    # exact candidates read off the cone rays (perfect alignment)
    if cone.status == Status.RAYS:
        for ray in cone.rays:
            b = split_ray(ray, m)[1]
            bn = np.linalg.norm(b)
            if bn > math.sin(cfg.ang_tol) and \
                    float(np.min((-b / bn) @ kgen.T)) >= -0.02:
                cands.append(-b / bn)
    scored = []
    for chat in cands:
        score, u, w, resid = _certificate_residual(chat, K, K.e, cone, nom,
                                                   n, m, cfg)
        if u is not None:
            scored.append((score, chat, u, w, resid))
    if not scored:
        return Verdict.failed(
            {"note": "no certificate on the candidate grid; per the "
             "theory this indicates tolerance or budget failure"}, **diag)
    # Among candidates within tolerance prefer the one whose coderivative
    # value u is largest: trivial u = 0 certificates coexist with the
    # informative one whenever the graph cone has a purely vertical ray.
    valid = [s for s in scored
             if s[4] <= tol and s[0] - s[4] <= 0.1 * (1 + np.linalg.norm(
                 s[2]))]
    if valid:
        best = max(valid, key=lambda s: (round(float(np.linalg.norm(s[2])),
                                               6), -s[0]))
    else:
        best = min(scored, key=lambda s: s[0])
    chat = np.asarray(best[1], dtype=float)
    # refine the candidate direction unless its score is the residual
    # alone: then it came straight off a cone ray, aligned exactly
    if best[0] - best[4] > 1e-9:
        chat = _refine_direction(
            chat, best[0], lambda p: _certificate_residual(
                p, K, K.e, cone, nom, n, m, cfg)[0], K, cfg, F.name)
    score, u, w, resid = _certificate_residual(chat, K, K.e, cone, nom,
                                               n, m, cfg)
    if u is None or resid > tol:
        return Verdict.failed(
            {"note": "grid exhausted without a certificate within "
             "tolerance; per the theory this indicates tolerance or "
             "budget failure",
             "best_residual": None if resid == INF else float(resid)},
            **diag)
    return Verdict.passed(c_star=chat / float(np.dot(chat, K.e)), u=u, w=w,
                          residual=float(resid), score=float(score), **diag)
