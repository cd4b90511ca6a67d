"""Well-posedness battery: nonsingularity, openness, regularity, Lipschitz.

Estimators and falsifiers for the equivalence battery around coderivative
nonsingularity at infinity (kernel of the infinity coderivative trivial),
linear openness at infinity, metric regularity at infinity and the inverse
Lipschitz-like property, plus the Mordukhovich-type criterion at infinity
tying the D*(0) slice to the Lipschitz-like property of F and the
subgradient behaviour of the distance function d_F.

Every Pass from a falsifier means "no counterexample within budget" --
the properties quantify over neighborhoods of infinity, which sampling
cannot certify; reports say so explicitly.
"""

import math

import numpy as np

from .cones import (INF, Status, dedup_directions, hmap_kernel, phm_norm,
                    slice_hmap)
from .limits import (_match_matrix, _tail_cone, _tail_runs, divergent,
                     limit_points, normal_cone_at_infinity_total)
from .maps import (_graph_samples, _pinned_min, coderivative_at_infinity,
                   distance_to_image, distances_to_image, dists_to_preimage)
from .verdict import Verdict, _jsonable

_BUDGET_NOTE = "no counterexample within budget (not a proof)"

_TOTAL_FALLBACK_NOTE = ("value-constrained cone empty (graph does not reach "
                        "ybar at large radii); using the total graph cone "
                        "at infinity")


def _battery_cone(F, ybar, cfg, label):
    """Graph cone for the well-posedness battery, with vacuous-value fallback.

    When no unbounded part of the graph carries values near ybar, the
    value-constrained cone is empty and the battery properties hold or
    fail by the graph's behaviour at infinity alone; the total cone (no
    value window) is the right surrogate then.  Returns (result, note)
    with note None when no fallback happened.
    """
    res = coderivative_at_infinity(F, ybar, cfg, label=label)
    if not res.cone.is_empty:
        return res, None
    total = normal_cone_at_infinity_total(F.graph, cfg,
                                          label=label + "|total")
    return total, _TOTAL_FALLBACK_NOTE


class ModulusEstimate:
    """Sampled modulus with its achieving witness and per-shell trend.

    value is +inf (INF sentinel) when the per-shell suprema diverge;
    worst_witness stores the numbers needed to reproduce value exactly.
    """

    __slots__ = ("value", "samples_used", "worst_witness", "trend")

    def __init__(self, value, samples_used, worst_witness, trend):
        self.value = float(value)
        self.samples_used = int(samples_used)
        self.worst_witness = worst_witness
        self.trend = [None if t is None else float(t) for t in trend]

    def __repr__(self):
        return "ModulusEstimate(%.6g, samples=%d)" % (self.value,
                                                      self.samples_used)

    def to_json(self):
        return {"value": self.value if math.isfinite(self.value) else "inf",
                "samples_used": self.samples_used,
                "worst_witness": _jsonable(self.worst_witness),
                "trend": self.trend}


def _subsample(P, k):
    if len(P) <= k:
        return P
    sel = np.linspace(0, len(P) - 1, k).round().astype(int)
    return P[sel]


# ---------------------------------------------------------------------------
# Theorem-4.1-style battery


def check_nonsingularity(F, ybar, cfg):
    """Kernel triviality of the infinity coderivative, with mu* estimate.

    mu* = inf |a|/|b| over cone rays (a, b) with b nonzero -- the smallest
    output of the coderivative over unit slice directions; 0 when the
    kernel is nontrivial, +inf when no ray has a nonzero b-part.
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    res, fallback = _battery_cone(F, ybar, cfg, "nsg")
    cone = res.cone
    if cone.is_empty:
        est = ModulusEstimate(INF, 0, None, [])
        return Verdict.inconclusive("graph cone empty at infinity",
                                    cone=cone.to_json()), est
    ker = hmap_kernel(cone, F.m)
    mu = INF
    worst = None
    nrays = 0 if cone.status != Status.RAYS else len(cone.rays)
    if cone.status == Status.RAYS:
        for ray in cone.rays:
            a, b = ray[:F.n], ray[F.n:]
            bn = float(np.linalg.norm(b))
            if bn > 0.02:
                r = float(np.linalg.norm(a)) / bn
                if r < mu:
                    mu = r
                    worst = {"ray": ray.tolist(), "ratio": r}
    extra = {} if fallback is None else {"cone_note": fallback}
    if ker.status == Status.RAYS:
        est = ModulusEstimate(0.0, nrays,
                              {"kernel_ray": ker.rays[0].tolist()}, [])
        return Verdict.failed(ker.rays[0].tolist(), cone=cone.to_json(),
                              kernel=ker.to_json(), **extra), est
    est = ModulusEstimate(mu, nrays, worst, [])
    return Verdict.passed(cone=cone.to_json(), kernel=ker.to_json(),
                          mu_star=est.value if math.isfinite(mu) else "inf",
                          note=_BUDGET_NOTE, **extra), est


def test_linear_openness(F, ybar, mu, cfg, pts_per_shell=12):
    """Falsify linear openness at infinity with rate mu.

    For sampled graph points (x, y) with |x| large and y near ybar, every
    z in (y + mu*r*B) within the value window should be reachable from
    some x' within r of x.  A z whose preimage stays farther than r from
    x is a counterexample.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    rho0 = cfg.rho_start
    r_grid = (0.5, 0.1, 0.02)
    checked = 0
    for j in range(cfg.shells):
        P = _subsample(_graph_samples(F, ybar, cfg, j,
                                      cfg.samples_per_shell // 4, "opn"),
                       pts_per_shell)
        probes = []  # (x, r, z) in the order they are judged
        for row in P:
            x, y = row[:F.n], row[F.n:]
            for r in r_grid:
                for scale in (1.0, 0.5):
                    for k in range(F.m):
                        for sgn in (1.0, -1.0):
                            z = y.copy()
                            z[k] += sgn * scale * mu * r
                            if np.linalg.norm(z - ybar) > rho0:
                                continue
                            probes.append((x, r, z))
        D = dists_to_preimage(F, [z for _, _, z in probes],
                              [x for x, _, _ in probes], cfg)
        for (x, r, z), d in zip(probes, D.tolist()):
            checked += 1
            if d > r * (1.0 + 1e-3) + 1e-9:
                return Verdict.failed(
                    {"x": x.tolist(), "r": r, "z": z.tolist(),
                     "preimage_dist": None if np.isinf(d) else d},
                    mu=mu, shell=j)
    return Verdict.passed(mu=mu, probes=checked, note=_BUDGET_NOTE)


def estimate_regularity_modulus(F, ybar, cfg, pts_per_shell=10):
    """Sampled sup of dist(x, F^{-1}(y)) / dist(y, F(x)) at infinity.

    x runs through the shells, y through a fixed offset grid around ybar;
    ratios with a vanishing denominator are skipped.  +inf sentinel when
    the per-shell suprema grow with the radius of the x attaining them
    (limits.divergent).
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    offsets = []
    for k in range(F.m):
        for mag in (0.01, 0.05, 0.2):
            for sgn in (1.0, -1.0):
                e = np.zeros(F.m)
                e[k] = sgn * mag
                offsets.append(e)
    rng = cfg.rng("reg", F.name)
    trend = []  # per shell: (sup, |x| of the x attaining it) or None
    worst = None
    best = 0.0
    used = 0
    for j in range(cfg.shells):
        # x runs over plain shells of the source space -- the regularity
        # ratio is about arbitrary x at large radii, not graph members
        d = rng.standard_normal((pts_per_shell, F.n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = rng.uniform(cfg.radius(j), cfg.radius(j + 1), pts_per_shell)
        X = d * r[:, None]
        # every (x, ybar + off) pair, x-major; d_pre where d_img is usable
        X = np.repeat(X, len(offsets), axis=0)
        Y = np.tile(ybar + np.array(offsets), (pts_per_shell, 1))
        d_img = distances_to_image(F, X, Y, cfg)
        use = (1e-9 < d_img) & (d_img < INF)
        X, Y, d_img = X[use], Y[use], d_img[use].tolist()
        d_pre = dists_to_preimage(F, Y, X, cfg).tolist()
        sup_j = None
        for x, y, di, dp in zip(X, Y, d_img, d_pre):
            used += 1
            ratio = dp / di if np.isfinite(dp) else INF
            if sup_j is None or ratio > sup_j:
                sup_j, r_sup = ratio, float(np.linalg.norm(x))
            if ratio > best:
                best = ratio
                worst = {"x": x.tolist(), "y": y.tolist(), "d_image": di,
                         "d_preimage": None if np.isinf(dp) else dp}
        trend.append(None if sup_j is None else (sup_j, r_sup))
    value = INF if divergent(trend) or best == INF else best
    return ModulusEstimate(value, used, worst,
                           [None if t is None or np.isinf(t[0]) else t[0]
                            for t in trend])


def test_inverse_lipschitz(F, ybar, ell, cfg, pts_per_shell=10):
    """Falsify the inverse Lipschitz-like property at infinity.

    Sampled x in F^{-1}(y') at large radii (y' the sampled value) must
    stay within ell*|y' - y| of F^{-1}(y) for window values y; the grid
    of y targets includes ybar itself plus small offsets.
    """
    if not ell > 0:
        raise ValueError("ell must be positive")
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    targets = [ybar.copy()]
    for k in range(F.m):
        for mag in (1e-3, 0.01, 0.1):
            for sgn in (1.0, -1.0):
                t = ybar.copy()
                t[k] += sgn * mag
                targets.append(t)
    checked = 0
    for j in range(cfg.shells):
        P = _subsample(_graph_samples(F, ybar, cfg, j,
                                      cfg.samples_per_shell // 4, "ilip"),
                       pts_per_shell)
        probes = []  # (x, y', y, |y' - y|) in the order they are judged
        for row in P:
            x, yprime = row[:F.n], row[F.n:]
            for y in targets:
                gap = float(np.linalg.norm(yprime - y))
                if not gap < 1e-12:
                    probes.append((x, yprime, y, gap))
        D = dists_to_preimage(F, [pr[2] for pr in probes],
                              [pr[0] for pr in probes], cfg)
        for (x, yprime, y, gap), d in zip(probes, D.tolist()):
            checked += 1
            if d > ell * gap * 1.05 + 1e-9:
                return Verdict.failed(
                    {"x": x.tolist(), "y_prime": yprime.tolist(),
                     "y": y.tolist(),
                     "preimage_dist": None if np.isinf(d) else d,
                     "bound": ell * gap},
                    ell=ell, shell=j)
    return Verdict.passed(ell=ell, probes=checked, note=_BUDGET_NOTE)


def _in_value_window(F, X, ybar, rho, cfg):
    """Per row x of X: does F(x) meet the ball B(ybar, rho)?"""
    return distances_to_image(F, X, np.tile(ybar, (len(X), 1)), cfg) <= rho


def test_lipschitz_like(F, ybar, ell, cfg, pts_per_shell=10):
    """Falsify the Lipschitz-like property of F around (infinity, ybar).

    For pairs x, x' with values meeting the window V = B(ybar, rho0),
    every y in F(x) cap V must be within ell*|x - x'| of F(x').
    Candidate x' are nearby sampled points and small perturbations whose
    size shrinks like 0.2/(1 + 2|x|) so their values stay inside V.
    A violation must also break the distance-function Lipschitz
    inequality |d_F(x,y) - d_F(x',y)| <= ell*|x - x'| before it counts;
    disagreement of the two checks is Inconclusive.
    """
    if not ell > 0:
        raise ValueError("ell must be positive")
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    rho0 = cfg.rho_start
    checked = 0
    for j in range(cfg.shells):
        P = _graph_samples(F, ybar, cfg, j, cfg.samples_per_shell // 4,
                           "alip")
        sub = _subsample(P, pts_per_shell)
        probes = []  # (x, y, x') in the order they are judged
        for row in sub:
            x, y = row[:F.n], row[F.n:]
            cands = []
            # nearby sampled members of F^{-1}(V) (covers discrete graphs)
            if len(P) > 1:
                dx = np.linalg.norm(P[:, :F.n] - x, axis=1)
                order = np.argsort(dx)
                for idx in order[1:4]:
                    if dx[idx] > 1e-9:
                        cands.append(P[idx, :F.n])
            # shrinking perturbations, plus a fixed logarithmic ladder
            adaptive = 0.2 / (1.0 + 2.0 * float(np.linalg.norm(x)))
            for d in (adaptive, 1e-3, 1e-2, 0.1, 1.0):
                for k in range(F.n):
                    for sgn in (1.0, -1.0):
                        xp = x.copy()
                        xp[k] += sgn * d
                        cands.append(xp)
            probes.extend((x, y, xp) for xp in cands)
        XP = np.reshape([xp for _, _, xp in probes], (-1, F.n))
        inside = _in_value_window(F, XP, ybar, rho0 * 0.9, cfg)
        probes = [pr for pr, ok in zip(probes, inside) if ok]
        D = distances_to_image(F, XP[inside],
                               [y for _, y, _ in probes], cfg)
        for (x, y, xp), d in zip(probes, D.tolist()):
            gap = float(np.linalg.norm(x - xp))
            checked += 1
            if d > ell * gap * 1.05 + 1e-9:
                # cross-check on the d_F Lipschitz inequality
                lhs = abs(d - distance_to_image(F, x, y, cfg))
                witness = {"x": x.tolist(), "x_prime": xp.tolist(),
                           "y": y.tolist(),
                           "dist": None if np.isinf(d) else d,
                           "bound": ell * gap,
                           "d_f_gap": None if np.isinf(lhs) else lhs}
                if lhs > ell * gap * 1.05 + 1e-9:
                    return Verdict.failed(witness, ell=ell, shell=j)
                return Verdict.inconclusive(
                    "inclusion and distance checks disagree",
                    witness=witness, ell=ell)
    return Verdict.passed(ell=ell, probes=checked, note=_BUDGET_NOTE)


# ---------------------------------------------------------------------------
# Criterion at infinity


def _preimage_membership(F, X, ybar, rho, cfg):
    """Cheap F^{-1}(V) membership per row of X, without fiber sampling
    (probe helper)."""
    if F.graph.discrete is not None:
        return _in_value_window(F, X, ybar, rho, cfg)
    return _pinned_min(F.graph, np.arange(F.n), X, np.arange(F.n, F.n + F.m),
                       np.tile(ybar, (len(X), 1)),
                       lambda i: [ybar, ybar + 0.25, ybar - 0.25]) <= rho


def _openness_probe(F, ybar, cfg, pts_per_shell=8):
    """Flag non-openness of F^{-1}(V) beyond a large ball."""
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    rho0 = cfg.rho_start
    deltas = (0.1, 0.01, 1e-3, 1e-4)
    for j in range(cfg.shells):
        P = _subsample(_graph_samples(F, ybar, cfg, j,
                                      cfg.samples_per_shell // 4, "open"),
                       pts_per_shell)
        # every x +- d e_k, in (x, d, k, sign) order
        probes = []
        for row in P:
            for d in deltas:
                for k in range(F.n):
                    for sgn in (1.0, -1.0):
                        xp = row[:F.n].copy()
                        xp[k] += sgn * d
                        probes.append(xp)
        inside = _preimage_membership(F, np.reshape(probes, (-1, F.n)), ybar,
                                      rho0, cfg)
        for row, ins in zip(P, inside.reshape(len(P), len(deltas), 2 * F.n)):
            x = row[:F.n]
            # some perturbation leaves the preimage at every scale
            if not ins.all(axis=1).any():
                return Verdict.failed({"x": x.tolist(), "deltas": deltas,
                                       "note": "perturbed points leave the "
                                       "preimage at every probe scale"},
                                      shell=j)
    return Verdict.passed(note=_BUDGET_NOTE)


def _distance_subgradient_fields(F, ybar, cfg, pts_per_shell=10):
    """Per-shell samples of grad d_F near the graph at large radii.

    Returns (values_per_shell, big_dirs_per_shell): the first feeds the
    bounded subgradient limit points, the second the blow-up direction
    field (threshold 2^j at shell j).
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    dim = F.n + F.m

    values = []
    big = []
    for j in range(cfg.shells):
        P = _subsample(_graph_samples(F, ybar, cfg, j,
                                      cfg.samples_per_shell // 4, "fgrad"),
                       pts_per_shell)
        vals = []
        dirs = []
        tau = 2.0 ** j
        rng = cfg.rng("fgrad", F.name, j)
        W, H = [], []
        for row in P:
            for eta in (1e-3, 1e-5):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                W.append(row + eta * u)
                H.append(eta / 10.0)
        # central differences of d_F at every w along each axis, one call
        W, H = np.reshape(W, (-1, dim)), np.array(H)
        E = np.eye(dim) * H[:, None, None]
        Q = np.concatenate([W[:, None, :] + E, W[:, None, :] - E])
        D = distances_to_image(F, Q[..., :F.n], Q[..., F.n:], cfg)
        D = D.reshape(2, len(W), dim)
        with np.errstate(invalid="ignore"):
            G = (D[0] - D[1]) / (2.0 * H[:, None])
        for g in G:
            if not np.isfinite(g).all():
                continue
            gn = float(np.linalg.norm(g))
            if gn <= 10.0:
                vals.append(g)
            if gn >= tau:
                dirs.append(g / gn)
        values.append(vals)
        big.append(np.array(dirs) if dirs else np.zeros((0, dim)))
    return values, big


def mordukhovich_criterion(F, ybar, cfg):
    """Criterion at infinity: D*(0) slice, openness probe, d_F subgradients.

    Returns (verdict for the D*(0)-slice condition, report dict).  The
    report carries the openness probe, the Lipschitz bound ell*, the
    sampled bounded-subgradient cluster of d_F with its norm bound check,
    and the blow-up (singular) direction field which should be trivial
    when the criterion holds.
    """
    ybar = np.atleast_1d(np.asarray(ybar, dtype=float))
    res, fallback = _battery_cone(F, ybar, cfg, "crit")
    cone = res.cone
    report = {"cone": cone.to_json(), "converged": res.converged}
    if fallback is not None:
        report["cone_note"] = fallback
    if cone.is_empty:
        v = Verdict.inconclusive("graph cone empty at infinity")
        report["slice0"] = v.to_json()
        return v, report
    s0 = slice_hmap(cone, np.zeros(F.m), cfg.ang_tol, F.m)
    report["slice0_content"] = s0.to_json()
    nontrivial = list(s0.recessions) + \
        [p for p in s0.points if np.linalg.norm(p) > 1e-6]
    if nontrivial:
        slice_verdict = Verdict.failed(
            np.asarray(nontrivial[0]).tolist(),
            note="D*(0) slice at infinity has nonzero content")
    else:
        slice_verdict = Verdict.passed(note="slice at 0 is {0}")
    report["slice0"] = slice_verdict.to_json()

    ell_star = phm_norm(cone, F.m)
    report["ell_star"] = None if np.isinf(ell_star) else float(ell_star)

    report["openness"] = _openness_probe(F, ybar, cfg).to_json()

    values, big = _distance_subgradient_fields(F, ybar, cfg)
    window = cfg.persistence_window
    f_points = limit_points(values, 0.05, window)
    report["f_set"] = [p.tolist() for p in f_points]
    if math.isfinite(ell_star):
        bound = math.sqrt(ell_star ** 2 + 1.0) * 1.1 + 0.05
        bad = [p for p in f_points if np.linalg.norm(p) > bound]
        report["f_bound"] = {"bound": bound, "violations":
                             [p.tolist() for p in bad],
                             "ok": not bad}
    else:
        report["f_bound"] = {"bound": None, "ok": None,
                             "note": "ell* not finite"}
    # blow-up directions of grad d_F: tail-persistent ones mean the
    # singular set is nontrivial
    dim = F.n + F.m
    cands = dedup_directions(np.vstack(big), cfg.ang_tol / 2.0)
    matched = _match_matrix(cands, big, [False] * len(big),
                            math.cos(cfg.ang_tol))
    mask, _ = _tail_runs(matched, len(big) - 1, window)
    sing = _tail_cone(cands, mask, True, dim)
    report["f_singular"] = sing.to_json()
    report["f_singular_trivial"] = sing.is_zero
    return slice_verdict, report


# ---------------------------------------------------------------------------
# Combined report


def well_posed_report(F, ybar, cfg, mu=None, ell=None):
    """Run the whole battery and assemble the report JSON structure."""
    nsg, mu_est = check_nonsingularity(F, ybar, cfg)
    crit, crit_report = mordukhovich_criterion(F, ybar, cfg)
    ell_star = crit_report.get("ell_star")
    if mu is None:
        mu = 0.9 * mu_est.value if 0 < mu_est.value < INF else 0.5
    if ell is None:
        ell = 1.1 * ell_star if ell_star else 1.0
    openness = test_linear_openness(F, ybar, mu, cfg)
    regularity = estimate_regularity_modulus(F, ybar, cfg)
    inv_lip = test_inverse_lipschitz(F, ybar, ell, cfg)
    lip = test_lipschitz_like(F, ybar, ell, cfg)
    return {
        "nonsingularity": {"verdict": nsg.to_json(),
                           "mu_star": mu_est.to_json()},
        "openness": {"mu": mu, "verdict": openness.to_json()},
        "regularity": regularity.to_json(),
        "inverse_lipschitz": {"ell": ell, "verdict": inv_lip.to_json()},
        "lipschitz_like": {"ell": ell, "verdict": lip.to_json()},
        "criterion": {"verdict": crit.to_json(), "report": crit_report},
        "moduli": {"mu_star": mu_est.value if math.isfinite(mu_est.value)
                   else "inf",
                   "ell_star": ell_star if ell_star is not None else "inf"},
    }
