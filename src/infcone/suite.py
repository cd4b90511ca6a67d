"""Bundled verification suite: every worked fixture with frozen expectations.

Each case rebuilds its objects from the fixture problem files, runs the
relevant pipeline and compares against stored cones/slices/verdicts.
`run_paper_suite` executes the (filtered) cases and returns a
machine-readable summary; the CLI `verify` subcommand wraps it.
"""

import importlib.resources
import math

import numpy as np

from . import dsl
from .cones import (RayCone, Status, canonicalize, cone_distance,
                    slice_hmap)
from .limits import normal_cone_at_infinity, verify_intersection_rule
from .maps import (MultiMap, _slice_cone, check_prop314,
                   coderivative_at_infinity, subdifferential_at_infinity,
                   verify_chain_rule, verify_sum_rule)
from .optimality import OrderingCone, fermat_certificate
from .sets import ClosedSet, full_space, indicator_graph
from .wellposed import (mordukhovich_criterion, test_lipschitz_like,
                        well_posed_report)

_PROBLEMS = {}


def load_problem(fname):
    """Parse (and cache) a bundled fixture problem file."""
    if fname not in _PROBLEMS:
        text = importlib.resources.files("infcone.fixtures") \
            .joinpath(fname).read_text()
        _PROBLEMS[fname] = dsl.parse_problem(text)
    return _PROBLEMS[fname]


def fixture_set(name, split=None):
    return ClosedSet.from_setdef(load_problem("sets.json").sets[name],
                                 split=split)


def fixture_map(name):
    return MultiMap.from_mapdef(load_problem("maps.json").mappings[name])


def fixture_function(name):
    return load_problem("functions.json").functions[name]


def fixture_cone(name):
    return OrderingCone.from_conedef(load_problem("maps.json").cones[name])


# ---------------------------------------------------------------------------
# check helpers

_ANG5 = 0.0873  # five degrees


def _check(name, ok, detail=None):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _expect_status(name, cone, status):
    return _check(name, cone.status == status,
                  {"status": cone.status, "expected": status})


def _expect_rays(name, cone, rays, tol=_ANG5):
    target = canonicalize(np.asarray(rays, dtype=float), len(rays[0]),
                          nonempty=True)
    d = cone_distance(cone, target)
    return _check(name, np.isfinite(d) and d <= tol,
                  {"status": cone.status,
                   "distance": None if np.isinf(d) else float(d),
                   "tol": tol})


def _expect_point_set(name, s, points, tol):
    """HSlice equals the given finite point set within tol (Hausdorff)."""
    pts = np.asarray(points, dtype=float)
    if s.empty or len(s.recessions) or len(s.points) == 0:
        return _check(name, False, {"slice": s.to_json()})
    got = np.asarray(s.points, dtype=float)
    d1 = max(float(np.min(np.linalg.norm(got - p, axis=1))) for p in pts)
    d2 = max(float(np.min(np.linalg.norm(pts - g, axis=1))) for g in got)
    d = max(d1, d2)
    return _check(name, d <= tol, {"hausdorff": d, "tol": tol,
                                   "points": got.tolist()})


def _expect_empty_slice(name, s):
    return _check(name, s.empty, {"slice": s.to_json()})


def _expect_verdict(name, v, status, reason_prefix=None):
    ok = v.status == status
    if ok and reason_prefix is not None:
        ok = (v.reason or "").startswith(reason_prefix)
    return _check(name, ok, {"verdict": v.to_json(),
                             "expected": status,
                             "reason_prefix": reason_prefix})


CASES = []


def case(name):
    def wrap(fn):
        CASES.append((name, fn))
        return fn
    return wrap


# ---------------------------------------------------------------------------
# Normal cones at infinity for the two planar sets


def _halfplane_case(ybar):
    def run(cfg):
        S = fixture_set("Halfplane", split=(1, 1))
        res = normal_cone_at_infinity(S, [ybar], cfg)
        return [_expect_status("cone status", res.cone, Status.ZERO)]
    return run


for _y in (-1.0, 0.0, 2.0):
    case("ex-halfplane.y%g" % _y)(_halfplane_case(_y))


@case("ex-expepi.ym1")
def _expepi_m1(cfg):
    S = fixture_set("ExpEpigraph", split=(1, 1))
    res = normal_cone_at_infinity(S, [-1.0], cfg)
    return [_expect_status("cone status", res.cone, Status.EMPTY)]


@case("ex-expepi.y0")
def _expepi_0(cfg):
    S = fixture_set("ExpEpigraph", split=(1, 1))
    res = normal_cone_at_infinity(S, [0.0], cfg)
    return [_expect_rays("cone rays", res.cone, [[0.0, -1.0]])]


@case("ex-expepi.y1")
def _expepi_1(cfg):
    S = fixture_set("ExpEpigraph", split=(1, 1))
    res = normal_cone_at_infinity(S, [1.0], cfg)
    return [_expect_status("cone status", res.cone, Status.ZERO)]


# ---------------------------------------------------------------------------
# Coderivatives at infinity


@case("cod-signstep")
def _cod_signstep(cfg):
    F = fixture_map("SignStep")
    checks = []
    for ybar in (1.0, -1.0):
        cone = coderivative_at_infinity(F, [ybar], cfg).cone
        for v in np.linspace(-2.0, 2.0, 16):
            s = slice_hmap(cone, [v], cfg.ang_tol, 1)
            checks.append(_expect_point_set(
                "y%g slice(%.3f)" % (ybar, v), s, [[0.0]], 0.05))
    return checks


@case("cod-fanparabola")
def _cod_fan(cfg):
    F = fixture_map("FanParabola")
    c0 = coderivative_at_infinity(F, [0.0], cfg).cone
    c2 = coderivative_at_infinity(F, [2.0], cfg).cone
    return [
        _expect_point_set("y0 slice(1)",
                          slice_hmap(c0, [1.0], cfg.ang_tol, 1),
                          [[0.0]], 0.05),
        _expect_empty_slice("y0 slice(-1)",
                            slice_hmap(c0, [-1.0], cfg.ang_tol, 1)),
        _expect_point_set("y2 slice(0)",
                          slice_hmap(c2, [0.0], cfg.ang_tol, 1),
                          [[0.0]], 0.05),
        _expect_empty_slice("y2 slice(1)",
                            slice_hmap(c2, [1.0], cfg.ang_tol, 1)),
        _expect_empty_slice("y2 slice(-1)",
                            slice_hmap(c2, [-1.0], cfg.ang_tol, 1)),
    ]


@case("cod-firstcoord")
def _cod_first(cfg):
    F = fixture_map("FirstCoord")
    cone = coderivative_at_infinity(F, [0.0], cfg).cone
    checks = []
    for v in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
        s = slice_hmap(cone, [v], cfg.ang_tol, 1)
        checks.append(_expect_point_set(
            "slice(%g)" % v, s, [[v, 0.0]], 1e-2 * (1.0 + abs(v))))
    return checks


_CUSP_RAYS = [[0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]


@case("cod-indicator")
def _cod_indicator(cfg):
    omega = fixture_set("CuspRegion")
    G = indicator_graph(omega, 1)
    F = MultiMap(2, 1, G, name="IndCusp")
    cone = coderivative_at_infinity(F, [0.0], cfg).cone
    checks = []
    for v in (0.0, 1.0, -1.0):
        sc = _slice_cone(slice_hmap(cone, [v], cfg.ang_tol, 1), 2)
        checks.append(_expect_rays("slice(%g) cone" % v, sc, _CUSP_RAYS))
    return checks


# ---------------------------------------------------------------------------
# Subdifferentials at infinity


@case("subdiff-sin")
def _subdiff_sin(cfg):
    sd = subdifferential_at_infinity(fixture_function("SinFn"), 0.0, cfg)
    return [
        _expect_point_set("basic", sd.basic, [[-1.0], [1.0]], 1e-2),
        _expect_status("singular", sd.singular, Status.ZERO),
    ]


@case("subdiff-exp")
def _subdiff_exp(cfg):
    sd = subdifferential_at_infinity(fixture_function("ExpFn"), 0.0, cfg)
    return [
        _expect_point_set("basic", sd.basic, [[0.0]], 1e-2),
        _expect_rays("singular", sd.singular, [[1.0]]),
    ]


@case("subdiff-flatcbrt")
def _subdiff_cbrt(cfg):
    v = check_prop314(fixture_function("FlatCbrt"), 0.0, cfg)
    singular = RayCone.from_json(v.diagnostics["singular"])
    checks = [
        _expect_rays("singular", singular, [[-1.0, 0.0]]),
        _expect_verdict("graph consistency", v, "Pass"),
    ]
    if v.status == "Pass":
        d0 = v.diagnostics.get("d_star_0", {})
        got = canonicalize(np.asarray(d0["rays"]), 2, nonempty=True) \
            if d0.get("status") == Status.RAYS and d0.get("rays") \
            else RayCone.zero(2)
        checks.append(_expect_rays("graph slice(0) full line", got,
                                   [[1.0, 0.0], [-1.0, 0.0]]))
        checks.append(_check("inclusion strict",
                             v.diagnostics.get("strict") is True,
                             {"strict": v.diagnostics.get("strict")}))
    return checks


# ---------------------------------------------------------------------------
# Well-posedness battery


@case("wellposed-zerounionray")
def _wp_zur(cfg):
    F = fixture_map("ZeroUnionRay")
    rep = well_posed_report(F, [0.0], cfg)
    nsg = rep["nonsingularity"]
    kernel = nsg["verdict"].get("diagnostics", {}).get("kernel")
    kern_ok = False
    if kernel and kernel.get("status") == Status.RAYS:
        d = cone_distance(
            canonicalize(np.asarray(kernel["rays"]), 1, nonempty=True),
            canonicalize(np.array([[1.0], [-1.0]]), 1, nonempty=True))
        kern_ok = np.isfinite(d) and d <= _ANG5
    return [
        _check("nonsingularity Fail",
               nsg["verdict"]["status"] == "Fail", nsg["verdict"]),
        _check("kernel full line", kern_ok, kernel),
        _check("regularity divergent",
               rep["regularity"]["value"] == "inf", rep["regularity"]),
        _check("openness Fail",
               rep["openness"]["verdict"]["status"] == "Fail",
               rep["openness"]),
        _check("inverse-lipschitz Fail",
               rep["inverse_lipschitz"]["verdict"]["status"] == "Fail",
               rep["inverse_lipschitz"]),
    ]


@case("wellposed-identity")
def _wp_id(cfg):
    F = fixture_map("Identity1")
    rep = well_posed_report(F, [0.0], cfg, mu=0.9, ell=1.1)
    mu_star = rep["moduli"]["mu_star"]
    ell_star = rep["moduli"]["ell_star"]
    reg = rep["regularity"]["value"]
    return [
        _check("mu* near 1",
               isinstance(mu_star, float) and abs(mu_star - 1.0) <= 0.1,
               {"mu_star": mu_star}),
        _check("ell* near 1",
               isinstance(ell_star, float) and abs(ell_star - 1.0) <= 0.1,
               {"ell_star": ell_star}),
        _check("regularity near 1",
               isinstance(reg, float) and abs(reg - 1.0) <= 0.1,
               rep["regularity"]),
        _check("nonsingularity Pass",
               rep["nonsingularity"]["verdict"]["status"] == "Pass",
               rep["nonsingularity"]["verdict"]),
        _check("openness Pass",
               rep["openness"]["verdict"]["status"] == "Pass",
               rep["openness"]),
        _check("inverse-lipschitz Pass",
               rep["inverse_lipschitz"]["verdict"]["status"] == "Pass",
               rep["inverse_lipschitz"]),
        _check("lipschitz-like Pass",
               rep["lipschitz_like"]["verdict"]["status"] == "Pass",
               rep["lipschitz_like"]),
    ]


@case("criterion-halflineparabola")
def _crit_hlp(cfg):
    F = fixture_map("HalfLineParabola")
    verdict, report = mordukhovich_criterion(F, [0.0], cfg)
    lip = test_lipschitz_like(F, [0.0], 1.0, cfg)
    return [
        _expect_verdict("slice(0) trivial", verdict, "Pass"),
        _expect_verdict("lipschitz-like", lip, "Pass"),
        _check("distance-subgradient bound",
               report["f_bound"]["ok"] is True, report["f_bound"]),
    ]


@case("criterion-harmonicatoms")
def _crit_atoms(cfg):
    F = fixture_map("HarmonicAtoms")
    verdict, report = mordukhovich_criterion(F, [0.0], cfg)
    s0 = report.get("slice0_content", {})
    rec = s0.get("recessions") or []
    full_line = False
    if len(rec) >= 2:
        d = cone_distance(
            canonicalize(np.asarray(rec), 1, nonempty=True),
            canonicalize(np.array([[1.0], [-1.0]]), 1, nonempty=True))
        full_line = np.isfinite(d) and d <= _ANG5
    lip = test_lipschitz_like(F, [0.0], 1.05, cfg)
    return [
        _expect_verdict("slice(0) nontrivial", verdict, "Fail"),
        _check("slice(0) full line", full_line, s0),
        _expect_verdict("lipschitz-like at 1.05", lip, "Pass"),
        _check("inverse image non-open",
               report["openness"]["status"] == "Fail", report["openness"]),
    ]


@case("criterion-parabolashift")
def _crit_pshift(cfg):
    F = fixture_map("ParabolaShift")
    cfg = cfg.replace(radius_factor=4)
    verdict, report = mordukhovich_criterion(F, [0.0], cfg)
    s0 = report.get("slice0_content", {})
    rec = s0.get("recessions") or []
    vertical = False
    if len(rec) >= 2:
        d = cone_distance(
            canonicalize(np.asarray(rec), 2, nonempty=True),
            canonicalize(np.array([[0.0, 1.0], [0.0, -1.0]]), 2,
                         nonempty=True))
        vertical = np.isfinite(d) and d <= _ANG5
    lip = test_lipschitz_like(F, [0.0], 1e3, cfg)
    return [
        _expect_verdict("slice(0) nontrivial", verdict, "Fail"),
        _check("slice(0) vertical line", vertical, s0),
        _expect_verdict("lipschitz-like Fail at 1e3", lip, "Fail"),
    ]


# ---------------------------------------------------------------------------
# Fermat rule at infinity


def _fermat_checks(out):
    """Weak-efficiency, CQ and certificate checks of one Fermat pass."""
    pre = out.diagnostics["preconditions"]
    return [
        _expect_verdict("weak efficiency", pre["weak_efficient"], "Pass"),
        _expect_verdict("constraint qualification", pre["cq_infinity"],
                        "Pass"),
        _check("certificate found", out.ok, out.to_json()),
    ]


@case("fermat-exptail")
def _fermat_i(cfg):
    F = fixture_map("ExpTail")
    out = fermat_certificate(F, full_space(1), fixture_cone("HalfLine"),
                             [0.0], cfg)
    checks = _fermat_checks(out)
    if out.ok:
        c, resid = out.diagnostics["c_star"], out.diagnostics["residual"]
        checks.append(_check("c* near 1", abs(float(c[0]) - 1.0) <= 0.05,
                             {"c_star": c.tolist()}))
        checks.append(_check("residual", resid <= 1e-3,
                             {"residual": resid}))
    return checks


@case("fermat-rampbox")
def _fermat_ii(cfg):
    F = fixture_map("RampOrBox")
    omega = fixture_set("CuspRegion")
    out = fermat_certificate(F, omega, fixture_cone("Quadrant"),
                             [0.0, 0.0], cfg)
    checks = [_expect_rays("constraint-set cone",
                           out.diagnostics["omega_cone"], _CUSP_RAYS)]
    checks += _fermat_checks(out)
    if out.ok:
        c, resid = out.diagnostics["c_star"], out.diagnostics["residual"]
        ang = math.acos(min(1.0, max(-1.0, c[0] / np.linalg.norm(c))))
        checks.append(_check("c* near (1,0)", ang <= _ANG5,
                             {"c_star": c.tolist(), "angle": ang}))
        checks.append(_check("residual", resid <= 1e-2,
                             {"residual": resid}))
    return checks


# ---------------------------------------------------------------------------
# Calculus-rule verifiers


@case("isect-trivial")
def _isect_trivial(cfg):
    S = fixture_set("Halfplane", split=(1, 1))
    v = verify_intersection_rule(S, S, [0.0], cfg)
    return [_expect_verdict("rule", v, "Pass")]


@case("isect-exp-belowtwo")
def _isect_exp(cfg):
    S1 = fixture_set("ExpEpigraph", split=(1, 1))
    S2 = fixture_set("BelowTwo", split=(1, 1))
    v = verify_intersection_rule(S1, S2, [0.0], cfg)
    return [_expect_verdict("rule", v, "Pass")]


@case("isect-cq-violated")
def _isect_cq(cfg):
    S1 = fixture_set("UpperHalf", split=(1, 1))
    S2 = fixture_set("LowerHalf", split=(1, 1))
    v = verify_intersection_rule(S1, S2, [0.0], cfg)
    return [_expect_verdict("rule", v, "Inconclusive", reason_prefix="CQ")]


@case("sum-linear-sin")
def _sum_pass(cfg):
    F1 = fixture_map("FirstCoord")
    F2 = fixture_map("SinOfFirst")
    v = verify_sum_rule(F1, F2, [0.0], None, cfg)
    return [_expect_verdict("rule", v, "Pass")]


@case("sum-unbounded-parts")
def _sum_bound(cfg):
    F1 = fixture_map("Identity1")
    F2 = fixture_map("NegIdentity1")
    v = verify_sum_rule(F1, F2, [0.0], None, cfg)
    return [_expect_verdict("rule", v, "Inconclusive",
                            reason_prefix="boundedness")]


@case("chain-first-identity")
def _chain_pass(cfg):
    F1 = fixture_map("FirstCoord")
    F2 = fixture_map("Identity1")
    v = verify_chain_rule(F1, F2, [0.0], cfg)
    return [_expect_verdict("rule", v, "Pass")]


@case("chain-cq-violated")
def _chain_cq(cfg):
    F1 = fixture_map("Identity1")
    F2 = fixture_map("ZeroUnionRay")
    v = verify_chain_rule(F1, F2, [0.0], cfg)
    return [_expect_verdict("rule", v, "Inconclusive", reason_prefix="CQ")]


# ---------------------------------------------------------------------------
# Runner


def run_case(name, cfg):
    fn = dict(CASES)[name]
    checks = fn(cfg)
    status = "Pass" if all(c["ok"] for c in checks) else "Fail"
    return {"name": name, "status": status, "checks": checks}


def run_paper_suite(filter=None, cfg=None, progress=None):
    """Run all bundled cases whose name contains `filter`.

    Returns {"cases": [...], "counts": {...}} with one entry per case;
    timing is reported through the optional `progress(name, elapsed)`
    callback only, so the returned summary is deterministic.
    """
    from .config import RunConfig
    import time
    cfg = cfg or RunConfig()
    selected = [(n, f) for n, f in CASES
                if not filter or filter in n]
    results = []
    for name, _fn in selected:
        t0 = time.perf_counter()
        try:
            results.append(run_case(name, cfg))
        except Exception as e:  # a crashed case is a failing case
            results.append({"name": name, "status": "Fail",
                            "checks": [_check("no exception", False,
                                              "%s: %s"
                                              % (type(e).__name__, e))]})
        if progress is not None:
            progress(name, time.perf_counter() - t0)
    counts = {"pass": sum(r["status"] == "Pass" for r in results),
              "fail": sum(r["status"] == "Fail" for r in results),
              "total": len(results)}
    return {"schema": 1, "filter": filter or "", "seed": cfg.seed,
            "cases": results, "counts": counts}
