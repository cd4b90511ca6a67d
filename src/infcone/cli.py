"""Command-line front end: problem loading, dispatch, JSON/CSV reports.

Exit codes: 0 all Pass (or nothing to judge), 1 any Fail, 2 usage or
parse error, 3 Inconclusive results only.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, dsl
from .config import RunConfig
from .limits import (limiting_normal_cone, normal_cone_at_infinity,
                     normal_cone_at_infinity_total, frechet_normal_cone)
from .maps import (MultiMap, coderivative_cone_at, coderivative_at_infinity,
                   jelonek_set, point_subdifferential,
                   subdifferential_at_infinity, _default_v_grid)
from .cones import slice_hmap
from .optimality import OrderingCone, fermat_certificate
from .sets import ClosedSet, ProjectionFailure, Shell, SetError, \
    full_space, points_to_csv
from .suite import run_paper_suite
from .verdict import _jsonable
from .wellposed import mordukhovich_criterion, well_posed_report

_VERDICTS = ("Pass", "Fail", "Inconclusive")


def _vec(text, what, lo, hi=None):
    """The finite coordinates in the argument `what`: from lo to hi of
    them (just lo without hi), else a SetError, which exits 2."""
    if text is None:
        raise SetError("a required point/vector argument is missing")
    v = np.array([float(t) for t in text.replace(",", " ").split()])
    hi = lo if hi is None else hi
    if not lo <= len(v) <= hi:
        raise SetError("%s needs %s coordinate(s), got %d" % (
            what, lo if lo == hi else "%d to %d" % (lo, hi), len(v)))
    if not np.isfinite(v).all():
        raise SetError("%s needs finite coordinates, got %s" % (
            what, v.tolist()))
    return v


def _collect_statuses(obj, acc=None):
    """The verdict statuses anywhere in a JSON-like payload, in order."""
    acc = [] if acc is None else acc
    if isinstance(obj, dict):
        s = obj.get("status")
        if s in _VERDICTS and ("witness" in obj or "reason" in obj):
            acc.append(s)
        for v in obj.values():
            _collect_statuses(v, acc)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _collect_statuses(v, acc)
    return acc


def _exit_code(statuses):
    if any(s == "Fail" for s in statuses):
        return 1
    if statuses and all(s != "Pass" for s in statuses) and \
            any(s == "Inconclusive" for s in statuses):
        return 3
    return 0


def _load_problem(path):
    with open(path, "r") as fh:
        text = fh.read()
    return dsl.parse_problem(text), \
        hashlib.sha256(text.encode()).hexdigest()


def _build_cfg(args, prob=None):
    cfg = RunConfig()
    if prob is not None and prob.config:
        cfg = cfg.replace(**prob.config)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.replace(seed=args.seed)
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("INFCONE_THREADS")
        threads = int(env) if env else cfg.threads
    return cfg.replace(threads=threads)


def _get_set(prob, name, split=None):
    if name not in prob.sets:
        raise SetError("no set named %r in the problem" % name)
    return ClosedSet.from_setdef(prob.sets[name], split=split)


def _get_map(prob, name):
    if name not in prob.mappings:
        raise SetError("no mapping named %r in the problem" % name)
    return MultiMap.from_mapdef(prob.mappings[name])


def _dumps(obj):
    """Strict JSON: non-finite floats become "inf", "-inf" or "nan"."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False)


def _emit(args, envelope):
    text = _dumps(envelope)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# command handlers: each returns (result payload, statuses)


def _cmd_validate(args, prob, cfg):
    for cd in prob.cones.values():
        OrderingCone.from_conedef(cd).kplus(cfg)
    return {"sets": sorted(prob.sets), "functions": sorted(prob.functions),
            "mappings": sorted(prob.mappings), "cones": sorted(prob.cones),
            "normalized": prob.pretty()}, []


def _cmd_sample_set(args, prob, cfg):
    if args.count < 1:
        raise SetError("--count must be at least 1")
    S = _get_set(prob, args.set)
    sh = Shell(range(S.dim), args.r_lo, args.r_hi)
    P = S.sample_shell(sh, args.count, cfg, label="cli")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(points_to_csv(P))
    return {"count": int(len(P)),
            "csv": args.csv,
            "points": None if args.csv else P.tolist()}, []


def _cmd_project(args, prob, cfg):
    S = _get_set(prob, args.set)
    try:
        res = S.project(_vec(args.point, "--point", S.dim), cfg)
        return res.to_json(), []
    except ProjectionFailure as e:
        return {"error": str(e), "best_residual": e.best_residual}, \
            ["Inconclusive"]


def _cmd_normal_cone(args, prob, cfg):
    if args.at_infinity:
        if args.ybar is not None:
            dim = _get_set(prob, args.set).dim
            # the value block is the last len(ybar) coordinates
            ybar = _vec(args.ybar, "--ybar", 1, dim - 1)
            S = _get_set(prob, args.set, split=(dim - len(ybar), len(ybar)))
            res = normal_cone_at_infinity(S, ybar, cfg, method=args.method)
        else:
            S = _get_set(prob, args.set)
            res = normal_cone_at_infinity_total(S, cfg)
        return res.to_json(), []
    S = _get_set(prob, args.set)
    x = _vec(args.x, "--x", S.dim)
    if args.method == "frechet":
        cone = frechet_normal_cone(S, x, cfg)
    else:
        cone = limiting_normal_cone(S, x, cfg)
    return {"cone": cone.to_json()}, []


def _cmd_coderivative(args, prob, cfg):
    F = _get_map(prob, args.map)
    if args.at_infinity:
        res = coderivative_at_infinity(F, _vec(args.ybar, "--ybar", F.m),
                                       cfg)
        cone = res.cone
        payload = {"limsup": res.to_json()}
    else:
        cone = coderivative_cone_at(F, _vec(args.x, "--x", F.n),
                                    _vec(args.y, "--y", F.m), cfg)
        payload = {"cone": cone.to_json()}
    if args.v is not None:
        vs = [_vec(args.v, "--v", F.m)]
    elif args.v_grid:
        vs = [np.atleast_1d(np.asarray(v, dtype=float))
              for v in _default_v_grid(F.m)]
    else:
        vs = []
    if vs:
        payload["slices"] = [
            {"v": v.tolist(),
             "slice": slice_hmap(cone, v, cfg.ang_tol, F.m).to_json()}
            for v in vs]
    return payload, []


def _cmd_jelonek(args, prob, cfg):
    F = _get_map(prob, args.map)
    if args.window:
        w = _vec(args.window, "--window", 2 * F.m).reshape(F.m, 2)
    else:
        w = np.array([[-3.0, 3.0]] * F.m)
    return jelonek_set(F, w, cfg, mesh=args.mesh).to_json(), []


def _cmd_subdiff(args, prob, cfg):
    if args.function not in prob.functions:
        raise SetError("no function named %r in the problem" % args.function)
    f = prob.functions[args.function]
    if args.at_infinity:
        ybar = 0.0 if args.ybar is None \
            else float(_vec(args.ybar, "--ybar", 1)[0])
        res = subdifferential_at_infinity(f, ybar, cfg)
        return res.to_json(), []
    basic, singular = point_subdifferential(f, _vec(args.x, "--x", f.n),
                                            cfg)
    return {"basic": basic.to_json(), "singular": singular.to_json()}, []


def _cmd_wellposed(args, prob, cfg):
    F = _get_map(prob, args.map)
    rep = well_posed_report(F, _vec(args.ybar, "--ybar", F.m), cfg,
                            mu=args.mu, ell=args.ell)
    return rep, _collect_statuses(rep)


def _cmd_criterion(args, prob, cfg):
    F = _get_map(prob, args.map)
    verdict, report = mordukhovich_criterion(
        F, _vec(args.ybar, "--ybar", F.m), cfg)
    payload = {"verdict": verdict.to_json(), "report": report}
    return payload, _collect_statuses(payload)


def _cmd_fermat(args, prob, cfg):
    F = _get_map(prob, args.map)
    if args.omega:
        omega = _get_set(prob, args.omega)
    else:
        omega = full_space(F.n)
    if args.cone not in prob.cones:
        raise SetError("no cone named %r in the problem" % args.cone)
    K = OrderingCone.from_conedef(prob.cones[args.cone])
    payload = {"verdict": fermat_certificate(
        F, omega, K, _vec(args.ybar, "--ybar", F.m), cfg).to_json()}
    return payload, _collect_statuses(payload)


def _cmd_verify(args, cfg):
    def progress(name, elapsed):
        print("%-28s %6.1fs" % (name, elapsed), file=sys.stderr)

    summary = run_paper_suite(filter=args.case, cfg=cfg, progress=progress)
    if args.case and not summary["cases"]:
        print("warning: no case matches %r" % args.case, file=sys.stderr)
    text = _dumps(summary)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 1 if summary["counts"]["fail"] else 0


# ---------------------------------------------------------------------------


def _add_common(p, problem=True):
    if problem:
        p.add_argument("--problem", required=True,
                       help="problem description file (JSON or shorthand)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=None, help="write the report here")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="infcone",
        description="normal cones, coderivatives and subdifferentials "
                    "at infinity")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and echo a problem file")
    _add_common(p)

    p = sub.add_parser("sample-set", help="sample a set on a radius shell")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--r-lo", type=float, required=True)
    p.add_argument("--r-hi", type=float, required=True)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--csv", default=None, help="write points as CSV")

    p = sub.add_parser("project", help="Euclidean projection onto a set")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("normal-cone", help="normal cone at a point, at "
                       "infinity with a value window, or total")
    _add_common(p)
    p.add_argument("--set", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--at-infinity", action="store_true")
    p.add_argument("--ybar", default=None)
    p.add_argument("--method", default="frechet",
                   choices=("frechet", "limiting", "both"))

    p = sub.add_parser("coderivative", help="coderivative cone and slices")
    _add_common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--at-infinity", action="store_true")
    p.add_argument("--ybar", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--v-grid", action="store_true")

    p = sub.add_parser("jelonek", help="values at infinity of a mapping")
    _add_common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--window", default=None,
                   help="m pairs lo,hi (flattened)")
    p.add_argument("--mesh", type=float, default=0.1)

    p = sub.add_parser("subdiff", help="subdifferentials of a function")
    _add_common(p)
    p.add_argument("--function", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--at-infinity", action="store_true")
    p.add_argument("--ybar", default=None)

    p = sub.add_parser("wellposed", help="full well-posedness battery")
    _add_common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--ybar", required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--ell", type=float, default=None)

    p = sub.add_parser("criterion", help="coderivative criterion battery")
    _add_common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--ybar", required=True)

    p = sub.add_parser("fermat", help="optimality certificate at infinity")
    _add_common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--omega", default=None)
    p.add_argument("--cone", required=True)
    p.add_argument("--ybar", required=True)

    p = sub.add_parser("verify", help="run the bundled fixture suite")
    _add_common(p, problem=False)
    p.add_argument("--case", default=None,
                   help="only run cases whose name contains this")
    return ap


_HANDLERS = {
    "validate": _cmd_validate,
    "sample-set": _cmd_sample_set,
    "project": _cmd_project,
    "normal-cone": _cmd_normal_cone,
    "coderivative": _cmd_coderivative,
    "jelonek": _cmd_jelonek,
    "subdiff": _cmd_subdiff,
    "wellposed": _cmd_wellposed,
    "criterion": _cmd_criterion,
    "fermat": _cmd_fermat,
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        if args.command == "verify":
            return _cmd_verify(args, _build_cfg(args))
        prob, phash = _load_problem(args.problem)
        cfg = _build_cfg(args, prob)
        payload, statuses = _HANDLERS[args.command](args, prob, cfg)
    except dsl.ParseError as e:
        print(json.dumps({"error": "parse",
                          "diagnostics": [str(d) for d in e.diagnostics]}),
              file=sys.stderr)
        return 2
    except (SetError, OSError, ValueError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 2
    envelope = {
        "schema": 1,
        "tool": "infcone",
        "version": __version__,
        "command": args.command,
        "problem_hash": phash,
        "config": cfg.to_json(),
        "result": payload,
        "verdicts": statuses,
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    _emit(args, envelope)
    return _exit_code(statuses)


if __name__ == "__main__":
    sys.exit(main())
