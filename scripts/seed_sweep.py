"""Run the fixture suite at several seeds and write a per-case status matrix.

    python scripts/seed_sweep.py --seeds 0-4 --out seed_matrix.json
    python scripts/seed_sweep.py --seeds 0,3 --src ../other/src \\
        --label other --out seed_matrix.json

Each seed runs `run_paper_suite` once at threads=1.  The matrix maps each
case to its status per seed, and a Fail also lists the checks that failed.
"flips" lists the cases whose status differs across the seeds.
"digests" holds, per case and seed, the sha256 of the case's JSON as
`infcone verify --out` writes it.  With --label the matrix is stored
under that key of --out, next to the labels the file already holds, so
two source trees can be compared in one file; its "differs_from" maps
each of those other labels to the cases whose status differs from it at
a seed that both ran, and "digest_differs_from" to the cases whose
digest does.
A case that flips, or whose status differs between labels, is a defect
to report, not a seed to avoid.  Wall times per case go to the "seconds"
field; they are not part of the matrix.
The script exits 1, after writing the matrix, when a case is not Pass at
some seed or its status differs from another label's, and names those
cases on stderr; it exits 0 otherwise.
"""

import argparse
import hashlib
import json
import os
import sys
import time


def parse_seeds(text):
    """'0-4' or '0,2,5' or a mix of both -> sorted list of ints."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def sweep(seeds):
    from infcone.cli import _dumps
    from infcone.config import RunConfig
    from infcone.suite import run_paper_suite
    status, digests, failed, seconds = {}, {}, {}, {}
    for seed in seeds:
        t0 = time.perf_counter()

        def progress(name, elapsed):
            seconds.setdefault(name, {})[str(seed)] = round(elapsed, 2)

        summary = run_paper_suite(cfg=RunConfig(seed=seed, threads=1),
                                  progress=progress)
        for case in summary["cases"]:
            status.setdefault(case["name"], {})[str(seed)] = case["status"]
            digests.setdefault(case["name"], {})[str(seed)] = \
                hashlib.sha256(_dumps(case).encode()).hexdigest()
            bad = [c["name"] for c in case.get("checks", []) if not c["ok"]]
            if bad:
                failed.setdefault(case["name"], {})[str(seed)] = bad
        print("seed %d: %d/%d pass in %.1f s"
              % (seed, summary["counts"]["pass"], summary["counts"]["total"],
                 time.perf_counter() - t0), file=sys.stderr)
    flips = sorted(n for n, row in status.items()
                   if len(set(row.values())) > 1)
    return {"seeds": seeds, "threads": 1, "status": status,
            "digests": digests, "failed_checks": failed, "flips": flips,
            "seconds": seconds}


def differs_from(result, doc, label, field="status"):
    """{other label: cases whose `field` ("status" or "digests") differs
    from it at a shared seed}."""
    out = {}
    for other, prev in sorted(doc.items()):
        if other == label:
            continue
        theirs = prev.get(field, {})
        out[other] = sorted(
            name for name, row in result[field].items()
            if any(theirs.get(name, {}).get(seed, v) != v
                   for seed, v in row.items()))
    return out


def gate_failures(result):
    """One line per case that is not Pass at a seed of `result` (one
    label's matrix) and per case whose status differs from another label;
    empty when the sweep passes."""
    lines = ["%s: %s at seed %s" % (name, status, seed)
             for name, row in sorted(result["status"].items())
             for seed, status in sorted(row.items(), key=lambda kv: int(kv[0]))
             if status != "Pass"]
    for other, names in sorted(result.get("differs_from", {}).items()):
        lines += ["%s: status differs from %s" % (name, other)
                  for name in names]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-4", help="e.g. 0-4 or 0,3,7")
    ap.add_argument("--src", default=None,
                    help="infcone source tree to import (default: ../src)")
    ap.add_argument("--label", default=None,
                    help="store the matrix under this key of --out")
    ap.add_argument("--out", default=None, help="JSON file (default stdout)")
    args = ap.parse_args(argv)
    src = args.src or os.path.join(os.path.dirname(__file__), "..", "src")
    sys.path.insert(0, os.path.abspath(src))
    matrix = result = sweep(parse_seeds(args.seeds))
    if args.label:
        doc = {}
        if args.out and os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        matrix["differs_from"] = differs_from(matrix, doc, args.label)
        matrix["digest_differs_from"] = differs_from(matrix, doc, args.label,
                                                     "digests")
        doc[args.label] = matrix
        result = doc
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = gate_failures(matrix)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
