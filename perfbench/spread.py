"""Run every workload at several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 0-9 --seconds 30 --out perfbench/out/spread.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread, which
is (Q3 - Q1) / median.  It also records every run's attempted and failed
counts and its elapsed time, and, with `--traced-seed`, the per-layer
metrics of one traced run per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, RUN, "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1]), elapsed


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, a-b")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res, elapsed = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "elapsed_s": elapsed,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": res["metrics"]})
            print("%s seed %d: %.1f s, correct %s, failed %d/%d"
                  % (workload, seed, elapsed, res["correct"], res["failed"],
                     res["attempted"]), flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for m in bench["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = dict(s, unit=m["unit"],
                                                  bound=m["bound"])
            print("  %-14s median %12.6g %-3s  Q1 %12.6g  Q3 %12.6g  "
                  "spread %.3f (bound %.2f)"
                  % (m["name"], s["median"], m["unit"], s["q1"], s["q3"],
                     s["spread"], m["bound"]), flush=True)
        if args.traced_seed is not None:
            res, _ = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.traced_seed,
                                  "correct": res["correct"],
                                  "metrics": {k: v["value"] for k, v in
                                              res["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
