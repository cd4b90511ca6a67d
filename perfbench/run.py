"""infcone benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload cones --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

A run sets up (imports, fixture parsing, object building), then runs the
workload's fixed item list as a closed loop with one client for about
`--seconds` seconds, always finishing the list once.  It checks every
answer, and prints a human-readable report followed by one JSON line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
The set-up time, wall time and query latencies are scaled to a reference
host speed (see SpeedProbe and reference_time in workloads.py); the report
also prints them raw.
`--workload all` runs every workload untraced and traced in child
processes, prints every metric with its unit, the tracing overhead, and
checks that the untraced and traced runs of each workload give identical
result digests.

The program under test is imported from `src/` next to this directory.
"""

import os

# One BLAS thread: the scipy-openblas build would otherwise start a pool
# sized to the machine, and workload threads are set explicitly below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cones", "distance", "verifiers")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("query_p50_ms", "ms"), ("query_p98_ms", "ms"))
SETUP_REPEATS = 5


def import_program():
    """Put src/ first on the path and check infcone comes from there."""
    if not os.path.isfile(os.path.join(SRC, "infcone", "__init__.py")):
        sys.exit("perfbench: no infcone sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import infcone
    if not os.path.abspath(infcone.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: infcone imported from %s, not %s"
                 % (infcone.__file__, SRC))


def measure_setup(wl):
    """Median of SETUP_REPEATS fresh-process set-ups, start to ready.

    Returns (scaled, raw) medians.  Each set-up is scaled to reference
    host speed by the reference loop timed on this thread just before and
    just after it, while no other work of ours runs.
    """
    raw, scaled = [], []
    ref = wl.reference_time()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--setup-probe"], capture_output=True,
                             text=True, timeout=120, cwd=ROOT)
        dt = time.perf_counter() - t0
        if out.returncode != 0 or out.stdout.strip() != "ready":
            sys.exit("perfbench: set-up probe failed:\n" + out.stderr)
        ref_after = wl.reference_time()
        raw.append(dt)
        scaled.append(dt * 2 * wl.REFERENCE_S / (ref + ref_after))
        ref = ref_after
    return statistics.median(scaled), statistics.median(raw)


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (report lines, result dict)."""
    import numpy as np
    from infcone.config import RunConfig

    import tracer as tr
    import workloads as wl

    setup_s, raw_setup_s = (None, None) if trace else measure_setup(wl)
    maps = wl.setup()
    items = {"cones": wl.cones_items,
             "distance": lambda: wl.distance_items(seed, maps),
             "verifiers": wl.verifier_items}[name]()
    cfg1 = RunConfig(seed=seed, threads=1)
    # the traced cones run repeats the list at threads=2: the outer_limit
    # pool's concurrency, and results and counts must not change with it
    t2 = trace and name == "cones"
    cfg2 = cfg1.replace(threads=2)

    def cfg_for_pass(p):
        return cfg2 if t2 and p == 1 else cfg1

    tracer = tr.Tracer() if trace else None
    if tracer is None:
        with wl.SpeedProbe() as probe:
            loop = wl.run_loop(items, cfg_for_pass, seconds)
    else:
        with tracer:
            loop = wl.run_loop(items, cfg_for_pass, seconds,
                               min_passes=2 if t2 else 1,
                               on_item=tracer.item_span)
    lines = ["workload %s  seed %d  trace %d  passes %d  items %d"
             % (name, seed, int(trace), loop.passes, len(items)),
             "digest %s" % loop.digest()]
    count_mismatch = []
    if tracer is None:
        lat = loop.op_latencies()
        raw = {"wall_s": loop.wall_s(),
               "query_p50_ms": float(np.percentile(lat, 50)) * 1e3,
               "query_p98_ms": float(np.percentile(lat, 98)) * 1e3}
        scale = probe.scale()
        values = {k: v * scale for k, v in raw.items()}
        raw["setup_s"] = raw_setup_s
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
        lines.append("query latency samples %d (%d beyond p98)"
                     % (len(lat), int(len(lat) * 0.02)))
        lines.append("host speed: reference loop %.4f ms (mean of %d); "
                     "wall_s and query times are scaled by %.4f"
                     % (1e3 * wl.REFERENCE_S / scale, len(probe.samples),
                        scale))
        lines.append("raw " + "  ".join("%s %.6g" % kv
                                        for kv in raw.items()))
    else:
        by_pass_item = {}
        for sp in tracer.spans:
            by_pass_item.setdefault((sp.pass_no, sp.item), []).append(sp)
        first = {}
        for (p, item), spans in sorted(by_pass_item.items(),
                                       key=lambda kv: kv[0][0]):
            counts = tr.counts_only(tr.layer_metrics(spans))
            if p == 0:
                first[item] = counts
            elif counts != first.get(item):
                count_mismatch.append("%s@pass%d" % (item, p))
        values = tr.layer_metrics(
            [sp for sp in tracer.spans if sp.pass_no == 0])
        if t2:
            pass1 = tr.layer_metrics(
                [sp for sp in tracer.spans if sp.pass_no == 1])
            values["limits.outer_limit.concurrency_t2"] = \
                pass1["limits.outer_limit.concurrency"]
            values["trace.wall_t2_s"] = pass1["trace.wall_s"]
        if tracer.orphan.dsl_calls:
            count_mismatch.append("dsl calls outside any item")
        units = {n: u for n, u, _ in tr.LAYER_METRICS}
        os.makedirs(OUT, exist_ok=True)
        tracer.dump_jsonl(os.path.join(OUT, "trace-%s.jsonl" % name))
        lines.append("spans %d written to %s"
                     % (len(tracer.spans),
                        os.path.join(OUT, "trace-%s.jsonl" % name)))
    frac = loop.failed / loop.attempted
    lines.append("attempted %d  failed %d  fail_frac %.4f"
                 % (loop.attempted, loop.failed, frac))
    if loop.known_defects:
        lines.append("known defect: %s: %d operations"
                     % (wl.KNOWN_DEFECT, loop.known_defects))
    if loop.unexpected:
        lines.append("FAILED: %d operations failed their checks"
                     % loop.unexpected)
    if loop.mismatches:
        lines.append("FAILED: results changed between passes: %s"
                     % ", ".join(loop.mismatches))
    if count_mismatch:
        lines.append("FAILED: layer counts changed between passes: %s"
                     % ", ".join(count_mismatch))
    for key in units:
        lines.append("%-40s %14.6g %s" % (key, values[key], units[key]))
    result = {"correct": not (loop.unexpected or loop.mismatches
                              or count_mismatch),
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    return lines, result


def run_all(seed, seconds):
    """Every workload untraced and traced, in child processes."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                cwd=ROOT)
            if out.returncode != 0:
                sys.stdout.write(out.stdout + out.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            digest = next(ln.split()[1] for ln in lines
                          if ln.startswith("digest "))
            runs[trace] = (digest, json.loads(lines[-1]), lines)
        (d0, r0, lines0), (d1, r1, _) = runs[0], runs[1]
        raw_wall = float(next(ln.split()[2] for ln in lines0
                              if ln.startswith("raw wall_s ")))
        overhead = r1["metrics"]["trace.wall_s"]["value"] - raw_wall
        same = d0 == d1
        ok &= same and r0["correct"] and r1["correct"]
        print("== %s: digests %s across the untraced and traced runs; "
              "tracing overhead %.3f s" % (name, "identical" if same
                                           else "DIFFER", overhead))
        summary[name] = {"correct": r0["correct"] and r1["correct"],
                         "digests_identical": same,
                         "trace_overhead_s": overhead,
                         "attempted": r0["attempted"],
                         "failed": r0["failed"],
                         "metrics": r0["metrics"]}
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_program()
    if args.setup_probe:
        import workloads
        workloads.setup()
        print("ready")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    lines, result = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
