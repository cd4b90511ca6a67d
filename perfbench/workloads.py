"""Workloads of the infcone benchmark and the closed loop that runs them.

A workload is a fixed list of items made from the seed.  An item returns
one or more operations, each with its answer, a digest of the answer and
whether it passed its check.  `run_loop` runs the list in order, then again
for as long as the time allows, with one client and nothing in parallel.
Each distinct operation is counted once, so a run's attempted and failed
counts are fixed by its seed.
"""

import contextlib
import hashlib
import json
import math
import threading
import time

import numpy as np

CONES_PREFIXES = ("ex-", "cod-", "subdiff-", "isect-")
VERIFIER_CASES = ("sum-unbounded-parts", "chain-first-identity",
                  "criterion-halflineparabola")

# Explicit graphs first (Identity1, ParabolaShift), then the two whose
# graphs are not of the form y == e(x).
DISTANCE_MAPS = ("Identity1", "ParabolaShift", "ZeroUnionRay",
                 "HalfLineParabola")
DISTANCE_SHELLS = 10
# the offset grid estimate_regularity_modulus probes around ybar = 0
DISTANCE_OFFSETS = (0.01, -0.01, 0.05, -0.05, 0.2, -0.2)
# one x per (map, shell) stratum: 40 points, 480 queries
DISTANCE_POINTS = len(DISTANCE_MAPS) * DISTANCE_SHELLS

KNOWN_DEFECT = "dist_to_preimage reports an empty preimage (+inf)"

# What reference_loop takes at the reference host speed, by definition.
REFERENCE_S = 1e-3


def setup():
    """Imports, fixture parsing and object building done before any query.

    Returns the maps the distance workload queries.
    """
    import scipy.optimize  # noqa: F401  (a cold first SLSQP call pays this)
    from infcone import suite
    from infcone.maps import MultiMap
    sets = suite.load_problem("sets.json")
    maps = suite.load_problem("maps.json")
    funcs = suite.load_problem("functions.json")
    for name in sets.sets:
        suite.fixture_set(name)
    for fd in funcs.functions.values():
        MultiMap.from_funcdef(fd)
    built = {name: suite.fixture_map(name) for name in maps.mappings}
    return {name: built[name] for name in DISTANCE_MAPS}


def digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Op:
    __slots__ = ("seconds", "digest", "ok", "known_defect")

    def __init__(self, seconds, digest, ok, known_defect=False):
        self.seconds = seconds
        self.digest = digest
        self.ok = ok
        self.known_defect = known_defect


# ---------------------------------------------------------------------------
# Suite-case workloads


def case_item(name):
    """A bundled suite case judged by its frozen checks."""
    from infcone import suite

    def run(cfg):
        t0 = time.perf_counter()
        try:
            res = suite.run_case(name, cfg)
        except Exception as e:  # a crashed case is a failed operation
            return [Op(time.perf_counter() - t0,
                       digest(["raised", type(e).__name__, str(e)]), False)]
        return [Op(time.perf_counter() - t0, digest(res),
                   res["status"] == "Pass")]
    return run


def cones_items():
    from infcone import suite
    return [(name, case_item(name)) for name, _ in suite.CASES
            if name.startswith(CONES_PREFIXES)]


def verifier_items():
    return [(name, case_item(name)) for name in VERIFIER_CASES]


# ---------------------------------------------------------------------------
# Distance workload


def distance_point(seed, k):
    """(map name, x) of distance point k.

    Points are stratified: k runs through every (map, shell) pair, a 1-D
    point's sign alternates with the shell and a 2-D point's angle lies in
    the shell's tenth of the circle, so a seed changes radii and angles
    inside each stratum but not the mix of query kinds.
    """
    name = DISTANCE_MAPS[k % len(DISTANCE_MAPS)]
    j = k // len(DISTANCE_MAPS)
    rng = np.random.default_rng([seed, k])
    r = rng.uniform(10.0 * 2 ** j, 10.0 * 2 ** (j + 1))
    if name == "ParabolaShift":
        theta = 2 * math.pi * (j + rng.random()) / DISTANCE_SHELLS
        return name, np.array([r * math.cos(theta), r * math.sin(theta)])
    return name, np.array([r if j % 2 == 0 else -r])


def image_reference(name, x, y):
    """dist(y, F(x)) in closed form."""
    if name == "Identity1":
        return abs(y - x[0])
    if name == "ParabolaShift":
        return abs(y - (x[0] - x[1] ** 2))
    if name == "ZeroUnionRay":  # F(x) = {0} u [x, inf)
        return min(abs(y), max(x[0] - y, 0.0))
    if name == "HalfLineParabola":  # (-inf, 0] for x <= 0, {x^2} for x > 0
        return max(y, 0.0) if x[0] <= 0 else abs(y - x[0] ** 2)
    raise KeyError(name)


def preimage_reference(name, z, x):
    """dist(x, F^{-1}(z)) in closed form (z != 0)."""
    if name == "Identity1":
        return abs(x[0] - z)
    if name == "ParabolaShift":
        # nearest point (z + t^2, t) of the parabola: 2t^3 + (2(z-a)+1)t = b
        a, b = x
        roots = np.roots([2.0, 0.0, 2.0 * (z - a) + 1.0, -b])
        ts = roots[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))].real
        return min(math.hypot(z + t * t - a, t - b) for t in ts)
    if name == "ZeroUnionRay":  # F^{-1}(z) = (-inf, z]
        return max(x[0] - z, 0.0)
    if name == "HalfLineParabola":  # (-inf, 0] for z <= 0, {sqrt z} else
        return max(x[0], 0.0) if z <= 0 else abs(x[0] - math.sqrt(z))
    raise KeyError(name)


def _close(got, ref):
    return abs(got - ref) <= 1e-6 * (1.0 + abs(ref))


def distance_item(graphs, seed, k):
    """12 queries at one point x, as estimate_regularity_modulus makes."""
    from infcone import maps  # looked up per call, so a tracer sees them
    name, x = distance_point(seed, k)

    def query(fn, ref, preimage):
        t0 = time.perf_counter()
        try:
            got = float(fn())
        except Exception as e:  # a raising query is a failed operation
            return Op(time.perf_counter() - t0,
                      digest(["raised", type(e).__name__, str(e)]), False)
        dt = time.perf_counter() - t0
        ok = _close(got, ref)
        return Op(dt, digest(repr(got)), ok,
                  not ok and preimage and math.isinf(got))

    def run(cfg):
        F = graphs[name]
        ops = []
        for y in DISTANCE_OFFSETS:
            ops.append(query(lambda: maps.distance_to_image(F, x, [y], cfg),
                             image_reference(name, x, y), False))
            ops.append(query(lambda: maps.dist_to_preimage(F, [y], x, cfg),
                             preimage_reference(name, y, x), True))
        return ops
    return run


def distance_items(seed, graphs):
    return [("x%d" % k, distance_item(graphs, seed, k))
            for k in range(DISTANCE_POINTS)]


# ---------------------------------------------------------------------------
# Host speed


def reference_loop():
    """Fixed pure-Python arithmetic that runs no infcone code.

    It holds the interpreter lock for its whole run (about 1 ms), so its
    time tracks how fast the host runs this process at that moment.
    """
    acc = 0.0
    vals = [0.5 * k for k in range(64)]
    for i in range(150):
        for v in vals:
            acc += math.sqrt(v + i) * 1e-3
    return acc


def reference_time(n=50):
    """Median time of n reference_loop runs on the calling thread."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class SpeedProbe:
    """Times reference_loop every `period` seconds on a background thread.

    The host's speed drifts by tens of percent within minutes, from load
    that is not ours.  Scaling a run's times by REFERENCE_S over the mean
    reference time of the same run turns them into reference-speed times.
    """

    def __init__(self, period=0.2):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period):
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self):
        return REFERENCE_S / float(np.mean(self.samples))


# ---------------------------------------------------------------------------
# Closed loop


class LoopResult:
    """Everything a run measured, keyed by item index."""

    def __init__(self, names):
        self.names = names
        self.item_seconds = [[] for _ in names]
        self.op_seconds = [None] * len(names)  # per item: list per op
        self.first_digests = [None] * len(names)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.unexpected = 0
        self.mismatches = []

    def record(self, i, seconds, ops):
        """Record one run of item i.

        Only an item's first run counts its operations as attempted or
        failed: the later runs repeat the same inputs for timing, and
        must give the same digests.  So the counts depend on the seed
        alone, not on how many repeats fit in the time.
        """
        self.item_seconds[i].append(seconds)
        digests = [op.digest for op in ops]
        if self.first_digests[i] is not None:
            if digests != self.first_digests[i]:
                self.mismatches.append(self.names[i])
            for acc, op in zip(self.op_seconds[i], ops):
                acc.append(op.seconds)
            return
        self.first_digests[i] = digests
        self.op_seconds[i] = [[op.seconds] for op in ops]
        for op in ops:
            self.attempted += 1
            if op.ok:
                continue
            self.failed += 1
            if op.known_defect:
                self.known_defects += 1
            else:
                self.unexpected += 1

    def digest(self):
        return digest(self.first_digests)

    def wall_s(self):
        """Time for one pass over the list: the sum of item medians."""
        return float(sum(np.median(s) for s in self.item_seconds))

    def op_latencies(self):
        """Median latency of each distinct operation."""
        return [float(np.median(s)) for ops in self.op_seconds
                for s in ops]


def run_loop(items, cfg_for_pass, seconds, min_passes=1, on_item=None):
    """Run `items` in order until `seconds` have passed.

    The first `min_passes` passes run whole.  After them an item is
    started only when its last duration fits in the time left, so a run
    overshoots its budget only when those passes are longer than it.
    `cfg_for_pass(p)` gives the RunConfig of pass p; `on_item(p, name)`
    gives a context to run each item in (the tracer's item span).
    """
    res = LoopResult([name for name, _ in items])
    deadline = time.perf_counter() + seconds
    while True:
        p = res.passes
        cfg = cfg_for_pass(p)
        for i, (name, fn) in enumerate(items):
            if p >= min_passes and \
                    res.item_seconds[i][-1] > deadline - time.perf_counter():
                return res
            with on_item(p, name) if on_item else contextlib.nullcontext():
                t0 = time.perf_counter()
                ops = fn(cfg)
                dt = time.perf_counter() - t0
            res.record(i, dt, ops)
        res.passes += 1
