"""Span tracer for infcone's layers, installed from outside the package.

`Tracer` rebinds the public entry points of each infcone layer (and
`scipy.optimize.minimize`, which the projection code imports at call time)
to wrappers that record spans, and restores every original object when it
is uninstalled.  Nothing inside `src/infcone` changes.

A span records name, start, end, parent span, thread and the workload item
(and pass) it belongs to.  Spans live on per-thread stacks; a span opened
by a worker thread with an empty stack takes the main thread's innermost
open span as parent, which is how `outer_limit`'s thread-pool shells are
attributed to it.  Spans stay in memory until `dump_jsonl` writes them.

The DSL entry points run hundreds of thousands of times per pass, each on
an already-built point array, so they are not stored as spans: every
outermost DSL call adds its count, rows and duration to the innermost open
span of its thread (a DSL call made from inside another DSL call, such as
`Piece.residual` -> `Piece.gval`, is part of the outer one).
"""

import contextlib
import functools
import json
import math
import sys
import threading
import time

_perf = time.perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(p):
    shape = getattr(p, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _obs_sample_shell(args, kwargs, res):
    return {"requested": int(_arg(args, kwargs, 2, "count")),
            "returned": len(res)}


def _obs_sample_fiber(args, kwargs, res):
    return {"returned": len(res), "empty": int(len(res) == 0)}


def _obs_field(args, kwargs, res):
    return {"rows": _rows(_arg(args, kwargs, 1, "P"))}


def _obs_outer_limit(args, kwargs, res):
    diag = res.diagnostics
    return {"shells": int(_arg(args, kwargs, 1, "approach").levels),
            "samples": int(sum(diag["samples_per_shell"])),
            "candidates": int(diag["candidates"])}


def _obs_distance(args, kwargs, res):
    return {"inf": int(math.isinf(res))}


def _obs_minimize(args, kwargs, res):
    # SLSQP status 9 is "Iteration limit reached"
    return {"nit": int(res.nit), "nfev": int(res.nfev),
            "success": int(bool(res.success)), "maxiter": int(res.status == 9)}


def _obs_dedup(args, kwargs, res):
    return {"rows": _rows(_arg(args, kwargs, 0, "dirs"))}


# (module, class or None, attribute, span name, observer).  An observer
# maps (args, kwargs, result) to the counters the span carries.
SPAN_ENTRIES = [
    ("infcone.sets", "ClosedSet", "sample_shell", "sets.sample_shell",
     _obs_sample_shell),
    ("infcone.sets", "ClosedSet", "sample_fiber", "sets.sample_fiber",
     _obs_sample_fiber),
    ("infcone.sets", "ClosedSet", "frechet_field", "sets.fields",
     _obs_field),
    ("infcone.sets", "ClosedSet", "projection_dir_field", "sets.fields",
     _obs_field),
    ("infcone.sets", "ClosedSet", "project", "sets.project", None),
    ("infcone.limits", None, "outer_limit", "limits.outer_limit",
     _obs_outer_limit),
    ("infcone.maps", None, "distance_to_image", "maps.distance_to_image",
     _obs_distance),
    ("infcone.maps", None, "dist_to_preimage", "maps.dist_to_preimage",
     _obs_distance),
    ("scipy.optimize", None, "minimize", "slsqp", _obs_minimize),
    ("infcone.maps", None, "verify_sum_rule", "maps.verify_sum_rule", None),
    ("infcone.maps", None, "verify_chain_rule", "maps.verify_chain_rule",
     None),
    ("infcone.maps", None, "subdifferential_at_infinity",
     "maps.subdifferential_at_infinity", None),
    ("infcone.wellposed", None, "mordukhovich_criterion",
     "wellposed.mordukhovich_criterion", None),
    ("infcone.wellposed", None, "test_lipschitz_like",
     "wellposed.test_lipschitz_like", None),
] + [("infcone.cones", None, fn, "cones." + fn,
      _obs_dedup if fn == "dedup_directions" else None)
     for fn in ("canonicalize", "dedup_directions", "cone_distance",
                "polar_cone", "slice_hmap", "cone_sum", "cone_intersect")]

# (module, class or None, attribute, index of the point-array argument)
DSL_ENTRIES = [
    ("infcone.dsl", None, "eval_predicate", 1),
    ("infcone.dsl", None, "eval_expr", 1),
    ("infcone.sets", "Piece", "gval", 2),
    ("infcone.sets", "Piece", "grad", 2),
    ("infcone.sets", "Piece", "rhs_scale", 2),
    ("infcone.sets", "Piece", "residual", 1),
]

VERIFIER_SPANS = ("maps.verify_sum_rule", "maps.verify_chain_rule",
                  "maps.subdifferential_at_infinity",
                  "wellposed.mordukhovich_criterion",
                  "wellposed.test_lipschitz_like")

# Per-layer metric names with their unit and better direction, in the order
# they are reported.
LAYER_METRICS = [
    ("dsl.calls", "count", "lower"),
    ("dsl.rows", "count", "lower"),
    ("dsl.rows_per_call", "rows/call", "higher"),
    ("dsl.self_s", "s", "lower"),
    ("sets.sample_shell.calls", "count", "lower"),
    ("sets.sample_shell.requested", "count", "lower"),
    ("sets.sample_shell.returned", "count", "higher"),
    ("sets.sample_shell.accept_ratio", "ratio", "higher"),
    ("sets.sample_shell.self_s", "s", "lower"),
    ("sets.sample_fiber.calls", "count", "lower"),
    ("sets.sample_fiber.returned", "count", "higher"),
    ("sets.sample_fiber.empty_calls", "count", "lower"),
    ("sets.sample_fiber.self_s", "s", "lower"),
    ("sets.fields.calls", "count", "lower"),
    ("sets.fields.rows", "count", "lower"),
    ("sets.fields.self_s", "s", "lower"),
    ("sets.project.calls", "count", "lower"),
    ("sets.project.failures", "count", "lower"),
    ("sets.project.self_s", "s", "lower"),
    ("limits.outer_limit.calls", "count", "lower"),
    ("limits.outer_limit.shells", "count", "lower"),
    ("limits.outer_limit.samples", "count", "lower"),
    ("limits.outer_limit.candidates", "count", "lower"),
    ("limits.outer_limit.self_s", "s", "lower"),
    ("limits.outer_limit.concurrency", "ratio", "higher"),
    ("limits.outer_limit.concurrency_t2", "ratio", "higher"),
    ("maps.distance_to_image.calls", "count", "lower"),
    ("maps.distance_to_image.inf_results", "count", "lower"),
    ("maps.distance_to_image.self_s", "s", "lower"),
    ("maps.dist_to_preimage.calls", "count", "lower"),
    ("maps.dist_to_preimage.inf_results", "count", "lower"),
    ("maps.dist_to_preimage.self_s", "s", "lower"),
    ("slsqp.calls", "count", "lower"),
    ("slsqp.nit", "count", "lower"),
    ("slsqp.nfev", "count", "lower"),
    ("slsqp.success_ratio", "ratio", "higher"),
    ("slsqp.maxiter_hits", "count", "lower"),
    ("slsqp.self_s", "s", "lower"),
] + [(name + ".self_s", "s", "lower") for name in VERIFIER_SPANS] + [
    ("cones.calls", "count", "lower"),
    ("cones.self_s", "s", "lower"),
    ("cones.dedup_directions.rows", "count", "lower"),
    ("cones.dedup_directions.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.wall_t2_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Metrics that are wall-clock times; everything else must repeat exactly.
TIMED = {name for name, unit, _ in LAYER_METRICS
         if unit == "s" or name.startswith("limits.outer_limit.concurrency")}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "item", "pass_no", "t0",
                 "t1", "dsl_calls", "dsl_rows", "dsl_s", "error", "extra")

    def to_json(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.pass_no = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patched = []
        # outermost DSL calls made outside any span
        self.orphan = Span()
        self.orphan.dsl_calls = self.orphan.dsl_rows = 0
        self.orphan.dsl_s = 0.0

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack \
                if threading.current_thread() is threading.main_thread() \
                else []
            self._local.stack = stack
        return stack

    def open(self, name):
        stack = self._stack()
        sp = Span()
        sp.name = name
        if stack:
            sp.parent = stack[-1].id
        else:
            main = self._main_stack
            sp.parent = main[-1].id \
                if main and stack is not main else None
        sp.thread = threading.get_ident()
        sp.item = self.item
        sp.pass_no = self.pass_no
        sp.dsl_calls = sp.dsl_rows = 0
        sp.dsl_s = 0.0
        sp.error = 0
        sp.extra = None
        with self._lock:
            sp.id = len(self.spans)
            self.spans.append(sp)
        stack.append(sp)
        sp.t1 = None
        sp.t0 = _perf()
        return sp

    def close(self, sp):
        sp.t1 = _perf()
        self._local.stack.pop()

    @contextlib.contextmanager
    def item_span(self, pass_no, item):
        """Root span of one workload item, opened on the main thread."""
        self.item, self.pass_no = item, pass_no
        sp = self.open("item")
        try:
            yield sp
        finally:
            self.close(sp)

    def _span_wrapper(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = tracer.open(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                sp.error = 1
                raise
            finally:
                tracer.close(sp)
            if observe is not None:
                sp.extra = observe(args, kwargs, res)
            return res
        return wrapper

    def _dsl_wrapper(self, fn, row_arg):
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_dsl", False):
                return fn(*args, **kwargs)
            local.in_dsl = True
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                local.in_dsl = False
                rows = _rows(args[row_arg]) if len(args) > row_arg else 1
                stack = getattr(local, "stack", None)
                if stack:
                    sp = stack[-1]
                    sp.dsl_calls += 1
                    sp.dsl_rows += rows
                    sp.dsl_s += dt
                else:
                    # a worker outside any span counts toward the main
                    # thread's open span, which other workers share
                    with tracer._lock:
                        main = tracer._main_stack
                        sp = main[-1] if main and stack is not main \
                            else tracer.orphan
                        sp.dsl_calls += 1
                        sp.dsl_rows += rows
                        sp.dsl_s += dt
        return wrapper

    # -- install / restore ----------------------------------------------------

    def _rebind(self, owner, attr, wrap):
        """Set owner.attr to wrap(original) wherever infcone holds it.

        Modules that imported a function by name hold their own reference,
        so every `infcone.*` module attribute that is the same object is
        rebound too.  Methods are rebound on their class only.
        """
        original = getattr(owner, attr)
        wrapper = wrap(original)
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for modname, mod in list(sys.modules.items()):
                if mod is None or mod is owner or not (
                        modname == "infcone" or
                        modname.startswith("infcone.")):
                    continue
                targets += [(mod, key) for key, val in vars(mod).items()
                            if val is original]
        for obj, key in targets:
            self._patched.append((obj, key, original))
            setattr(obj, key, wrapper)

    def install(self):
        import scipy.optimize  # noqa: F401  (the wrapped module)
        import infcone.maps  # noqa: F401
        import infcone.suite  # noqa: F401
        import infcone.wellposed  # noqa: F401

        def owner(module, cls):
            mod = sys.modules[module]
            return getattr(mod, cls) if cls else mod
        for module, cls, attr, name, observe in SPAN_ENTRIES:
            self._rebind(owner(module, cls), attr,
                         lambda fn: self._span_wrapper(fn, name, observe))
        for module, cls, attr, row_arg in DSL_ENTRIES:
            self._rebind(owner(module, cls), attr,
                         lambda fn: self._dsl_wrapper(fn, row_arg))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()  # undo a partial install
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump_jsonl(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Metrics from spans


def _covered(sp, children):
    """Length of [sp.t0, sp.t1] covered by the union of child intervals."""
    iv = sorted((max(c.t0, sp.t0), min(c.t1, sp.t1)) for c in children)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in iv:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# span counters summed into metrics: span name -> ((counter, metric), ...)
_SUMS = {
    "sets.sample_shell": (("requested", "sets.sample_shell.requested"),
                          ("returned", "sets.sample_shell.returned")),
    "sets.sample_fiber": (("returned", "sets.sample_fiber.returned"),
                          ("empty", "sets.sample_fiber.empty_calls")),
    "sets.fields": (("rows", "sets.fields.rows"),),
    "limits.outer_limit": (("shells", "limits.outer_limit.shells"),
                           ("samples", "limits.outer_limit.samples"),
                           ("candidates", "limits.outer_limit.candidates")),
    "maps.distance_to_image": (("inf",
                                "maps.distance_to_image.inf_results"),),
    "maps.dist_to_preimage": (("inf", "maps.dist_to_preimage.inf_results"),),
    "slsqp": (("nit", "slsqp.nit"), ("nfev", "slsqp.nfev"),
              ("success", "slsqp.success_ratio"),
              ("maxiter", "slsqp.maxiter_hits")),
    "cones.dedup_directions": (("rows", "cones.dedup_directions.rows"),),
}


def layer_metrics(spans):
    """Per-layer metrics (name -> value) of a set of closed spans.

    A span's self time is its duration minus the part of it covered by
    child spans and minus its own DSL time.  "item" spans are the roots
    the benchmark opens around each workload item.
    """
    spans = [s for s in spans if s.t1 is not None]
    ids = {s.id for s in spans}
    children = {}
    for s in spans:
        if s.parent in ids:
            children.setdefault(s.parent, []).append(s)
    m = {name: 0 for name, _, _ in LAYER_METRICS}
    ol_child = ol_wall = 0.0
    for s in spans:
        kids = children.get(s.id, ())
        wall = s.t1 - s.t0
        self_s = max(wall - _covered(s, kids) - s.dsl_s, 0.0)
        m["dsl.calls"] += s.dsl_calls
        m["dsl.rows"] += s.dsl_rows
        m["dsl.self_s"] += s.dsl_s
        if s.name == "item":
            m["bench.self_s"] += self_s
            m["trace.wall_s"] += wall
            continue
        m["trace.spans"] += 1
        layer = "cones" if s.name.startswith("cones.") else s.name
        m[layer + ".self_s"] += self_s
        if layer + ".calls" in m:
            m[layer + ".calls"] += 1
        if s.name == "cones.dedup_directions":
            m["cones.dedup_directions.self_s"] += self_s
        elif s.name == "sets.project":
            m["sets.project.failures"] += s.error
        elif s.name == "limits.outer_limit":
            ol_wall += wall
            ol_child += sum(k.t1 - k.t0 for k in kids) + s.dsl_s
        if s.extra:
            for key, metric in _SUMS.get(s.name, ()):
                m[metric] += s.extra[key]
    m["dsl.rows_per_call"] = m["dsl.rows"] / m["dsl.calls"] \
        if m["dsl.calls"] else 0.0
    req = m["sets.sample_shell.requested"]
    m["sets.sample_shell.accept_ratio"] = \
        m["sets.sample_shell.returned"] / req if req else 0.0
    m["slsqp.success_ratio"] = m["slsqp.success_ratio"] / m["slsqp.calls"] \
        if m["slsqp.calls"] else 0.0
    m["limits.outer_limit.concurrency"] = ol_child / ol_wall \
        if ol_wall else 0.0
    return m


def counts_only(metrics):
    """The metrics that must repeat exactly (everything but times)."""
    return {k: v for k, v in metrics.items() if k not in TIMED}
