"""Self-test of the benchmark's tracer on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))

import tracer as tr  # noqa: E402
from infcone import cones, limits, maps, suite, wellposed  # noqa: E402
from infcone.config import RunConfig  # noqa: E402

TINY = dict(shells=4, samples_per_shell=40, persistence_window=2,
            max_rounds=4, probes_per_level=20, projection_starts=2)


def scenario(threads):
    """One call into every traced layer; returns comparable results."""
    cfg = RunConfig(seed=3, threads=threads, **TINY)
    S = suite.fixture_set("ExpEpigraph", split=(1, 1))
    F = {n: suite.fixture_map(n) for n in (
        "Identity1", "NegIdentity1", "FirstCoord", "HalfLineParabola",
        "ZeroUnionRay")}
    out = []
    res = limits.normal_cone_at_infinity(S, [0.0], cfg, method="both")
    out.append(res.to_json())
    out.append(maps.distance_to_image(F["HalfLineParabola"], [3.0], [0.5],
                                      cfg))
    out.append(maps.dist_to_preimage(F["ZeroUnionRay"], [0.5], [4.0], cfg))
    out.append(S.project(np.array([0.0, -1.0]), cfg).to_json())
    out.append(maps.verify_sum_rule(F["Identity1"], F["NegIdentity1"], [0.0],
                                    None, cfg).to_json())
    out.append(maps.verify_chain_rule(F["FirstCoord"], F["Identity1"], [0.0],
                                      cfg).to_json())
    out.append(maps.subdifferential_at_infinity(
        suite.fixture_function("ExpFn"), 0.0, cfg).to_json())
    verdict, _ = wellposed.mordukhovich_criterion(F["HalfLineParabola"],
                                                  [0.0], cfg)
    out.append(verdict.to_json())
    out.append(wellposed.test_lipschitz_like(F["HalfLineParabola"], [0.0],
                                             1.0, cfg).to_json())
    half = cones.canonicalize([[0.0, -1.0], [1.0, 0.0]], 2)
    down = cones.canonicalize([[0.0, -1.0]], 2)
    out.append(cones.polar_cone(half).to_json())
    # cone_sum raises when its second operand has two or more rays
    out.append(cones.cone_sum(half, down).to_json())
    out.append(cones.cone_intersect(half, half, cfg.ang_tol).to_json())
    out.append(cones.slice_hmap(half, [1.0], cfg.ang_tol, 1).to_json())
    out.append(cones.cone_distance(half, half))
    return out


def traced(threads):
    with tr.Tracer() as tracer:
        with tracer.item_span(0, "tiny"):
            out = scenario(threads)
    return tracer, out, tr.layer_metrics(tracer.spans)


@pytest.fixture(scope="module")
def runs():
    return {"t1": traced(1), "t1_again": traced(1), "t2": traced(2)}


def test_every_layer_metric_is_emitted(runs):
    tracer, _, m = runs["t1"]
    assert [name for name, _, _ in tr.LAYER_METRICS] == list(m)
    for name in ("dsl.calls", "sets.sample_shell.calls",
                 "sets.sample_fiber.calls", "sets.fields.calls",
                 "sets.project.calls", "limits.outer_limit.calls",
                 "maps.distance_to_image.calls",
                 "maps.dist_to_preimage.calls", "slsqp.calls", "cones.calls",
                 "cones.dedup_directions.rows"):
        assert m[name] > 0, name
    for name in tr.VERIFIER_SPANS:
        assert m[name + ".self_s"] > 0, name
    assert tracer.orphan.dsl_calls == 0


def test_counts_repeat_and_ignore_threads(runs):
    (_, out1, m1), (_, out1b, m1b), (_, out2, m2) = \
        runs["t1"], runs["t1_again"], runs["t2"]
    assert out1 == out1b == out2
    assert tr.counts_only(m1) == tr.counts_only(m1b) == tr.counts_only(m2)


def test_worker_spans_have_a_parent(runs):
    tracer, _, _ = runs["t2"]
    main = threading.main_thread().ident
    workers = [sp for sp in tracer.spans if sp.thread != main]
    assert workers
    assert all(sp.parent is not None for sp in workers)


def _wrappable():
    """Every object the tracer may rebind, by (owner, attribute)."""
    import scipy.optimize
    from infcone import sets
    owners = [m for n, m in sys.modules.items()
              if n == "infcone" or n.startswith("infcone.")]
    owners += [scipy.optimize, sets.ClosedSet, sets.Piece]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()
            if callable(v)}


def test_uninstall_restores_every_attribute():
    before = _wrappable()
    with tr.Tracer() as tracer:
        assert len(tracer._patched) > len(tr.SPAN_ENTRIES) + \
            len(tr.DSL_ENTRIES)
        during = _wrappable()
    after = _wrappable()
    assert any(during[k] is not v for k, v in before.items())
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_the_union_of_children():
    def span(i, name, parent, t0, t1, dsl_s=0.0):
        sp = tr.Span()
        sp.id, sp.name, sp.parent, sp.t0, sp.t1 = i, name, parent, t0, t1
        sp.dsl_calls = sp.dsl_rows = 0
        sp.dsl_s, sp.error, sp.extra = dsl_s, 0, None
        return sp
    # two overlapping worker shells under one outer_limit span
    spans = [span(0, "limits.outer_limit", None, 0.0, 10.0, dsl_s=1.0),
             span(1, "sets.sample_shell", 0, 1.0, 6.0),
             span(2, "sets.sample_shell", 0, 4.0, 8.0)]
    m = tr.layer_metrics(spans)
    assert m["limits.outer_limit.self_s"] == pytest.approx(10 - 7 - 1)
    assert m["limits.outer_limit.concurrency"] == pytest.approx(
        (5 + 4 + 1) / 10)
    assert m["sets.sample_shell.self_s"] == pytest.approx(9.0)
    assert m["dsl.self_s"] == pytest.approx(1.0)
