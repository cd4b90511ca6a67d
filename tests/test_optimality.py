"""Ordering cones, scalarization, weak efficiency, Fermat certificates."""

import json

import numpy as np
import pytest

from infcone import optimality
from infcone.cones import Status, contains_direction
from infcone.dsl import parse_problem
from infcone.maps import MultiMap
from infcone.optimality import (OrderingCone, check_cq_infinity,
                                check_weak_efficient, fermat_certificate,
                                positive_polar, scalarize, scalarize_subdiff)
from infcone.sets import SetError, Shell, full_space
from infcone.suite import fixture_cone, fixture_map, fixture_set
from infcone.verdict import Verdict


def make_map(graph, n=1, m=1, name="F"):
    doc = json.dumps({"mappings": {name: {"n": n, "m": m, "graph": graph}}})
    return MultiMap.from_mapdef(parse_problem(doc).mappings[name])


@pytest.fixture(scope="module")
def pos1():
    return OrderingCone([[1.0]], [1.0], name="R+")


@pytest.fixture(scope="module")
def orthant():
    return OrderingCone([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], name="R2+")


class TestOrderingCone:
    def test_unpointed_rejected(self):
        with pytest.raises(SetError):
            OrderingCone([[1.0, 0.0], [-1.0, 0.0]], [0.0, 1.0])

    def test_zero_generator_rejected(self):
        with pytest.raises(SetError):
            OrderingCone([[0.0, 0.0]], [1.0, 1.0])

    def test_positive_polar_of_orthant(self, orthant, fast_cfg):
        kp = positive_polar(orthant, fast_cfg)
        assert kp.status == Status.RAYS
        s = 1.0 / np.sqrt(2.0)
        assert contains_direction(kp, np.array([s, s]), 0.02)
        assert not contains_direction(kp, np.array([-1.0, 0.0]), 0.05)

    def test_membership(self, orthant, fast_cfg):
        # y in K iff phi(-y) <= 0
        assert scalarize(orthant, orthant.e, [-2.0, -0.5], fast_cfg) <= 0.0
        assert scalarize(orthant, orthant.e, [1.0, -1.0], fast_cfg) > 0.0

    def test_spanning_generators_rejected(self, fast_cfg):
        # three rays 120 degrees apart pass the pairwise pointedness check,
        # but they positively span the plane: the polar is {0}
        K = OrderingCone([[1.0, 0.0], [-0.5, 0.866], [-0.5, -0.866]],
                         [1.0, 0.0])
        with pytest.raises(SetError, match="not pointed"):
            K.kplus(fast_cfg)
        with pytest.raises(SetError, match="not pointed"):
            scalarize(K, K.e, [1.0, 1.0], fast_cfg)


class TestScalarize:
    def test_half_line_oracle(self, pos1, fast_cfg):
        assert scalarize(pos1, pos1.e, [0.0], fast_cfg) == \
            pytest.approx(0.0, abs=1e-6)
        assert scalarize(pos1, pos1.e, [3.0], fast_cfg) == \
            pytest.approx(3.0, abs=1e-6)
        assert scalarize(pos1, pos1.e, [-2.0], fast_cfg) == \
            pytest.approx(-2.0, abs=1e-6)

    def test_orthant_oracle(self, orthant, fast_cfg):
        # phi(y) = max(y1, y2) for K = R^2_+, e = (1, 1); the sampled polar
        # reaches a grid step past K+: error ~2e-3 of 1 + |y|
        assert scalarize(orthant, orthant.e, [1.0, 2.0], fast_cfg) == \
            pytest.approx(2.0, abs=0.01)
        assert scalarize(orthant, orthant.e, [-1.0, -3.0], fast_cfg) == \
            pytest.approx(-1.0, abs=0.01)

    def test_subdiff_active_face(self, orthant, fast_cfg):
        sl = scalarize_subdiff(orthant, orthant.e, [1.0, 2.0], fast_cfg)
        assert len(sl.points) >= 1
        # the tolerance band smears the face a little; everything stays
        # near the (0, 1) vertex and the vertex itself is hit
        assert min(np.linalg.norm(p - np.array([0.0, 1.0]))
                   for p in sl.points) <= 0.05
        assert all(p[1] >= 0.8 for p in sl.points)

    def test_subdiff_kink(self, orthant, fast_cfg):
        # y1 = y2: both faces are active, the subdifferential is a segment
        sl = scalarize_subdiff(orthant, orthant.e, [2.0, 2.0], fast_cfg)
        got = np.array(sl.points)
        assert got[:, 0].min() <= 0.1 and got[:, 0].max() >= 0.9


class TestWeakEfficiency:
    def test_square_min_at_zero(self, pos1, fast_cfg):
        F = make_map("v2 == v1^2", name="Sq")
        v = check_weak_efficient(F, full_space(1), pos1, [0.0], fast_cfg)
        assert v.ok

    def test_interior_value_fails(self, pos1, fast_cfg):
        F = make_map("v2 == v1^2", name="Sq")
        v = check_weak_efficient(F, full_space(1), pos1, [1.0], fast_cfg)
        assert v.status == "Fail"
        assert v.witness["phi"] < 0

    @pytest.mark.parametrize("problem, ybar, status", [
        ("square", [1.0], "Fail"),
        ("square", [0.05], "Pass"),
        ("rampbox", [0.5, 0.5], "Fail"),
    ])
    def test_batched_matches_row_loop(self, pos1, fast_cfg, problem, ybar,
                                      status):
        if problem == "square":
            F, omega, K = make_map("v2 == v1^2", name="Sq"), full_space(1), \
                pos1
        else:
            F, omega, K = fixture_map("RampOrBox"), \
                fixture_set("CuspRegion"), fixture_cone("Quadrant")
        got = check_weak_efficient(F, omega, K, ybar, fast_cfg)
        want = _weak_efficient_rows(F, omega, K, ybar, fast_cfg)
        assert got.status == want.status == status
        assert got.diagnostics == want.diagnostics
        if status == "Fail":
            assert got.witness["x"] == want.witness["x"]
            assert got.witness["y"] == want.witness["y"]
            assert got.witness["phi"] == \
                pytest.approx(want.witness["phi"], abs=1e-12)


def _weak_efficient_rows(F, omega, K, ybar, cfg, margin=0.02):
    """check_weak_efficient one sampled row at a time, with the one-row
    scalarize: the reference for the batched shell pass."""
    ybar = np.asarray(ybar, dtype=float)
    S = optimality._constrained_graph(F, omega)
    closest, probes = np.inf, 0
    for j in range(cfg.shells + 2):
        lo = 0.2 * 2.0 ** j
        sh = Shell(range(F.n), lo, 2.0 * lo, center=ybar, rho=8.0)
        for row in S.sample_shell(sh, cfg.samples_per_shell // 4, cfg,
                                  label="weff|%d" % j):
            y = row[F.n:]
            closest = min(closest, float(np.linalg.norm(y - ybar)))
            phi = scalarize(K, K.e, y - ybar, cfg)
            probes += 1
            if phi < -margin * (1.0 + np.linalg.norm(y - ybar)):
                return Verdict.failed({"x": row[:F.n].tolist(),
                                       "y": y.tolist(), "phi": phi},
                                      closure_gap=closest)
    return Verdict.passed(probes=probes, closure_gap=closest,
                          note=optimality._BUDGET_NOTE)


class TestFermat:
    def test_precondition_refusal(self, pos1, fast_cfg):
        # ybar = 1 is not weakly efficient for x -> {x^2} (see
        # test_interior_value_fails), so no certificate is searched for
        F = make_map("v2 == v1^2", name="Sq")
        out = fermat_certificate(F, full_space(1), pos1, [1.0], fast_cfg)
        assert isinstance(out, Verdict)
        assert out.status == "Inconclusive"
        assert out.reason.startswith("precondition not passed")
        pre = out.diagnostics["preconditions"]
        assert pre["weak_efficient"].status == "Fail"
        assert set(pre) == {"weak_efficient", "cq_infinity"}

    def test_flat_tail_certificate(self, pos1, fast_cfg):
        # F(x) = {exp(-x^2)}: values decrease to 0 at infinity, so 0 is
        # weakly efficient and the multiplier is c* = 1
        F = make_map("v2 == exp(-v1^2)", name="FlatTail")
        out = fermat_certificate(F, full_space(1), pos1, [0.0], fast_cfg)
        assert out.ok
        assert out.diagnostics["c_star"][0] == pytest.approx(1.0, abs=0.05)
        assert out.diagnostics["residual"] <= 1e-2

    def test_each_cone_built_once(self, pos1, fast_cfg, monkeypatch):
        calls = {"cod": 0, "omega": 0}
        cod = optimality._constrained_coderivative
        nom = optimality.normal_cone_at_infinity_total

        def counted_cod(*args, **kwargs):
            calls["cod"] += 1
            return cod(*args, **kwargs)

        def counted_nom(*args, **kwargs):
            calls["omega"] += 1
            return nom(*args, **kwargs)

        monkeypatch.setattr(optimality, "_constrained_coderivative",
                            counted_cod)
        monkeypatch.setattr(optimality, "normal_cone_at_infinity_total",
                            counted_nom)
        F = make_map("v2 == exp(-v1^2)", name="FlatTail")
        out = fermat_certificate(F, full_space(1), pos1, [0.0], fast_cfg)
        assert out.ok
        assert calls == {"cod": 1, "omega": 1}
        cq = out.diagnostics["preconditions"]["cq_infinity"]
        assert cq.diagnostics["omega_cone"] is out.diagnostics["omega_cone"]

    def test_cq_trivial_constraint(self, fast_cfg):
        F = make_map("v2 == exp(-v1^2)", name="FlatTail")
        v = check_cq_infinity(F, full_space(1), [0.0], fast_cfg)
        assert v.ok

    def test_cq_inconclusive_off_asymptotic_value(self, fast_cfg):
        # ybar = 0 is not an asymptotic value of the identity, so the
        # value-window cone is empty and the check declines to answer
        F = make_map("v2 == v1", name="Id")
        v = check_cq_infinity(F, full_space(1), [0.0], fast_cfg)
        assert v.status == "Inconclusive"
        assert "empty" in v.reason
