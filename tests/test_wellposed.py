"""Well-posedness battery: kernel triviality, openness, Lipschitz estimates."""

import json

import numpy as np
import pytest

from infcone.cones import INF
from infcone.dsl import parse_problem
from infcone.maps import MultiMap
from infcone.suite import fixture_map
from infcone.wellposed import (check_nonsingularity,
                               estimate_regularity_modulus,
                               mordukhovich_criterion, well_posed_report)
from infcone.wellposed import test_inverse_lipschitz as inverse_lip_check
from infcone.wellposed import test_linear_openness as openness_check
from infcone.wellposed import test_lipschitz_like as lipschitz_like_check


def make_map(graph, n=1, m=1, name="F"):
    doc = json.dumps({"mappings": {name: {"n": n, "m": m, "graph": graph}}})
    return MultiMap.from_mapdef(parse_problem(doc).mappings[name])


@pytest.fixture(scope="module")
def identity():
    return make_map("v2 == v1", name="Id")


@pytest.fixture(scope="module")
def constant():
    # F(x) = {0}: as badly posed at infinity as it gets
    return make_map("v2 == 0", name="Zero")


class TestNonsingularity:
    def test_identity_passes(self, identity, fast_cfg):
        verdict, est = check_nonsingularity(identity, 0.0, fast_cfg)
        assert verdict.ok
        assert est.value == pytest.approx(1.0, rel=0.05)

    def test_constant_fails(self, constant, fast_cfg):
        verdict, est = check_nonsingularity(constant, 0.0, fast_cfg)
        assert verdict.status == "Fail"
        assert est.value == 0.0
        assert verdict.witness is not None


class TestOpenness:
    def test_identity_open_at_rate_below_one(self, identity, fast_cfg):
        v = openness_check(identity, 0.0, 0.9, fast_cfg, pts_per_shell=4)
        assert v.ok

    def test_constant_not_open(self, constant, fast_cfg):
        v = openness_check(constant, 0.0, 0.5, fast_cfg, pts_per_shell=4)
        assert v.status == "Fail"
        assert v.witness["preimage_dist"] is None  # empty preimage

    def test_rate_must_be_positive(self, identity, fast_cfg):
        with pytest.raises(ValueError):
            openness_check(identity, 0.0, 0.0, fast_cfg)


class TestInverseLipschitz:
    def test_identity(self, identity, fast_cfg):
        v = inverse_lip_check(identity, 0.0, 1.1, fast_cfg, pts_per_shell=4)
        assert v.ok

    def test_constant(self, constant, fast_cfg):
        v = inverse_lip_check(constant, 0.0, 2.0, fast_cfg, pts_per_shell=4)
        assert v.status == "Fail"


class TestLipschitzLike:
    def test_identity(self, identity, fast_cfg):
        v = lipschitz_like_check(identity, 0.0, 1.1, fast_cfg,
                                 pts_per_shell=3)
        assert v.ok


class TestReplayOrder:
    """The falsifiers compute a shell's distances in one batch, then judge
    the probes in their serial order: the first failure is the witness.
    The frozen reports come from the one-query-at-a-time loops; neither
    failure is the first probe of its shell."""

    def test_lipschitz_like_first_failure(self, fast_cfg):
        # the 9th distance query of shell 0 fails
        v = lipschitz_like_check(fixture_map("RampOrBox"), [0.0, 0.0], 0.01,
                                 fast_cfg)
        assert v.to_json() == {
            "status": "Fail", "reason": None,
            "witness": {"x": [1.0000000000065512e-05, -15.163412244111951],
                        "x_prime": [0.006394304929315199,
                                    -15.163412244111951],
                        "y": [1.0000000000065512e-05, 0.0],
                        "dist": 0.006384304929315134,
                        "bound": 6.384304929315134e-05,
                        "d_f_gap": 0.006384304929315134},
            "diagnostics": {"ell": 0.01, "shell": 0}}

    @pytest.mark.parametrize("mu, r", [(5.0, 0.1), (50.0, 0.02)])
    def test_linear_openness_first_failure(self, fast_cfg, mu, r):
        # the 37th (mu = 5) and 9th (mu = 50) probes of shell 0 fail
        v = openness_check(fixture_map("ZeroUnionRay"), [0.0], mu, fast_cfg)
        assert v.to_json() == {
            "status": "Fail", "reason": None,
            "witness": {"x": [13.149501778876939], "r": r, "z": [0.5],
                        "preimage_dist": 12.649501778876939},
            "diagnostics": {"mu": mu, "shell": 0}}


class TestRegularity:
    def test_zerounionray_diverges_at_seed_1(self, cfg):
        # dist(x, F^-1(y)) / dist(y, F(x)) is about |x| / 0.01; at seed 1
        # the last suprema grow by only 1.53 from one shell to the next
        est = estimate_regularity_modulus(fixture_map("ZeroUnionRay"),
                                          [0.0], cfg.replace(seed=1))
        assert est.value == INF


class TestCriterionAndReport:
    def test_identity_criterion(self, identity, fast_cfg):
        verdict, report = mordukhovich_criterion(identity, 0.0, fast_cfg)
        assert verdict.ok
        assert report["ell_star"] == pytest.approx(1.0, rel=0.05)
        assert report["f_singular_trivial"]

    def test_report_shape(self, identity, fast_cfg):
        rep = well_posed_report(identity, 0.0, fast_cfg, mu=0.9, ell=1.1)
        for key in ("nonsingularity", "openness", "inverse_lipschitz",
                    "lipschitz_like", "regularity", "criterion", "moduli"):
            assert key in rep
        assert rep["moduli"]["mu_star"] == pytest.approx(1.0, rel=0.05)
