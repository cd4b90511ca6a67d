"""Well-posedness battery: kernel triviality, openness, Lipschitz estimates."""

import json

import numpy as np
import pytest

from infcone import wellposed
from infcone.cones import INF
from infcone.dsl import parse_problem
from infcone.limits import limit_points
from infcone.maps import MultiMap, _graph_samples, distances_to_image
from infcone.suite import fixture_map
from infcone.wellposed import (_subsample, check_nonsingularity,
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


def all_shell_values(F, ybar, cfg, pts_per_shell=10):
    """The bounded d_F gradients of every shell, drawn as the criterion drew
    them with one loop over all shells, before its field went through
    outer_limit."""
    dim = F.n + F.m
    values = []
    for j in range(cfg.shells):
        P = _subsample(_graph_samples(F, np.atleast_1d(ybar), cfg, j,
                                      cfg.samples_per_shell // 4, "fgrad"),
                       pts_per_shell)
        vals = []
        rng = cfg.rng("fgrad", F.name, j)
        W, H = [], []
        for row in P:
            for eta in (1e-3, 1e-5):
                u = rng.standard_normal(dim)
                u /= np.linalg.norm(u)
                W.append(row + eta * u)
                H.append(eta / 10.0)
        W, H = np.reshape(W, (-1, dim)), np.array(H)
        E = np.eye(dim) * H[:, None, None]
        Q = np.concatenate([W[:, None, :] + E, W[:, None, :] - E])
        D = distances_to_image(F, Q[..., :F.n], Q[..., F.n:], cfg)
        D = D.reshape(2, len(W), dim)
        with np.errstate(invalid="ignore"):
            G = (D[0] - D[1]) / (2.0 * H[:, None])
        for g in G:
            if np.isfinite(g).all() and float(np.linalg.norm(g)) <= 10.0:
                vals.append(g)
        values.append(vals)
    return values


class TestCriterionTail:
    """The criterion's d_F field is one outer_limit pass: it samples only
    the tail shells, and its bounded-gradient cluster is unchanged."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_samples_only_the_shells_read(self, identity, fast_cfg,
                                          monkeypatch, threads):
        cfg = fast_cfg.replace(shells=10, threads=threads)
        assert cfg.persistence_window == 3
        drawn = []

        def recorded(F, ybar, cfg, j, count, label):
            if label == "fgrad":
                drawn.append(j)
            return _graph_samples(F, ybar, cfg, j, count, label)

        monkeypatch.setattr(wellposed, "_graph_samples", recorded)
        verdict, report = mordukhovich_criterion(identity, 0.0, cfg)
        assert sorted(drawn) == [6, 7, 8, 9]
        assert verdict.ok and report["f_singular_trivial"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["HalfLineParabola", "ZeroUnionRay"])
    def test_f_set_matches_all_shell_loop(self, cfg, name, threads):
        F = fixture_map(name)
        _, report = mordukhovich_criterion(F, [0.0],
                                           cfg.replace(threads=threads))
        want = limit_points(all_shell_values(F, [0.0], cfg), 0.05,
                            cfg.persistence_window)
        assert want
        assert report["f_set"] == [p.tolist() for p in want]
        bound = report["f_bound"]["bound"]
        assert report["f_bound"]["violations"] == \
            [p.tolist() for p in want if np.linalg.norm(p) > bound]
