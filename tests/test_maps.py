"""Set-valued mappings: coderivatives, distances, subdifferentials."""

import json

import numpy as np
import pytest
import scipy.optimize

from infcone.cones import (INF, RayCone, Status, contains_direction,
                           slice_hmap)
from infcone.dsl import parse_problem
from infcone.maps import (MultiMap, _pinned_min, check_prop314,
                          coderivative_cone_at, dist_to_preimage,
                          distance_to_image, distances_to_image,
                          dists_to_preimage, function_value, jelonek_set,
                          point_subdifferential)
from infcone.sets import ClosedSet, SetError, Shell, row_norms
from infcone.suite import fixture_function, fixture_map, load_problem


def make_map(graph, n=1, m=1, name="F"):
    doc = json.dumps({"mappings": {name: {"n": n, "m": m, "graph": graph}}})
    return MultiMap.from_mapdef(parse_problem(doc).mappings[name])


def make_func(spec, name="f"):
    doc = json.dumps({"functions": {name: spec}})
    return parse_problem(doc).functions[name]


ABS = {"n": 1, "pieces": [{"where": "v1 >= 0", "value": "v1"},
                          {"where": "v1 <= 0", "value": "-v1"}]}


class TestMultiMap:
    def test_dimensions(self):
        F = make_map("v2 == 2*v1")
        assert (F.n, F.m) == (1, 1)
        assert F.graph.split == (1, 1)

    def test_values_near(self, fast_cfg):
        F = make_map("v2 == v1^2")
        Y = F.values_near(np.array([3.0]), np.array([9.0]), 1.0, 10,
                          fast_cfg)
        assert len(Y) > 0
        assert np.allclose(Y, 9.0, atol=1e-6)

    def test_explicit_pieces(self):
        F = make_map("v2 == 2*v1")
        pieces = F.explicit_pieces()
        assert pieces is not None and len(pieces) == 1
        G = make_map("v2^2 == v1")
        assert G.explicit_pieces() is None


class TestCoderivative:
    def test_linear_map_adjoint(self, fast_cfg):
        # y = 2x: D*F(x,y)(v) = {2v}
        F = make_map("v2 == 2*v1")
        N = coderivative_cone_at(F, 1.0, 2.0, fast_cfg)
        sl = slice_hmap(N, np.array([1.0]), fast_cfg.ang_tol, 1)
        # cone rays are grid-snapped, so slice points carry O(step) error
        assert any(abs(p[0] - 2.0) <= 0.02 for p in sl.points)
        sl_neg = slice_hmap(N, np.array([-1.0]), fast_cfg.ang_tol, 1)
        assert any(abs(p[0] + 2.0) <= 0.02 for p in sl_neg.points)

    def test_interior_graph_point_rejected(self, fast_cfg):
        F = make_map("v2 == 2*v1")
        with pytest.raises(SetError):
            coderivative_cone_at(F, 1.0, 5.0, fast_cfg)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of SLSQP solves and fiber start searches made by a test."""
    calls = {"minimize": 0, "sample_fiber": 0}
    minimize, sample_fiber = scipy.optimize.minimize, ClosedSet.sample_fiber

    def counted_minimize(*args, **kwargs):
        calls["minimize"] += 1
        return minimize(*args, **kwargs)

    def counted_sample_fiber(self, *args, **kwargs):
        calls["sample_fiber"] += 1
        return sample_fiber(self, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counted_minimize)
    monkeypatch.setattr(ClosedSet, "sample_fiber", counted_sample_fiber)
    return calls


class TestDistances:
    def test_distance_to_image(self, fast_cfg, solver_calls):
        # v2 == v1^2 is a box once v1 is pinned: no solver runs
        F = make_map("v2 == v1^2")
        assert distance_to_image(F, 2.0, 1.0, fast_cfg) == \
            pytest.approx(3.0, abs=1e-6)
        assert distance_to_image(F, 2.0, 4.0, fast_cfg) == \
            pytest.approx(0.0, abs=1e-6)
        assert solver_calls == {"minimize": 0, "sample_fiber": 0}

    def test_empty_image(self, fast_cfg):
        # graph restricted to v1 >= 1: F(x) empty for x < 1
        F = make_map("v2 == v1 && v1 >= 1")
        assert distance_to_image(F, 0.0, 0.0, fast_cfg) == INF

    def test_dist_to_preimage(self, fast_cfg, solver_calls):
        # with v2 pinned, v1 is free inside v1^2: not a box, but a
        # polynomial in one free coordinate, so its roots answer
        F = make_map("v2 == v1^2")
        assert dist_to_preimage(F, 4.0, 0.0, fast_cfg) == \
            pytest.approx(2.0, abs=1e-6)
        assert dist_to_preimage(F, -1.0, 0.0, fast_cfg) == INF
        assert solver_calls == {"minimize": 0, "sample_fiber": 0}
        # exp(v1) is not a polynomial, so SLSQP runs
        F = make_map("v2 == exp(v1)")
        assert dist_to_preimage(F, 1.0, 2.0, fast_cfg) == \
            pytest.approx(2.0, abs=1e-6)
        assert dist_to_preimage(F, -1.0, 0.0, fast_cfg) == INF
        assert solver_calls["minimize"] > 0
        assert solver_calls["sample_fiber"] == 0

    def test_discrete_atoms(self, fast_cfg):
        doc = json.dumps({"mappings": {"A": {
            "n": 1, "m": 1,
            "discrete": {"atom": "v1^2", "domain": "naturals"}}}})
        F = MultiMap.from_mapdef(parse_problem(doc).mappings["A"])
        assert distance_to_image(F, 3.0, 10.0, fast_cfg) == \
            pytest.approx(1.0)
        assert distance_to_image(F, 2.5, 0.0, fast_cfg) == INF
        assert dist_to_preimage(F, 9.0, 0.0, fast_cfg) == pytest.approx(3.0)

    def test_discrete_preimage_windows_match_the_full_scan(self, fast_cfg,
                                                           monkeypatch):
        # HarmonicAtoms: g(k) = 1/(k + 1) on the naturals.  From x0 = 100,
        # atom 97 is a near hit, the atoms around 250,100 are far ones,
        # z = 2 is no value and z = 1 is atom 0
        F = fixture_map("HarmonicAtoms")
        G = F.graph
        Z = np.array([[1.0 / 98.0], [1.0 / 250101.0], [2.0], [1.0]])
        X0 = np.full((4, 1), 100.0)

        def full_scan(z, x0):
            ks = G._atom_range(x0 - 1e6, x0 + 1e6)
            vals = G._atom_values(ks)
            hit = np.abs(vals - z) <= 1e-9 * (1.0 + np.abs(vals))
            return np.min(np.abs(ks[hit] - x0)) if hit.any() else INF

        want = [full_scan(z, x0) for z, x0 in zip(Z[:, 0], X0[:, 0])]
        assert want[0] == 3.0 and 1e5 < want[1] < 1e6
        assert want[2:] == [INF, 100.0]
        assert dists_to_preimage(F, Z, X0, fast_cfg).tolist() == want

        evaluated = []
        atom_values = G._atom_values
        monkeypatch.setattr(G, "_atom_values",
                            lambda k: evaluated.append(len(k))
                            or atom_values(k))
        assert dist_to_preimage(F, Z[0, 0], 100.0, fast_cfg) == 3.0
        assert sum(evaluated) <= 9        # the window [96, 104]
        evaluated.clear()
        # a miss evaluates each atom of [0, 1e6 + 100] once, as the full
        # scan does
        assert dist_to_preimage(F, 2.0, 100.0, fast_cfg) == INF
        assert sum(evaluated) == 10 ** 6 + 101


class TestFiberBox:
    """Pieces whose fiber is a box are projected by a clip."""

    def test_zero_union_ray_preimage(self, fast_cfg, solver_calls):
        # SLSQP from x0, x0 +- 1 misses the ray v2 >= v1 at this x0
        x0 = 4228.38105354
        F = fixture_map("ZeroUnionRay")
        assert dist_to_preimage(F, 0.2, x0, fast_cfg) == \
            pytest.approx(x0 - 0.2, rel=1e-12)
        assert solver_calls == {"minimize": 0, "sample_fiber": 0}

    def test_half_line_parabola_preimage(self, fast_cfg):
        # the v1 <= 0 && v2 <= 0 piece is a box; v2 == v1^2 is not
        x0 = 1134.236591674426
        F = fixture_map("HalfLineParabola")
        assert dist_to_preimage(F, -0.05, x0, fast_cfg) == \
            pytest.approx(x0, rel=1e-12)

    def test_structure_cached_per_split(self, fast_cfg):
        # one piece, both splits: x pinned is a box, y pinned is not
        F = make_map("v2 == v1^2")
        for _ in range(2):
            assert distance_to_image(F, 2.0, 1.0, fast_cfg) == \
                pytest.approx(3.0, abs=1e-6)
        assert dist_to_preimage(F, 4.0, 0.0, fast_cfg) == \
            pytest.approx(2.0, abs=1e-6)
        assert len(F.graph.pieces[0].fiber_cache) == 2

    def test_empty_box(self, fast_cfg, solver_calls):
        F = make_map("v2 >= v1 && v2 <= 0")
        assert distance_to_image(F, 1.0, 0.0, fast_cfg) == INF
        assert distance_to_image(F, -1.0, 0.5, fast_cfg) == \
            pytest.approx(0.5, abs=1e-12)
        assert solver_calls == {"minimize": 0, "sample_fiber": 0}


class TestSettleRule:
    """SLSQP solves stop once an accepted iterate has settled."""

    def test_parabola_shift_preimage(self, fast_cfg, slsqp_statuses):
        # the nearest point (z + t^2, t) solves 2t^3 + (2(z - a) + 1)t = b;
        # under the absolute ftol alone all three solves run to maxiter
        z, (a, b) = 0.01, (2304.4104798986477, -2874.1208773919684)
        roots = np.roots([2.0, 0.0, 2.0 * (z - a) + 1.0, -b])
        ref = min(np.hypot(z + t * t - a, t - b)
                  for t in roots[np.abs(roots.imag) <= 1e-9].real)
        got = dist_to_preimage(fixture_map("ParabolaShift"), z,
                               np.array([a, b]), fast_cfg)
        assert got == pytest.approx(ref, rel=1e-13)
        assert slsqp_statuses and 9 not in slsqp_statuses


class TestLineFiber:
    """A fiber along one free coordinate, cut out by polynomials, is
    searched through the roots of its comparisons, not by SLSQP."""

    @pytest.mark.parametrize("z, x0", [
        (0.05, 1134.236591674426),
        # SLSQP from x0, x0 +- 1 stalled at the infeasible root -sqrt z
        (0.2, -483.4888086864186), (0.01, -8958.81253413347)])
    def test_half_line_parabola_preimage(self, fast_cfg, slsqp_statuses,
                                         z, x0):
        # F^-1(z) = {sqrt z} for z > 0
        got = dist_to_preimage(fixture_map("HalfLineParabola"), z, x0,
                               fast_cfg)
        assert got == pytest.approx(abs(x0 - np.sqrt(z)), rel=1e-13)
        assert slsqp_statuses == []

    def test_empty_fiber(self, fast_cfg, slsqp_statuses):
        # v2 == v1^2 has no point at v2 = -0.2; the other piece is a box
        x0 = 1259.8718510349286
        got = dist_to_preimage(fixture_map("HalfLineParabola"), -0.2, x0,
                               fast_cfg)
        assert got == x0
        assert slsqp_statuses == []

    def test_non_polynomial_piece(self, fast_cfg, slsqp_statuses):
        # ExpTail's v2 >= exp(v1) piece still goes to SLSQP; its
        # v2 == v1^2 piece holds the nearest point sqrt z
        got = dist_to_preimage(fixture_map("ExpTail"), 0.5, 3.0, fast_cfg)
        assert got == pytest.approx(3.0 - np.sqrt(0.5), rel=1e-13)
        assert slsqp_statuses


def _one_row_loops(F, X, Y, cfg):
    """(batched, one-row) results of both distances over the row pairs."""
    return ([distances_to_image(F, X, Y, cfg).tolist(),
             dists_to_preimage(F, Y, X, cfg).tolist()],
            [[distance_to_image(F, x, y, cfg) for x, y in zip(X, Y)],
             [dist_to_preimage(F, y, x, cfg) for x, y in zip(X, Y)]])


class TestBatchedDistances:
    """The row-batched distances equal a loop of one-row calls bit for
    bit (==, not a tolerance)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_row_norms_match_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        R = rng.standard_normal((5000, d)) * rng.lognormal(0.0, 4.0, (5000, 1))
        assert row_norms(R).tolist() == [np.linalg.norm(r) for r in R]

    @pytest.mark.parametrize("name", sorted(load_problem("maps.json")
                                            .mappings))
    def test_fixture_maps(self, fast_cfg, name):
        F = fixture_map(name)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, F.n)) * 10.0 ** rng.uniform(-1, 3, (8, 1))
        Y = rng.standard_normal((8, F.m)) * [[0.01], [1.0], [30.0], [0.0],
                                             [0.01], [1.0], [30.0], [0.0]]
        if F.graph.discrete is not None:
            X[::2] = np.round(X[::2])  # atoms, and points between them
        batched, loops = _one_row_loops(F, X, Y, fast_cfg)
        assert batched == loops

    def test_mixed_batch(self, fast_cfg, slsqp_statuses):
        # x <= 0 rows clip into the box piece; exp(v1) is no polynomial,
        # so its rows go to SLSQP, and at x = 800 its bound overflows;
        # z in (0, 1] and x = 800 have empty fibers
        F = make_map("(v1 <= 0 && v2 <= 0) || (v1 > 0 && v2 == exp(v1))")
        X = np.array([[5.0], [-3.0], [1.0], [-1.0], [800.0], [0.5]])
        Y = np.array([[-0.5], [0.5], [3.0], [2.0], [0.0], [1.0]])
        batched, loops = _one_row_loops(F, X, Y, fast_cfg)
        assert batched == loops
        assert slsqp_statuses
        img, pre = batched
        assert img[3] == 2.0 and img[4] == INF
        assert pre[0] == 5.0 and pre[1] == INF
        assert pre[2] == pytest.approx(np.log(3.0) - 1.0, rel=1e-6)
        assert isinstance(distance_to_image(F, X[0], Y[0], fast_cfg), float)
        assert isinstance(dist_to_preimage(F, Y[0], X[0], fast_cfg), float)

    def test_starts_once_per_row(self):
        # both pieces send every row to SLSQP; each row's starts are made
        # once, when its first piece needs them
        F = make_map("v2 == exp(v1) || v2 == -exp(v1)")
        made = []

        def starts(i):
            made.append(i)
            return [X0[i]]

        Z = np.array([[2.0], [-3.0], [0.5]])
        X0 = np.array([[0.0], [1.0], [4.0]])
        got = _pinned_min(F.graph, [1], Z, [0], X0, starts)
        assert made == [0, 1, 2]
        assert got == pytest.approx([abs(np.log(2.0)), abs(1.0 - np.log(3.0)),
                                     abs(4.0 - np.log(0.5))], rel=1e-6)


class TestJelonek:
    def test_hyperbola_asymptotic_value(self, fast_cfg):
        # F(x) = 1/x: the only asymptotic value in the window is 0
        F = make_map("v1 * v2 == 1")
        window = np.array([[-2.0, 2.0]])
        js = jelonek_set(F, window, fast_cfg, mesh=0.1)
        assert len(js.values) >= 1
        assert min(abs(v[0]) for v in js.values) <= 0.15
        assert all(abs(v[0]) <= 0.3 for v in js.values)

    def test_samples_only_the_window(self, fast_cfg, monkeypatch):
        F = make_map("v1 * v2 == 1")
        labels = []
        sample_shell = ClosedSet.sample_shell

        def recorded(self, shell, count, cfg, label=""):
            labels.append(label)
            return sample_shell(self, shell, count, cfg, label=label)

        monkeypatch.setattr(ClosedSet, "sample_shell", recorded)
        cfg = fast_cfg.replace(shells=10)
        assert cfg.persistence_window == 3
        jelonek_set(F, np.array([[-2.0, 2.0]]), cfg, mesh=0.1)
        assert labels == ["jel|F|7", "jel|F|8", "jel|F|9"]

    def test_cells_match_all_shell_rule(self, fast_cfg):
        # the rule before sampling only the window: every shell sampled,
        # cells kept when the last persistence_window shells all hit them
        F = make_map("v1 * v2 == 1")
        lo, hi, mesh = -2.0, 2.0, 0.1
        hit = []
        for j in range(fast_cfg.shells):
            sh = Shell(range(1), fast_cfg.radius(j), fast_cfg.radius(j + 1),
                       center=np.zeros(1), rho=(hi - lo) / 2.0 + mesh)
            Y = F.graph.sample_shell(sh, fast_cfg.samples_per_shell,
                                     fast_cfg, label="jel|F|%d" % j)[:, 1:]
            Y = Y[np.all((Y >= lo - 1e-12) & (Y <= hi + 1e-12), axis=1)]
            hit.append(set(map(tuple, np.floor((Y - lo) / mesh)
                               .astype(int).tolist())))
        want = set.intersection(*hit[-fast_cfg.persistence_window:])
        js = jelonek_set(F, np.array([[lo, hi]]), fast_cfg, mesh=mesh)
        got = [tuple(np.floor((v - lo) / mesh).astype(int).tolist())
               for v in js.values]
        assert want and got == sorted(want)
        assert js.radii == [fast_cfg.radius(fast_cfg.shells - 1)] * len(got)

    @pytest.mark.parametrize("lo", [-np.inf, np.nan])
    def test_non_finite_window_raises(self, fast_cfg, lo):
        # the CLI stops these at --window; a library caller gets here
        with pytest.raises(SetError, match="^window rows must be finite"):
            jelonek_set(make_map("v1 * v2 == 1"), np.array([[lo, 2.0]]),
                        fast_cfg)


class TestSubdifferential:
    def test_smooth_point(self, fast_cfg):
        f = make_func({"n": 1, "value": "v1^2"})
        basic, singular = point_subdifferential(f, 1.0, fast_cfg)
        assert any(abs(p[0] - 2.0) <= 0.05 for p in basic.points)
        assert singular.is_zero

    def test_abs_at_kink(self, fast_cfg):
        f = make_func(ABS)
        basic, singular = point_subdifferential(f, 0.0, fast_cfg)
        got = sorted(p[0] for p in basic.points)
        assert got[0] == pytest.approx(-1.0, abs=0.05)
        assert got[-1] == pytest.approx(1.0, abs=0.05)
        assert singular.is_zero

    def test_prop314_exp_singular_in_total_slice(self, cfg):
        # the singular ray [1] comes from x -> +inf, off the level set
        # f = 0; part (ii) must slice the window-free graph cone to see it
        v = check_prop314(fixture_function("ExpFn"), 0.0, cfg)
        assert v.status == "Pass", v.witness
        d0 = RayCone.from_json(v.diagnostics["d_star_0"])
        for r in ([1.0], [-1.0]):
            assert contains_direction(d0, np.array(r), cfg.ang_tol)
        assert v.diagnostics["strict"] is True

    def test_prop314_sin_not_strict(self, cfg):
        v = check_prop314(fixture_function("SinFn"), 0.0, cfg)
        assert v.status == "Pass", v.witness
        assert v.diagnostics["strict"] is False

    def test_function_value_piecewise(self):
        f = make_func(ABS)
        assert function_value(f, -3.0) == 3.0
        g = make_func({"n": 1,
                       "pieces": [{"where": "v1 >= 1", "value": "v1"}]})
        with pytest.raises(SetError):
            function_value(g, 0.0)
