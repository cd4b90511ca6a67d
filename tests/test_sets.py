"""Closed sets: membership, sampling shells, projections, constructors."""

import numpy as np
import pytest

from infcone import dsl
from infcone.config import RunConfig
from infcone.cones import in_convex_cone
from infcone.sets import (_ACT_TOL, _NEWTON_ACCEPT, _NEWTON_ITERS,
                          ClosedSet, Piece, SetError, Shell, epigraph_set,
                          full_space, graph_of_function, indicator_graph,
                          intersection_set, points_to_csv, product_set)
from infcone.suite import fixture_function, fixture_map, fixture_set


def make_set(text, dim, name="S"):
    return ClosedSet(dim, pred=dsl.parse_predicate(text, dim), name=name)


@pytest.fixture(scope="module")
def halfplane():
    return make_set("v1 >= v2", 2, "Half")


@pytest.fixture(scope="module")
def disk():
    return make_set("v1^2 + v2^2 <= 1", 2, "Disk")


class TestMembership:
    def test_status_values(self, halfplane):
        P = np.array([[2.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        assert list(halfplane.status(P)) == [dsl.INSIDE, dsl.BOUNDARY,
                                             dsl.OUTSIDE]

    def test_contains(self, disk):
        assert disk.contains(np.array([0.5, 0.5]))
        assert not disk.contains(np.array([1.0, 1.0]))

    def test_full_space(self):
        R2 = full_space(2)
        assert R2.contains(np.array([1e6, -1e6]))


class TestSampling:
    def test_members_in_shell(self, halfplane, fast_cfg):
        sh = Shell((0, 1), 10.0, 20.0)
        P = halfplane.sample_shell(sh, 300, fast_cfg)
        assert len(P) > 100
        assert (halfplane.status(P) >= dsl.BOUNDARY).all()
        r = np.linalg.norm(P, axis=1)
        assert (r >= 10.0 - 1e-6).all() and (r <= 20.0 + 1e-6).all()

    def test_boundary_bias(self, halfplane, fast_cfg):
        # roughly half the draws get pushed onto active boundaries
        sh = Shell((0, 1), 10.0, 20.0)
        P = halfplane.sample_shell(sh, 400, fast_cfg)
        frac = np.mean(halfplane.status(P) == dsl.BOUNDARY)
        assert frac > 0.2

    def test_fiber_center(self, fast_cfg):
        g = make_set("v2 == v1^2", 2, "Par")
        sh = Shell((0,), 5.0, 8.0, center=np.array([30.0]), rho=40.0)
        P = g.sample_shell(sh, 200, fast_cfg)
        assert len(P) > 0
        assert np.allclose(P[:, 1], P[:, 0] ** 2, atol=1e-6)

    def test_deterministic(self, halfplane, fast_cfg):
        sh = Shell((0, 1), 10.0, 20.0)
        a = halfplane.sample_shell(sh, 100, fast_cfg, label="t")
        b = halfplane.sample_shell(sh, 100, fast_cfg, label="t")
        assert np.array_equal(a, b)

    def test_fiber_stream_keyed_on_the_point(self, fast_cfg):
        # the fibres at x = (1, 2) and x = (2, 1) are the same set y <= 3,
        # but the two points must not draw the same random stream
        g = ClosedSet(3, pred=dsl.parse_predicate("v3 <= v1 + v2", 3),
                      split=(2, 1), name="Sum")
        a = g.sample_fiber([1.0, 2.0], [0.0], 5.0, 50, fast_cfg)
        b = g.sample_fiber([2.0, 1.0], [0.0], 5.0, 50, fast_cfg)
        assert len(a) == len(b) == 50
        assert np.all(a <= 3.0 + 1e-9) and np.all(b <= 3.0 + 1e-9)
        assert not np.array_equal(a, b)
        again = g.sample_fiber([1.0, 2.0], [0.0], 5.0, 50, fast_cfg)
        assert np.array_equal(a, again)

    def test_bad_shell(self):
        with pytest.raises(SetError):
            Shell((0,), 5.0, 2.0)
        with pytest.raises(SetError):
            Shell((), 1.0, 2.0)
        for r_lo, r_hi in ((1.0, np.inf), (np.nan, 2.0)):
            with pytest.raises(SetError):
                Shell((0,), r_lo, r_hi)
        for center, rho in (([0.0], -1.0), ([0.0], np.inf), ([0.0], np.nan),
                            ([np.inf], 1.0), ([np.nan], 1.0)):
            with pytest.raises(SetError):
                Shell((0,), 1.0, 2.0, center=center, rho=rho)

    def test_empty_shell_stops_after_dry_rounds(self, monkeypatch):
        # ex-expepi.ym1: v2 >= exp(v1) > 0 never meets the y-ball at -1
        S = ClosedSet(2, pred=dsl.parse_predicate("v2 >= exp(v1)", 2),
                      split=(1, 1), name="ExpEpigraph")
        calls = []
        repair = ClosedSet._repair_and_bias

        def counted(self, *args):
            calls.append(1)
            return repair(self, *args)

        monkeypatch.setattr(ClosedSet, "_repair_and_bias", counted)
        cfg = RunConfig()
        empty = Shell((0,), 10.0, 20.0, center=np.array([-1.0]), rho=0.5)
        assert len(S.sample_shell(empty, 2000, cfg)) == 0
        assert len(calls) == 4 * len(S.pieces)  # 4 dry rounds, of 40
        full = Shell((0,), 10.0, 20.0, center=np.array([1.0]), rho=0.5)
        P = S.sample_shell(full, 2000, cfg)
        assert len(P) == 2000
        assert (S.status(P) >= dsl.BOUNDARY).all()

    def test_newton_stops_rows_that_leave_the_shell(self, monkeypatch):
        # the last graph shell of criterion-halflineparabola: on v2 == v1^2
        # with v2 near 0, Newton in v1 heads for |v1| = sqrt(v2), out of
        # the shell, and Newton in v2 for v1^2, out of the value ball
        S = fixture_map("HalfLineParabola").graph
        cfg = RunConfig(seed=0)
        calls, per_newton = [0], []
        gval, newton = Piece.gval, ClosedSet._newton_to

        def counted_gval(self, *args):
            calls[0] += 1
            return gval(self, *args)

        def counted_newton(self, *args):
            before = calls[0]
            out = newton(self, *args)
            per_newton.append(calls[0] - before)
            return out

        monkeypatch.setattr(Piece, "gval", counted_gval)
        monkeypatch.setattr(ClosedSet, "_newton_to", counted_newton)
        j = cfg.shells - 1
        sh = Shell((0,), cfg.radius(j), cfg.radius(j + 1),
                   center=np.array([0.0]), rho=cfg.rho(j))
        P = S.sample_shell(sh, cfg.samples_per_shell, cfg,
                           label="HalfLineParabola|%d" % j)
        assert per_newton and max(per_newton) < _NEWTON_ITERS
        assert len(P) == cfg.samples_per_shell
        assert (S.status(P, cfg.eq_tol) >= dsl.BOUNDARY).all()
        # the sampler's filter, with its 1e-9 slack
        r = np.abs(P[:, 0])
        assert (r >= sh.r_lo * (1 - 1e-9)).all()
        assert (r <= sh.r_hi * (1 + 1e-9)).all()
        assert (np.abs(P[:, 1]) <= sh.rho * (1 + 1e-9)).all()


def _newton_reference(piece, ci, P, rows, locked, rng, target, box):
    """Newton repair evaluating every row of P on every iteration; a row
    whose moved coordinate leaves the box stops, as failed."""
    mid, lo, hi = box
    B = P.shape[0]
    succ = np.zeros(B, dtype=bool)
    if not rows.any():
        return succ
    target = np.broadcast_to(np.asarray(target, dtype=float), (B,))
    scale = piece.rhs_scale(ci, P)
    resid = piece.gval(ci, P) - target
    done = rows & (np.abs(resid) <= _NEWTON_ACCEPT * scale)
    succ |= done
    active = rows & ~done
    if not active.any():
        return succ
    G = piece.grad(ci, P)
    allowed = np.isfinite(G) & (np.abs(G) > 1e-9) & ~locked
    counts = allowed.sum(axis=1)
    pick = np.floor(rng.random(B) * np.maximum(counts, 1))
    col = np.argmax(np.cumsum(allowed, axis=1) > pick[:, None], axis=1)
    col = np.where(counts > 0, col, -1)
    active &= col >= 0
    colc = np.maximum(col, 0)
    ar = np.arange(B)
    for _ in range(_NEWTON_ITERS):
        if not active.any():
            break
        resid = piece.gval(ci, P) - target
        scale = piece.rhs_scale(ci, P)
        conv = np.abs(resid) <= _NEWTON_ACCEPT * scale
        succ |= active & conv
        active &= ~conv
        if not active.any():
            break
        gc = piece.grad(ci, P)[ar, colc]
        with np.errstate(all="ignore"):
            step = resid / np.where(np.abs(gc) > 1e-14, gc, np.nan)
        cap = 4.0 * (np.abs(P[ar, colc]) + np.abs(target) + 10.0)
        active &= np.isfinite(step)
        step = np.clip(step, -cap, cap)
        upd = np.flatnonzero(active)
        P[upd, colc[upd]] -= step[upd]
        c = colc[upd]
        off = np.abs(P[upd, c] - mid[c])
        active[upd[~((off >= lo[c]) & (off <= hi[c]))]] = False
    if succ.any():
        good = np.flatnonzero(succ & (col >= 0))
        locked[good, colc[good]] = True
    return succ


def _on_target_parabola(P):
    P[:, 1] = P[:, 0] ** 2


def _on_target_exp(P):
    P[:, 1] = np.exp(P[:, 0])


def _on_target_3d(P):
    P[:, 2] = (2.0 - np.sin(P[:, 1])) / P[:, 0]


def _on_target_cubic(P):
    P[:, 1] = -P[:, 0] ** 3 - P[:, 0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("text,dim,on_target", [
    ("v2 == v1^2", 2, _on_target_parabola),
    ("exp(v1) <= v2", 2, _on_target_exp),
    ("v1 * v3 + sin(v2) == 2", 3, _on_target_3d),
    # every row converges, at different iterations
    ("v1^3 + v1 + v2 == 0", 2, _on_target_cubic),
])
def test_newton_matches_full_row_reference(text, dim, on_target, seed):
    S = make_set(text, dim)
    gen = np.random.default_rng(seed)
    B = 300
    P0 = gen.standard_normal((B, dim)) * gen.choice([1.0, 30.0, 800.0],
                                                   (B, dim))
    start = gen.random(B) < 0.2
    with np.errstate(all="ignore"):
        on = P0.copy()
        on_target(on)
    P0[start] = on[start]
    rows = gen.random(B) < 0.7
    locked0 = gen.random((B, dim)) < 0.3
    locked0[gen.random(B) < 0.05] = True  # rows with no free column
    target = 0.0 if seed % 2 else \
        np.where(start, 0.0, -gen.choice([0.0, 1e-3, 1e-8], B))
    # the open box stops no row; the tight one, |v_c - mid_c| in
    # [0.05, 40], stops some rows that converge in the open one
    open_box = (np.zeros(dim), np.zeros(dim), np.full(dim, np.inf))
    tight_box = (gen.standard_normal(dim), np.full(dim, 0.05),
                 np.full(dim, 40.0))
    succ = {}
    for name, box in (("open", open_box), ("tight", tight_box)):
        out = []
        for newton in (S._newton_to, _newton_reference):
            P, locked = P0.copy(), locked0.copy()
            rng = np.random.default_rng([seed, 7])
            s = newton(S.pieces[0], 0, P, rows.copy(), locked, rng, target,
                       box)
            out.append((s, P, locked, rng.bit_generator.state))
        (s1, P1, l1, r1), (s2, P2, l2, r2) = out
        assert (s1 & start).any() and (s1 & ~start).any() and not s1.all()
        assert np.array_equal(s1, s2)
        assert P1.tobytes() == P2.tobytes()
        assert np.array_equal(l1, l2)
        assert r1 == r2
        succ[name] = s1
    # the box stops some rows that converge without it, and lets no row
    # converge that fails without it
    assert (succ["open"] & ~succ["tight"]).any()
    assert not (succ["tight"] & ~succ["open"]).any()


def _generators_reference(piece, p):
    """One row's active generators, a comparison at a time: the unit
    gradients of the active comparisons, u and -u for an equality; None
    for a nonsmooth comparison or a blown-up active gradient."""
    gens = []
    row = p[None, :]
    for ci, c in enumerate(piece.comparisons):
        if not c.smooth:
            return None
        g = float(piece.gval(ci, row)[0])
        rs = float(piece.rhs_scale(ci, row)[0])
        if c.is_eq or abs(g) <= _ACT_TOL * rs:
            try:
                G = piece.grad(ci, row)[0]
            except dsl.NonSmooth:
                return None
            with np.errstate(over="ignore"):
                nrm = float(np.linalg.norm(G))
            if not (np.isfinite(nrm) and np.isfinite(G).all()):
                return None
            if nrm > 1e-9:
                u = G / nrm
                gens.append(u)
                if c.is_eq:
                    gens.append(-u)
    return gens


def _flatcbrt_rows():
    # around v1 = 0, where the gradient of cbrt(v1) blows up
    gen = np.random.default_rng(3)
    v1 = np.array([0.0, 1e-300, 1e-30, 1e-12, 1e-9, 1e-7, 1e-6, 2e-6,
                   1e-3, 1.0])
    v1 = np.concatenate([v1, -v1])
    Q = np.column_stack([v1, gen.standard_normal(len(v1)),
                         np.zeros(len(v1))])
    on_cbrt = Q.copy()
    on_cbrt[:, 2] = -np.cbrt(np.maximum(v1, 0.0))
    return np.vstack([Q, on_cbrt])


def _exp_rows():
    gen = np.random.default_rng(4)
    v1 = np.concatenate([np.linspace(-30.0, 30.0, 41),
                         gen.uniform(-5.0, 5.0, 20)])
    with np.errstate(over="ignore"):
        v2 = np.exp(v1)
    off = np.array([0.0, 1e-12, 1e-7, 1e-3, 1.0])[np.arange(len(v1)) % 5]
    return np.column_stack([v1, v2 * (1.0 + off) + off])


@pytest.mark.parametrize("S, Q, outcomes", [
    (graph_of_function(fixture_function("FlatCbrt")), _flatcbrt_rows(),
     {None, 2, 3}),
    (make_set("v2 >= exp(v1) || v2 >= exp(v1)", 2), _exp_rows(), {0, 1}),
    (make_set("v1^2 + v2^2 == 1 && v3 <= v1", 3),
     np.array([[0.6, 0.8, 0.6], [0.6, 0.8, 0.0], [1.0, 0.0, 1.0 - 1e-9],
               [0.0, 1.0, -5.0], [0.0, 0.0, 0.0], [0.0, 0.0, -5.0],
               [3.0, 4.0, 3.0]]),
     {0, 1, 2, 3}),
    (make_set("abs(v1) <= v2 && v2 <= 3", 2),
     np.array([[1.0, 1.0], [0.0, 3.0], [-2.0, 3.0], [0.5, 1.0]]), {None}),
], ids=["flatcbrt", "duplicated-exp", "equality", "abs"])
def test_active_generators_match_the_one_row_loop(S, Q, outcomes):
    seen = set()
    for piece in S.pieces:
        A, have, ok = piece.active_generators(Q)
        for r, p in enumerate(Q):
            want = _generators_reference(piece, p)
            seen.add(None if want is None else len(want))
            if want is None:
                assert not ok[r], (r, p)
                continue
            assert ok[r], (r, p)
            got = A[r, have[r]]
            assert got.shape == (len(want), S.dim)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
    # the rows reach the outcomes they were chosen for
    assert seen == outcomes


def test_union_meet_matches_the_row_loop(fast_cfg):
    # rows in two to four pieces of a union, where every member cone has
    # one generator (closed form) or some have two (NNLS), interleaved
    S = make_set("(v1 <= 0 && v2 <= 0) || (v1 >= 0 && v2 <= 0) "
                 "|| v2 <= v1^3 || v2 <= v1^3", 2)
    gen = np.random.default_rng(5)
    v1 = gen.choice([-1.0, -1e-9, 0.0, 1e-9, 0.5, 1.0, 2.0], 400)
    P = np.column_stack([v1, np.where(gen.random(400) < 0.5, v1 ** 3, 0.0)])
    member = S.piece_status(P, fast_cfg.eq_tol) >= dsl.BOUNDARY
    multi = member.sum(axis=0) >= 2
    want = []
    for p, m in zip(P[multi], member[:, multi].T):
        cones = [_generators_reference(S.pieces[pi], p)
                 for pi in np.flatnonzero(m)]
        if all(g is not None and len(g) > 0 for g in cones):
            cand = np.vstack(cones)
            want += [c for c in cand
                     if all(in_convex_cone(g, c, 1e-6) for g in cones)]
    got = S._meet_dirs(P[multi], member[:, multi])
    assert multi.sum() > 300 and len(want) > 800
    assert got.tobytes() == np.array(want).tobytes()


def test_union_field_reads_every_multi_piece_row(fast_cfg):
    # both pieces hold every row, so each row is a multi-piece row and
    # its meet is its one unit normal, once from each piece
    S = make_set("v2 >= exp(v1) || v2 >= exp(v1)", 2)
    v1 = np.linspace(-5.0, 3.0, 1200)
    P = np.column_stack([v1, np.exp(v1)])
    dirs = S.frechet_field(P, fast_cfg)["dirs"]
    u = np.column_stack([np.exp(v1), -np.ones_like(v1)])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    assert dirs.shape == (2 * len(P), 2)
    assert np.allclose(dirs, np.repeat(u, 2, axis=0), rtol=0.0, atol=1e-12)


class TestProjection:
    def test_halfplane_oracle(self, fast_cfg):
        s = make_set("v1 <= 0", 2)
        res = s.project(np.array([3.0, 1.0]), fast_cfg)
        assert res.dist == pytest.approx(3.0, abs=1e-6)
        assert np.allclose(res.minimizers[0], [0.0, 1.0], atol=1e-6)

    def test_disk_oracle(self, disk, fast_cfg):
        res = disk.project(np.array([2.0, 0.0]), fast_cfg)
        assert res.dist == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(res.minimizers[0], [1.0, 0.0], atol=1e-5)

    def test_member_projects_to_itself(self, disk, fast_cfg):
        q = np.array([0.1, -0.2])
        res = disk.project(q, fast_cfg)
        assert res.dist == 0.0
        assert np.array_equal(res.minimizers[0], q)

    def test_parabola_oracle(self, fast_cfg):
        # nearest point of v2 = v1^2 to (0, 2): v1 = sqrt(3/2)
        g = make_set("v2 == v1^2", 2)
        res = g.project(np.array([0.0, 2.0]), fast_cfg)
        x = np.sqrt(1.5)
        d = np.linalg.norm([x, x ** 2] - np.array([0.0, 2.0]))
        assert res.dist == pytest.approx(d, abs=1e-5)

    def test_line_roots(self, fast_cfg, slsqp_statuses):
        # a 1-D set cut out by polynomials projects through their roots:
        # both nearest points of v1^2 == 4 to 0, and a double root
        res = make_set("v1^2 == 4", 1).project(np.array([0.0]), fast_cfg)
        assert res.dist == 2.0
        assert sorted(m[0] for m in res.minimizers) == [-2.0, 2.0]
        res = make_set("(v1 - 1)^2 <= 0", 1).project(np.array([5.0]),
                                                      fast_cfg)
        assert res.dist == pytest.approx(4.0, rel=1e-12)
        assert slsqp_statuses == []


class TestSettleRule:
    """SLSQP stops once an accepted iterate has settled, and only then."""

    # nearest points of the cusp v1^2 v2 >= 1, from a 1-D root scan of
    # the boundary v2 = 1/v1^2 at 50 digits
    CUSP = [((5.853749207621858, -2.0650186525764305), 2.0940987824923996),
            ((-473.1792459755527, -1238.182721634686), 1238.1827261009933)]

    def test_settled_solves_reach_the_nearest_point(self, slsqp_statuses):
        # under the absolute ftol alone the solves wander in their last
        # digits until maxiter and the answer is 1.7e-8 off
        q, ref = self.CUSP[0]
        res = fixture_set("CuspRegion").project(q, RunConfig(seed=0))
        assert res.dist == pytest.approx(ref, rel=1e-11)
        assert 99 in slsqp_statuses

    def test_infeasible_stalls_are_not_stopped(self):
        # a rule that also stops stalled iterates failing acceptance finds
        # no projection here, or one of 4.1e6: the stalled infeasible
        # starts are the ones that escape later
        q, ref = self.CUSP[1]
        res = fixture_set("CuspRegion").project(q, RunConfig(seed=0))
        assert res.dist == pytest.approx(ref, rel=1e-10)


class TestConstructors:
    def test_product(self, halfplane, disk):
        p = product_set(halfplane, disk)
        assert p.dim == 4 and p.split == (2, 2)
        assert p.contains(np.array([2.0, 1.0, 0.0, 0.0]))
        assert not p.contains(np.array([2.0, 1.0, 2.0, 0.0]))

    def test_intersection(self, halfplane, disk):
        s = intersection_set(halfplane, disk)
        assert s.contains(np.array([0.5, 0.0]))
        assert not s.contains(np.array([0.0, 0.5]))
        assert not s.contains(np.array([5.0, 0.0]))

    def test_intersection_dim_mismatch(self, disk):
        with pytest.raises(SetError):
            intersection_set(disk, full_space(3))

    def test_indicator_graph(self, disk):
        g = indicator_graph(disk, 1)
        assert g.dim == 3 and g.split == (2, 1)
        assert g.contains(np.array([0.5, 0.0, 0.0]))
        assert not g.contains(np.array([0.5, 0.0, 0.1]))
        assert not g.contains(np.array([2.0, 0.0, 0.0]))

    def test_function_graph_and_epigraph(self):
        fd = dsl.parse_problem(
            '{"functions": {"f": {"n": 1, "value": "v1^2"}}}').functions["f"]
        g = graph_of_function(fd)
        e = epigraph_set(fd)
        assert g.contains(np.array([2.0, 4.0]))
        assert not g.contains(np.array([2.0, 5.0]))
        assert e.contains(np.array([2.0, 5.0]))
        assert not e.contains(np.array([2.0, 3.0]))


def test_points_to_csv():
    txt = points_to_csv(np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = txt.strip().splitlines()
    assert lines[0] == "idx,coord0,coord1"
    assert lines[1].startswith("0,1,")
