"""Expression / predicate DSL: parsing, evaluation, gradients, problems."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infcone import dsl
from infcone.dsl import (BOUNDARY, INSIDE, OUTSIDE, ParseError, eval_expr,
                         eval_predicate, gradient, parse_expr, parse_predicate,
                         parse_problem)


def _pred(text, dim=2):
    return parse_predicate(text, dim)


class TestExpressions:
    def test_arithmetic(self):
        e = parse_expr("2*v1 + v2^2 - 1", 2)
        assert eval_expr(e, np.array([3.0, 2.0])) == pytest.approx(9.0)

    def test_functions_and_pi(self):
        e = parse_expr("sin(pi/2) + cos(0) + sqrt(4) + cbrt(-8)", 1)
        assert eval_expr(e, np.array([0.0])) == pytest.approx(2.0)

    def test_vectorized(self):
        e = parse_expr("exp(v1)", 1)
        out = eval_expr(e, np.array([[0.0], [1.0]]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(np.e)

    def test_gradient_symbolic(self):
        g = gradient(parse_expr("v1^2 * v2", 2), 2)
        p = np.array([3.0, 5.0])
        assert eval_expr(g[0], p) == pytest.approx(30.0)
        assert eval_expr(g[1], p) == pytest.approx(9.0)

    def test_integer_power_only(self):
        with pytest.raises(ParseError):
            parse_expr("v1^0.5", 1)

    def test_unknown_function(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("tanh(v1)", 1)
        assert ei.value.diagnostics

    def test_out_of_range_variable(self):
        with pytest.raises(ParseError):
            parse_expr("v3", 2)


class TestPredicates:
    def test_membership_classification(self):
        pred = _pred("v1 >= v2")
        st = eval_predicate(pred, np.array([[2.0, 1.0], [1.0, 1.0],
                                            [0.0, 1.0]]), 1e-9)
        assert list(st) == [INSIDE, BOUNDARY, OUTSIDE]

    def test_disjunction(self):
        pred = _pred("v1 >= 1 || v1 <= -1")
        assert eval_predicate(pred, np.array([2.0, 0.0]), 1e-9) == INSIDE
        assert eval_predicate(pred, np.array([0.0, 0.0]), 1e-9) == OUTSIDE

    def test_comparison_orientation(self):
        # v2 >= exp(v1) stores g = exp(v1) - v2
        pred = _pred("v2 >= exp(v1)")
        cmp_ = pred.conjs[0].comparisons[0]
        g = eval_expr(cmp_.g, np.array([0.0, 2.0]))
        assert g == pytest.approx(-1.0)

    def test_overflowing_rhs_is_not_boundary(self):
        # regression: exp overflow used to make the tolerance infinite,
        # classifying far-outside points as boundary members
        pred = _pred("v2 >= exp(v1)")
        st = eval_predicate(pred, np.array([1000.0, -1.0]), 1e-9)
        assert st == OUTSIDE

    def test_strict_boundary_tolerance(self):
        pred = _pred("v1 < 0", dim=1)
        assert eval_predicate(pred, np.array([0.0]), 1e-9) == BOUNDARY
        assert eval_predicate(pred, np.array([1e-3]), 1e-9) == OUTSIDE


class TestProblems:
    DOC = json.dumps({
        "sets": {"Half": {"dim": 2, "where": "v1 >= v2", "unbounded": True}},
        "functions": {"Sine": {"n": 1, "value": "sin(v1)"}},
        "mappings": {"Sq": {"n": 1, "m": 1, "graph": "v2 == v1^2"}},
        "cones": {"Pos": {"generators": [[1.0]], "interior_point": [1.0]}},
        "config": {"shells": 7},
    })

    def test_roundtrip(self):
        prob = parse_problem(self.DOC)
        again = parse_problem(prob.pretty())
        assert prob == again

    def test_names(self):
        prob = parse_problem(self.DOC)
        assert set(prob.sets) == {"Half"}
        assert prob.mappings["Sq"].n == 1
        assert prob.config.get("shells") == 7

    def test_bad_expression_reports_location(self):
        doc = json.dumps({"sets": {"S": {"dim": 1, "where": "v1 >="}}})
        with pytest.raises(ParseError) as ei:
            parse_problem(doc)
        assert any("S" in str(d) or "where" in str(d)
                   for d in ei.value.diagnostics)

    def test_invalid_json_diagnostic(self):
        with pytest.raises(ParseError) as ei:
            parse_problem('{"sets": {')
        assert ei.value.diagnostics


# -- parse_problem is total ----------------------------------------------

# any JSON value, a few levels deep: what a wrong-typed field may hold
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_TEXTS = st.sampled_from(
    ["v1 >= 0", "v1^2 + v2 <= 1", "(v1 >= 0 || v2 >= 0) && v1 <= 2",
     "exp(v1) == v2", "v1 >=", "v9 >= 0", "", "min(v1, v2)", "v1 = 0"]) \
    | st.integers(0, 2500).map(
        lambda k: "(" * k + "v1" + ")" * k + " >= 0") \
    | st.integers(0, 2500).map(lambda k: "-" * k + "v1 >= 0") \
    | st.integers(1, 1500).map(lambda k: " && ".join(["v1 >= 0"] * k)) \
    | st.integers(1, 1500).map(lambda k: "+".join(["v1"] * k) + " >= 0")


def _or_wrong(valid):
    """Mostly the valid strategy, sometimes any JSON value."""
    return st.one_of(valid, valid, valid, _ANY_JSON)


def _section(spec):
    names = st.sampled_from(["A", "B", "Half", "1bad", ""])
    return _or_wrong(st.dictionaries(names, _or_wrong(spec), max_size=2))


def _entry(**fields):
    return st.fixed_dictionaries(
        {}, optional={k: _or_wrong(v) for k, v in fields.items()})


# dimensions up to 3, and some past dsl.MAX_DIM
_DIMS = st.integers(-1, 3) | st.sampled_from([65, 10 ** 8, 10 ** 21])
_VECTORS = st.lists(st.integers(-2, 2) | st.floats(), max_size=3)
_DOCS = st.fixed_dictionaries({}, optional={
    "sets": _section(_entry(dim=_DIMS, where=_TEXTS,
                            unbounded=st.booleans())),
    "functions": _section(_entry(
        n=_DIMS, value=_TEXTS,
        pieces=st.lists(_or_wrong(_entry(where=_TEXTS, value=_TEXTS)),
                        max_size=2))),
    "mappings": _section(_entry(
        n=_DIMS, m=_DIMS, graph=_TEXTS,
        discrete=_entry(atom=_TEXTS,
                        domain=st.sampled_from(["naturals", "reals"])))),
    "cones": _section(_entry(generators=st.lists(_VECTORS, max_size=2),
                             interior_point=_VECTORS)),
    "config": _or_wrong(st.dictionaries(
        st.sampled_from(["shells", "seed"]), st.integers(0, 9))),
}).map(json.dumps)
# documents nested past the JSON decoder's recursion, and the line format
_RAW = st.integers(1, 3000).map(
    lambda k: '{"config": ' + "[" * k + "]" * k + "}") \
    | st.text(max_size=40) | st.sampled_from([
        "set A(1) := v1 >= 0\nset A(1) := v1", "set A(0) := v1 >= 0",
        "set A(100000000) := v1 >= 0", "mapping F(1, 65) := v2 == v1"])


@settings(max_examples=400, deadline=None)
@given(_DOCS | _RAW)
def test_parse_problem_is_total(text):
    # a ProblemDef, which can be printed, or a ParseError; nothing else
    try:
        prob = parse_problem(text)
    except ParseError as e:
        assert e.diagnostics
        return
    assert isinstance(prob, dsl.ProblemDef)
    dims = [s.dim for s in prob.sets.values()] \
        + [f.n for f in prob.functions.values()] \
        + [d for mp in prob.mappings.values() for d in (mp.n, mp.m)]
    assert all(1 <= d <= dsl.MAX_DIM for d in dims)
    prob.pretty()
