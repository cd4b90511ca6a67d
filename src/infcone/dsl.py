"""Expression language for piecewise set / function / mapping definitions.

Expressions use variables v1..vk, arithmetic + - * / ^ (integer exponents,
binding tighter than unary minus) and the builtins exp, log, sin, cos,
sqrt, cbrt, abs, min, max.  Predicates combine comparisons (<=, <, >=, >,
==) with && and || and are normalized to disjunctive normal form, so every
set is a finite union of "pieces", each an inequality/equality system.

Problem documents are JSON with expression strings (normative schema, see
docs/problem-format.md) or a small line-based shorthand:

    set Omega(2) := v1 >= v2
    mapping F(1, 1) := (v1 >= 0 && v2 == v1 ^ 2) || (v1 < 0 && v2 == 0)
    function f(1) := sin(v1)

Evaluation is IEEE-style and total: log of a nonpositive number and sqrt
of a negative number yield +inf (point outside the effective domain);
comparisons treat nan as false.
"""

import json
import math
import re

import numpy as np

_BUILTINS_1 = {
    "exp": np.exp, "sin": np.sin, "cos": np.cos, "cbrt": np.cbrt,
    "abs": np.abs,
}
_NONSMOOTH = {"abs", "min", "max"}


class ParseError(Exception):
    """Carries a list of Diagnostic records."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Diagnostic:
    __slots__ = ("code", "message", "where", "line", "col")

    def __init__(self, code, message, where="", line=None, col=None):
        self.code = code
        self.message = message
        self.where = where
        self.line = line
        self.col = col

    def __str__(self):
        loc = self.where
        if self.line is not None:
            loc += ":%d" % self.line
        if self.col is not None:
            loc += ":col%d" % self.col
        return "[%s] %s (%s)" % (self.code, self.message, loc)

    def to_json(self):
        return {"code": self.code, "message": self.message,
                "where": self.where, "line": self.line, "col": self.col}


class NonSmooth(Exception):
    """Raised when differentiating through abs/min/max."""


# ---------------------------------------------------------------------------
# AST


class Expr:
    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return to_str(self)


class Num(Expr):
    __slots__ = ("val",)

    def __init__(self, val):
        self.val = float(val)

    def key(self):
        return ("num", self.val)


class Var(Expr):
    __slots__ = ("idx",)  # 0-based

    def __init__(self, idx):
        self.idx = int(idx)

    def key(self):
        return ("var", self.idx)


class Bin(Expr):
    __slots__ = ("op", "l", "r")

    def __init__(self, op, l, r):
        self.op = op
        self.l = l
        self.r = r

    def key(self):
        return ("bin", self.op, self.l.key(), self.r.key())


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base, exp):
        self.base = base
        self.exp = int(exp)

    def key(self):
        return ("pow", self.base.key(), self.exp)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def key(self):
        return ("neg", self.arg.key())


class Call(Expr):
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = tuple(args)

    def key(self):
        return ("call", self.fn) + tuple(a.key() for a in self.args)


def _children(e):
    """The sub-expressions of e, left to right."""
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Bin):
        return (e.l, e.r)
    return e.args if isinstance(e, Call) else ()


# ---------------------------------------------------------------------------
# Evaluation (vectorized over an (N, dim) point array)


def eval_expr(e, p):
    """Evaluate e at points p ((N, dim) array or a single point)."""
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    with np.errstate(all="ignore"):
        out = _ev(e, p)
        out = np.broadcast_to(out, (p.shape[0],)).astype(float)
    return float(out[0]) if single else out


def eval_columns(exprs, p):
    """(N, len(exprs)) values of the exprs at the (N, dim) points p."""
    out = np.empty((p.shape[0], len(exprs)))
    with np.errstate(all="ignore"):
        for j, e in enumerate(exprs):
            out[:, j] = _ev(e, p)
    return out


def _ev(e, p):
    if isinstance(e, Num):
        return np.full(p.shape[0], e.val)
    if isinstance(e, Var):
        return p[:, e.idx]
    if isinstance(e, Neg):
        return -_ev(e.arg, p)
    if isinstance(e, Pow):
        return _ev(e.base, p) ** e.exp
    if isinstance(e, Bin):
        a, b = _ev(e.l, p), _ev(e.r, p)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Call):
        args = [_ev(a, p) for a in e.args]
        if e.fn == "log":
            x = args[0]
            return np.where(x > 0.0, np.log(np.where(x > 0.0, x, 1.0)),
                            np.inf)
        if e.fn == "sqrt":
            x = args[0]
            return np.where(x >= 0.0, np.sqrt(np.abs(x)), np.inf)
        if e.fn == "min":
            return np.minimum(args[0], args[1])
        if e.fn == "max":
            return np.maximum(args[0], args[1])
        return _BUILTINS_1[e.fn](args[0])
    raise TypeError("not an Expr: %r" % (e,))


# ---------------------------------------------------------------------------
# Symbolic differentiation (chain-rule tables) with light simplification


def _add(a, b):
    if isinstance(a, Num) and a.val == 0.0:
        return b
    if isinstance(b, Num) and b.val == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.val + b.val)
    return Bin("+", a, b)


def _sub(a, b):
    if isinstance(b, Num) and b.val == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.val - b.val)
    if isinstance(a, Num) and a.val == 0.0:
        return _neg(b)
    return Bin("-", a, b)


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.val)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a, b):
    if isinstance(a, Num):
        if a.val == 0.0:
            return Num(0.0)
        if a.val == 1.0:
            return b
    if isinstance(b, Num):
        if b.val == 0.0:
            return Num(0.0)
        if b.val == 1.0:
            return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.val * b.val)
    return Bin("*", a, b)


def _div(a, b):
    if isinstance(a, Num) and a.val == 0.0:
        return Num(0.0)
    if isinstance(b, Num) and b.val == 1.0:
        return a
    return Bin("/", a, b)


def diff(e, idx):
    """Partial derivative of e with respect to variable idx (0-based).

    Raises NonSmooth for abs/min/max; callers treat such pieces through
    projection-based machinery instead of analytic gradients.
    """
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.idx == idx else 0.0)
    if isinstance(e, Neg):
        return _neg(diff(e.arg, idx))
    if isinstance(e, Pow):
        d = diff(e.base, idx)
        if isinstance(d, Num) and d.val == 0.0:
            return Num(0.0)
        return _mul(_mul(Num(e.exp), Pow(e.base, e.exp - 1)), d)
    if isinstance(e, Bin):
        da, db = diff(e.l, idx), diff(e.r, idx)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.r), _mul(e.l, db))
        num = _sub(_mul(da, e.r), _mul(e.l, db))
        return _div(num, Pow(e.r, 2))
    if isinstance(e, Call):
        if e.fn in _NONSMOOTH:
            raise NonSmooth(e.fn)
        x = e.args[0]
        dx = diff(x, idx)
        if isinstance(dx, Num) and dx.val == 0.0:
            return Num(0.0)
        if e.fn == "exp":
            return _mul(Call("exp", [x]), dx)
        if e.fn == "log":
            return _div(dx, x)
        if e.fn == "sin":
            return _mul(Call("cos", [x]), dx)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", [x]), dx))
        if e.fn == "sqrt":
            return _div(dx, _mul(Num(2.0), Call("sqrt", [x])))
        if e.fn == "cbrt":
            return _div(dx, _mul(Num(3.0), Pow(Call("cbrt", [x]), 2)))
    raise TypeError("cannot differentiate %r" % (e,))


def gradient(e, dim):
    """List of dim partial-derivative Exprs; raises NonSmooth."""
    return [diff(e, i) for i in range(dim)]


def subst_vars(e, mapping):
    """Replace Var(i) by mapping[i] (an Expr) where present."""
    if isinstance(e, Var):
        return mapping.get(e.idx, e)
    if isinstance(e, Num):
        return e
    if isinstance(e, Neg):
        return _neg(subst_vars(e.arg, mapping))
    if isinstance(e, Pow):
        return Pow(subst_vars(e.base, mapping), e.exp)
    if isinstance(e, Bin):
        return Bin(e.op, subst_vars(e.l, mapping), subst_vars(e.r, mapping))
    if isinstance(e, Call):
        return Call(e.fn, [subst_vars(a, mapping) for a in e.args])
    raise TypeError("not an Expr: %r" % (e,))


def shift_vars(e, k):
    """Renumber every variable index by +k."""
    idxs = free_vars(e)
    return subst_vars(e, {i: Var(i + k) for i in idxs})


def free_vars(e):
    if isinstance(e, Var):
        return {e.idx}
    return set().union(*map(free_vars, _children(e)))


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through the parser)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_str(e, prec=0):
    if isinstance(e, Num):
        v = e.val
        if v == int(v) and abs(v) < 1e15:
            s = str(int(v))
        else:
            s = repr(v)
        return "(%s)" % s if v < 0 and prec >= 3 else s
    if isinstance(e, Var):
        return "v%d" % (e.idx + 1)
    if isinstance(e, Neg):
        s = "-" + to_str(e.arg, 3)
        return "(%s)" % s if prec > 2 else s
    if isinstance(e, Pow):
        return "%s ^ %d" % (to_str(e.base, 5), e.exp) \
            if prec <= 4 else "(%s ^ %d)" % (to_str(e.base, 5), e.exp)
    if isinstance(e, Bin):
        p = _PREC[e.op]
        s = "%s %s %s" % (to_str(e.l, p), e.op, to_str(e.r, p + 1))
        return "(%s)" % s if prec > p else s
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, ", ".join(to_str(a) for a in e.args))
    raise TypeError


# ---------------------------------------------------------------------------
# Predicates


class Comparison:
    """Canonical comparison g(v) REL 0 with REL in {<=, <, ==}.

    Stores the original lhs/rhs/op for printing; g = lhs - rhs after
    orienting >=, > to <=, <.
    """

    __slots__ = ("g", "is_eq", "lhs", "rhs", "op", "smooth", "_grad")

    def __init__(self, lhs, op, rhs):
        self.lhs = lhs
        self.rhs = rhs
        self.op = op
        if op in (">=", ">"):
            lhs, rhs = rhs, lhs
            op = {">": "<", ">=": "<="}[op]
        self.g = _sub(lhs, rhs)
        self.is_eq = op == "=="
        try:
            # probe smoothness; actual gradient exprs cached lazily per dim
            self.smooth = not (free_vars(self.g) and _has_nonsmooth(self.g))
        except Exception:
            self.smooth = False
        self._grad = {}

    def key(self):
        return ("cmp", self.op, self.lhs.key(), self.rhs.key())

    def grad_exprs(self, dim):
        if dim not in self._grad:
            self._grad[dim] = gradient(self.g, dim)
        return self._grad[dim]

    def __repr__(self):
        return "%s %s %s" % (to_str(self.lhs), self.op, to_str(self.rhs))


def _has_nonsmooth(e):
    return (isinstance(e, Call) and e.fn in _NONSMOOTH) or \
        any(map(_has_nonsmooth, _children(e)))


class Conj:
    __slots__ = ("comparisons",)

    def __init__(self, comparisons):
        self.comparisons = list(comparisons)

    def key(self):
        return ("and",) + tuple(c.key() for c in self.comparisons)

    def __repr__(self):
        return " && ".join(repr(c) for c in self.comparisons)


class Predicate:
    """Disjunction of conjunctions of comparisons (DNF, depth exactly 2)."""

    __slots__ = ("conjs", "dim")

    def __init__(self, conjs, dim):
        self.conjs = list(conjs)
        self.dim = int(dim)

    def key(self):
        return ("or",) + tuple(c.key() for c in self.conjs)

    def __repr__(self):
        if len(self.conjs) == 1:
            return repr(self.conjs[0])
        return " || ".join("(%s)" % repr(c) for c in self.conjs)


INSIDE = 1
BOUNDARY = 0
OUTSIDE = -1


def eval_predicate(pred, p, eq_tol):
    """Classify points as Inside / Boundary / Outside (vectorized).

    Returns an int array (scalar for a single point): 1 inside (strictly),
    0 on the boundary within tolerance (counts as a member), -1 outside.
    Equalities hold within eq_tol * (1 + |rhs|); strict inequalities
    violated within that tolerance report Boundary.
    """
    p = np.asarray(p, dtype=float)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    best = np.full(p.shape[0], OUTSIDE, dtype=int)
    for conj in pred.conjs:
        status = _eval_conj(conj, p, eq_tol)
        best = np.maximum(best, status)
    return int(best[0]) if single else best


def _eval_conj(conj, p, eq_tol):
    n = p.shape[0]
    status = np.full(n, INSIDE, dtype=int)
    with np.errstate(all="ignore"):
        for c in conj.comparisons:
            g = _ev(c.g, p)
            rhs = _ev(c.rhs, p)
            scale = np.where(np.isfinite(rhs), np.abs(rhs), 0.0)
            tol = eq_tol * (1.0 + scale)
            g = np.where(np.isnan(g), np.inf, g)
            if c.is_eq:
                inside = np.abs(g) <= tol
                st = np.where(inside, BOUNDARY, OUTSIDE)
            else:
                # strict comparisons count as closed: the set is the closure
                st = np.where(g < -tol, INSIDE,
                              np.where(g <= tol, BOUNDARY, OUTSIDE))
            status = np.minimum(status, st)
    return status


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(r"""
    (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||<=|>=|==|[-+*/^()<>,=])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text, where, diags):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diags.append(Diagnostic("E_SYNTAX", "unexpected character %r"
                                    % text[pos], where, col=pos + 1))
            raise ParseError(diags)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    """Recursive-descent parser for predicates and expressions."""

    def __init__(self, text, dim, where, diags):
        self.text = text
        self.dim = dim
        self.where = where
        self.diags = diags
        self.toks = _tokenize(text, where, diags)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, code="E_SYNTAX"):
        _, val, pos = self.peek()
        self.diags.append(Diagnostic(code, msg + (" (got %r)" % (val or "end of input")),
                                     self.where, col=pos + 1))
        raise ParseError(self.diags)

    def expect(self, val):
        if self.peek()[1] != val:
            self.fail("expected %r" % val)
        return self.next()

    # predicate := or_term; or_term := and_term ('||' and_term)*
    def parse_predicate(self):
        tree = self._or_term()
        if self.peek()[0] != "eof":
            self.fail("trailing input after predicate")
        conjs = _to_dnf(tree, self.where, self.diags)
        return Predicate(conjs, self.dim)

    def _or_term(self):
        terms = [self._and_term()]
        while self.peek()[1] == "||":
            self.next()
            terms.append(self._and_term())
        return ("or", terms)

    def _and_term(self):
        terms = [self._atom_pred()]
        while self.peek()[1] == "&&":
            self.next()
            terms.append(self._atom_pred())
        return ("and", terms)

    def _atom_pred(self):
        # Either a parenthesized sub-predicate or a comparison.  Both can
        # start with '('; backtrack on comparison operators.
        save, depth = self.i, self.depth
        if self.peek()[1] == "(":
            self.open()
            try:
                node = self._or_term()
                self.expect(")")
                if self.peek()[1] in ("<=", ">=", "==", "<", ">", "="):
                    # it was a parenthesized expression after all
                    raise _Backtrack()
                self.depth -= 1
                return node
            except (_Backtrack, ParseError):
                # comparisons may also fail mid-way; re-parse as comparison
                del self.diags[:]
                self.i, self.depth = save, depth
        return self._comparison()

    def _comparison(self):
        lhs = self.shallow(self.parse_expr_inner())
        kind, val, _ = self.peek()
        if val == "=":
            self.fail("'=' is not a comparison; use '=='")
        if val not in ("<=", ">=", "==", "<", ">"):
            self.fail("expected a comparison operator")
        self.next()
        rhs = self.shallow(self.parse_expr_inner())
        return ("cmp", Comparison(lhs, val, rhs))

    def open(self):
        """Consume a '(' and enter one nesting level (at most _MAX_DEPTH)."""
        if self.depth >= _MAX_DEPTH:
            self.fail("parentheses nest deeper than %d" % _MAX_DEPTH,
                      code="E_DEPTH")
        self.expect("(")
        self.depth += 1

    def shallow(self, e):
        """e, when its tree is at most _MAX_DEPTH levels deep."""
        level, height = [e], 0
        while level:
            height += 1
            if height > _MAX_DEPTH:
                self.diags.append(Diagnostic(
                    "E_DEPTH", "expression nests deeper than %d levels"
                    % _MAX_DEPTH, self.where))
                raise ParseError(self.diags)
            level = [c for x in level for c in _children(x)]
        return e

    # expressions
    def parse_expr(self):
        e = self.shallow(self.parse_expr_inner())
        if self.peek()[0] != "eof":
            self.fail("trailing input after expression")
        return e

    def parse_expr_inner(self):
        return self._additive()

    def _additive(self):
        node = self._multiplicative()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Bin(op, node, self._multiplicative())
        return node

    def _multiplicative(self):
        node = self._unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Bin(op, node, self._unary())
        return node

    def _unary(self):
        # ^ binds tighter than unary minus: -v1^2 == -(v1^2)
        signs = []
        while self.peek()[1] in ("-", "+"):
            signs.append(self.next()[1])
        node = self._power()
        for sign in reversed(signs):
            if sign == "-":
                node = Neg(node)
        return node

    def _power(self):
        base = self._atom()
        if self.peek()[1] == "^":
            self.next()
            sign = 1
            if self.peek()[1] == "-":
                self.next()
                sign = -1
            kind, val, pos = self.peek()
            if kind != "num" or ("." in val or "e" in val or "E" in val):
                self.fail("exponent must be an integer literal")
            self.next()
            return Pow(base, sign * int(val))
        return base

    def _atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "id":
            m = re.fullmatch(r"v(\d+)", val)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= self.dim:
                    self.i -= 1
                    self.fail("variable v%d out of range (dim %d)"
                              % (idx, self.dim), code="E_DIM")
                return Var(idx - 1)
            if val in ("exp", "log", "sin", "cos", "sqrt", "cbrt", "abs",
                       "min", "max"):
                self.open()
                args = [self.parse_expr_inner()]
                if val in ("min", "max"):
                    self.expect(",")
                    args.append(self.parse_expr_inner())
                self.expect(")")
                self.depth -= 1
                return Call(val, args)
            if val == "pi":
                return Num(math.pi)
            self.i -= 1
            self.fail("unknown identifier %r" % val, code="E_UNKNOWN_ID")
        if val == "(":
            self.i -= 1
            self.open()
            e = self.parse_expr_inner()
            self.expect(")")
            self.depth -= 1
            return e
        self.i -= 1
        self.fail("expected a number, variable, function or '('")


class _Backtrack(Exception):
    pass


_MAX_DNF_PIECES = 64
# nesting limit for parentheses and for expression trees, well inside the
# interpreter's recursion limit for the recursive passes over an Expr
_MAX_DEPTH = 100
# largest dim, n or m a problem may declare: the samplers hold grid_4d
# (40,000) directions of that length, and past it a run only exhausts
# memory
MAX_DIM = 64


def _to_dnf(tree, where, diags):
    """Distribute and/or into a list of Conj (DNF depth 2)."""
    if tree[0] == "cmp":
        return [Conj([tree[1]])]
    out = None
    for term in tree[1]:
        part = _to_dnf(term, where, diags)
        if out is None:
            out = part
        elif tree[0] == "and":
            out = [Conj(a.comparisons + b.comparisons)
                   for a in out for b in part]
        else:
            out = out + part
        if len(out) > _MAX_DNF_PIECES:
            diags.append(Diagnostic("E_DNF", "predicate explodes past %d "
                                    "DNF pieces" % _MAX_DNF_PIECES, where))
            raise ParseError(diags)
    return out


def parse_predicate(text, dim, where="<predicate>", diags=None):
    diags = [] if diags is None else diags
    return _Parser(text, dim, where, diags).parse_predicate()


def parse_expr(text, dim, where="<expr>", diags=None):
    diags = [] if diags is None else diags
    return _Parser(text, dim, where, diags).parse_expr()


# ---------------------------------------------------------------------------
# Problem definitions


class SetDef:
    __slots__ = ("name", "dim", "pred", "unbounded")

    def __init__(self, name, dim, pred, unbounded=True):
        self.name = name
        self.dim = dim
        self.pred = pred
        self.unbounded = bool(unbounded)

    def key(self):
        return ("set", self.name, self.dim, self.pred.key(), self.unbounded)


class FuncDef:
    """Piecewise function: list of (region Predicate | None, value Expr)."""

    __slots__ = ("name", "n", "pieces")

    def __init__(self, name, n, pieces):
        self.name = name
        self.n = n
        self.pieces = list(pieces)

    def key(self):
        return ("function", self.name, self.n,
                tuple((r.key() if r is not None else None, e.key())
                      for r, e in self.pieces))


class MapDef:
    """Set-valued mapping by graph predicate or discrete atom family."""

    __slots__ = ("name", "n", "m", "graph", "discrete")

    def __init__(self, name, n, m, graph=None, discrete=None):
        self.name = name
        self.n = n
        self.m = m
        self.graph = graph          # Predicate over v1..v_{n+m} or None
        self.discrete = discrete    # {"atom": Expr in v1..vn, "domain": str}

    def key(self):
        d = None
        if self.discrete:
            d = (self.discrete["atom"].key(), self.discrete["domain"])
        return ("mapping", self.name, self.n, self.m,
                self.graph.key() if self.graph is not None else None, d)


class ConeDef:
    __slots__ = ("name", "generators", "interior_point")

    def __init__(self, name, generators, interior_point):
        self.name = name
        self.generators = np.array(generators, dtype=float)
        self.interior_point = np.array(interior_point, dtype=float)

    def key(self):
        return ("cone", self.name,
                tuple(map(tuple, self.generators.tolist())),
                tuple(self.interior_point.tolist()))


class ProblemDef:
    __slots__ = ("sets", "functions", "mappings", "cones", "config")

    def __init__(self, sets=None, functions=None, mappings=None, cones=None,
                 config=None):
        self.sets = dict(sets or {})
        self.functions = dict(functions or {})
        self.mappings = dict(mappings or {})
        self.cones = dict(cones or {})
        self.config = dict(config or {})

    def key(self):
        return (tuple(sorted((k, v.key()) for k, v in self.sets.items())),
                tuple(sorted((k, v.key()) for k, v in self.functions.items())),
                tuple(sorted((k, v.key()) for k, v in self.mappings.items())),
                tuple(sorted((k, v.key()) for k, v in self.cones.items())),
                tuple(sorted(self.config.items())))

    def __eq__(self, other):
        return isinstance(other, ProblemDef) and self.key() == other.key()

    def pretty(self):
        """Re-emit the problem as normalized JSON text (reparseable)."""
        doc = {}
        if self.sets:
            doc["sets"] = {k: {"dim": s.dim, "where": repr(s.pred),
                               "unbounded": s.unbounded}
                           for k, s in self.sets.items()}
        if self.functions:
            doc["functions"] = {
                k: {"n": f.n,
                    "pieces": [{"where": (repr(r) if r is not None else None),
                                "value": to_str(e)}
                               for r, e in f.pieces]}
                for k, f in self.functions.items()}
        if self.mappings:
            out = {}
            for k, mp in self.mappings.items():
                entry = {"n": mp.n, "m": mp.m}
                if mp.graph is not None:
                    entry["graph"] = repr(mp.graph)
                if mp.discrete is not None:
                    entry["discrete"] = {"atom": to_str(mp.discrete["atom"]),
                                         "domain": mp.discrete["domain"]}
                out[k] = entry
            doc["mappings"] = out
        if self.cones:
            doc["cones"] = {k: {"generators": c.generators.tolist(),
                                "interior_point": c.interior_point.tolist()}
                            for k, c in self.cones.items()}
        if self.config:
            doc["config"] = self.config
        return json.dumps(doc, indent=2, sort_keys=True)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_problem(text):
    """Parse a problem document (JSON, or the line-based shorthand).

    Returns a ProblemDef; raises ParseError with a diagnostic list on any
    error (the grammar is total: no partial results).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_problem_json(text)
    return _parse_problem_lines(text)


def _parse_problem_json(text):
    diags = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        diags.append(Diagnostic("E_SYNTAX", "invalid JSON: %s" % e.msg,
                                "<document>", line=e.lineno, col=e.colno))
        raise ParseError(diags)
    except RecursionError:
        diags.append(Diagnostic("E_DEPTH", "JSON nested too deeply",
                                "<document>"))
        raise ParseError(diags)
    _typed(doc, dict, "<document>", diags)
    prob = ProblemDef()
    seen = set()

    def entities(section):
        """(name, spec, JSON path) for each entry of a top-level object."""
        if doc.get(section) is None:
            return
        for name, spec in _typed(doc[section], dict, section, diags).items():
            where = "%s.%s" % (section, name)
            if not _NAME_RE.match(name):
                diags.append(Diagnostic("E_SYNTAX", "bad entity name %r"
                                        % name, where))
                raise ParseError(diags)
            if name in seen:
                diags.append(Diagnostic("E_SYNTAX", "duplicate entity name "
                                        "%r" % name, where))
                raise ParseError(diags)
            seen.add(name)
            yield name, _typed(spec, dict, where, diags), where

    def string(spec, key, where):
        return _typed(spec.get(key, ""), str, "%s.%s" % (where, key), diags)

    for name, spec, where in entities("sets"):
        dim = _require_int(spec, "dim", where, diags)
        pred = parse_predicate(string(spec, "where", where), dim, where,
                               diags)
        unbounded = _typed(spec.get("unbounded", True), bool,
                           where + ".unbounded", diags)
        prob.sets[name] = SetDef(name, dim, pred, unbounded)
    for name, spec, where in entities("functions"):
        n = _require_int(spec, "n", where, diags)
        pieces = []
        if "value" in spec:
            pieces.append((None, parse_expr(string(spec, "value", where), n,
                                            where, diags)))
        for k, pc in enumerate(_typed(spec.get("pieces", []), list,
                                      where + ".pieces", diags)):
            pw = "%s.pieces[%d]" % (where, k)
            _typed(pc, dict, pw, diags)
            if "value" not in pc:
                diags.append(Diagnostic("E_SYNTAX", "piece needs 'value'",
                                        pw))
                raise ParseError(diags)
            region = None
            if pc.get("where") is not None:
                region = parse_predicate(string(pc, "where", pw), n, pw,
                                         diags)
            pieces.append((region, parse_expr(string(pc, "value", pw), n, pw,
                                              diags)))
        if not pieces:
            diags.append(Diagnostic("E_SYNTAX", "function needs 'value' or "
                                    "'pieces'", where))
            raise ParseError(diags)
        prob.functions[name] = FuncDef(name, n, pieces)
    for name, spec, where in entities("mappings"):
        n = _require_int(spec, "n", where, diags)
        m = _require_int(spec, "m", where, diags)
        graph = None
        discrete = None
        if "graph" in spec:
            graph = parse_predicate(string(spec, "graph", where), n + m,
                                    where, diags)
        elif "discrete" in spec:
            dw = where + ".discrete"
            dspec = _typed(spec["discrete"], dict, dw, diags)
            if "atom" not in dspec:
                diags.append(Diagnostic("E_SYNTAX", "discrete mapping needs "
                                        "'atom'", dw))
                raise ParseError(diags)
            atom = parse_expr(string(dspec, "atom", dw), n, dw, diags)
            domain = dspec.get("domain", "naturals")
            if domain not in ("naturals", "integers"):
                diags.append(Diagnostic("E_SYNTAX", "discrete domain must "
                                        "be 'naturals' or 'integers'", where))
                raise ParseError(diags)
            discrete = {"atom": atom, "domain": domain}
        else:
            diags.append(Diagnostic("E_SYNTAX", "mapping needs 'graph' or "
                                    "'discrete'", where))
            raise ParseError(diags)
        prob.mappings[name] = MapDef(name, n, m, graph, discrete)
    for name, spec, where in entities("cones"):
        gens = spec.get("generators")
        ip = spec.get("interior_point")
        if not gens or ip is None:
            diags.append(Diagnostic("E_SYNTAX", "cone needs 'generators' "
                                    "and 'interior_point'", where))
            raise ParseError(diags)
        vectors = [(g, "%s.generators[%d]" % (where, k))
                   for k, g in enumerate(_typed(gens, list,
                                                where + ".generators",
                                                diags))]
        for vec, path in vectors + [(ip, where + ".interior_point")]:
            _typed(vec, list, path, diags)
            if not vec or not all(map(_finite_number, vec)):
                diags.append(Diagnostic("E_TYPE", "must be a non-empty "
                                        "array of numbers", path))
                raise ParseError(diags)
        dims = {len(g) for g in gens} | {len(ip)}
        if len(dims) != 1:
            diags.append(Diagnostic("E_DIM", "inconsistent cone dimensions",
                                    where))
            raise ParseError(diags)
        prob.cones[name] = ConeDef(name, gens, ip)
    if doc.get("config") is not None:
        prob.config = dict(_typed(doc["config"], dict, "config", diags))
    return prob


_LINE_RE = re.compile(
    r"\s*(set|mapping|function)\s+([A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*:=\s*(.*)\Z")


def _parse_problem_lines(text):
    diags = []
    prob = ProblemDef()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            diags.append(Diagnostic("E_SYNTAX", "expected 'set NAME(d) := "
                                    "...', 'mapping NAME(n,m) := ...' or "
                                    "'function NAME(n) := ...'",
                                    "<document>", line=lineno))
            raise ParseError(diags)
        kind, name, d1, d2, body = m.groups()
        where = "%s.%s" % (kind, name)
        if name in prob.sets or name in prob.mappings or name in prob.functions:
            diags.append(Diagnostic("E_SYNTAX", "duplicate entity name %r"
                                    % name, where, line=lineno))
            raise ParseError(diags)
        if kind == "set":
            dim = _dim(int(d1), "dim", where, diags, lineno)
            prob.sets[name] = SetDef(name, dim,
                                     parse_predicate(body, dim, where, diags))
        elif kind == "mapping":
            if d2 is None:
                diags.append(Diagnostic("E_SYNTAX", "mapping needs (n, m)",
                                        where, line=lineno))
                raise ParseError(diags)
            n = _dim(int(d1), "n", where, diags, lineno)
            mm = _dim(int(d2), "m", where, diags, lineno)
            prob.mappings[name] = MapDef(
                name, n, mm, parse_predicate(body, n + mm, where, diags))
        else:
            n = _dim(int(d1), "n", where, diags, lineno)
            prob.functions[name] = FuncDef(
                name, n, [(None, parse_expr(body, n, where, diags))])
    return prob


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               bool: "true or false"}


def _typed(value, kind, where, diags):
    """value, when it is of the JSON type `kind` (a key of _JSON_TYPES)."""
    if not isinstance(value, kind):
        diags.append(Diagnostic("E_TYPE", "must be %s" % _JSON_TYPES[kind],
                                where))
        raise ParseError(diags)
    return value


def _finite_number(x):
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _require_int(spec, field, where, diags):
    v = spec.get(field)
    if not isinstance(v, int) or isinstance(v, bool):
        diags.append(Diagnostic("E_DIM", "'%s' must be a positive integer"
                                % field, where))
        raise ParseError(diags)
    return _dim(v, field, "%s.%s" % (where, field), diags)


def _dim(v, field, where, diags, line=None):
    """v, when it is a dimension from 1 to MAX_DIM."""
    if not 1 <= v <= MAX_DIM:
        diags.append(Diagnostic("E_DIM", "'%s' must be from 1 to %d"
                                % (field, MAX_DIM), where, line=line))
        raise ParseError(diags)
    return v
