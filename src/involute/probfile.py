"""Input language: problem files and the expression syntax.

A problem file lists the coordinate system, an optional ranking block and
the equations::

    vars: x1 x2 x3          # ranking order, first = highest
    funcs: y
    ranking: grlex          # lex | grlex | degrevlex
    tiebreak: term          # term | indet
    eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]
    eq: D[y,{0,2,0}]

Symmetry problems use solved equations instead, ``solve: D[y,t] = ...``.
Derivatives are written ``D[y,{a,b,c}]`` (multiindex) or ``D[y,x1,x1,x3]``
(repeated differentiation); a bare function name is the order-0 derivative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .diffpoly import SCHEMES, TIEBREAKS, Context, Derivative, LinearDiffPoly, Ranking
from .monomial import MultiIndex
from .scalars import RationalFunction
from .symmetry import DiffPolynomial, SolvedEquation, SymmetryProblem


class ProblemError(Exception):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                    r"|(?P<op>[-+*/^(){}\[\],=]))")


def _tokenize(text, line):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ProblemError(f"unexpected character {text[pos]!r}", line, pos + 1)
            break
        if m.group("name"):
            out.append(("name", m.group("name"), m.start("name") + 1))
        elif m.group("int"):
            out.append(("int", int(m.group("int")), m.start("int") + 1))
        else:
            out.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ProblemError("unexpected end of expression", self.line)
        self.pos += 1
        return t

    def expect_op(self, op):
        t = self.next()
        if t[0] != "op" or t[1] != op:
            raise ProblemError(f"expected {op!r}, found {t[1]!r}", self.line, t[2])
        return t

    def at_op(self, *ops):
        t = self.peek()
        return t is not None and t[0] == "op" and t[1] in ops

    def parse_expression(self):
        node = self.parse_term()
        while self.at_op("+", "-"):
            op = self.next()[1]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_op("*", "/"):
            op = self.next()[1]
            rhs = self.parse_factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self):
        if self.at_op("-"):
            self.next()
            return ("neg", self.parse_factor())
        if self.at_op("+"):
            self.next()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.at_op("^"):
            tok = self.next()
            exp = self.next()
            if exp[0] != "int":
                raise ProblemError("exponent must be a nonnegative integer",
                                   self.line, exp[2])
            return ("pow", base, exp[1])
        return base

    def parse_atom(self):
        t = self.next()
        if t[0] == "int":
            return ("num", Fraction(t[1]))
        if t[0] == "op" and t[1] == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        if t[0] == "name":
            if t[1] == "D" and self.at_op("["):
                return self.parse_derivative(t)
            return ("name", t[1], t[2])
        raise ProblemError(f"unexpected token {t[1]!r}", self.line, t[2])

    def parse_derivative(self, head):
        self.expect_op("[")
        fn = self.next()
        if fn[0] != "name":
            raise ProblemError("derivative of what? expected a function name",
                               self.line, fn[2])
        self.expect_op(",")
        if self.at_op("{"):
            self.next()
            entries = []
            while True:
                e = self.next()
                if e[0] != "int":
                    raise ProblemError("multiindex entries must be integers",
                                       self.line, e[2])
                entries.append(e[1])
                if self.at_op(","):
                    self.next()
                    continue
                break
            self.expect_op("}")
            self.expect_op("]")
            return ("deriv", fn[1], ("multi", entries), fn[2])
        names = []
        while True:
            v = self.next()
            if v[0] != "name":
                raise ProblemError("expected a variable name in D[..]",
                                   self.line, v[2])
            names.append(v[1])
            if self.at_op(","):
                self.next()
                continue
            break
        self.expect_op("]")
        return ("deriv", fn[1], ("vars", names), fn[2])


def parse_expression(text, line=0):
    p = _Parser(_tokenize(text, line), line)
    lhs = p.parse_expression()
    rhs = None
    if p.at_op("="):
        p.next()
        rhs = p.parse_expression()
    t = p.peek()
    if t is not None:
        raise ProblemError(f"trailing input {t[1]!r}", line, t[2])
    return lhs, rhs


@dataclass
class ParsedEquation:
    lhs: tuple
    rhs: tuple
    solved: bool
    line: int


@dataclass
class ProblemFile:
    variables: tuple
    functions: tuple
    scheme: str = "grlex"
    tiebreak: str = "term"
    completion_scheme: str = None
    detvars: tuple = None
    equations: tuple = ()

    def context(self):
        return Context(self.variables, self.functions)

    def ranking(self, scheme=None, tiebreak=None):
        return Ranking(scheme or self.scheme, tiebreak or self.tiebreak)

    def completion_ranking(self, scheme=None):
        scheme = scheme or self.completion_scheme
        return Ranking(scheme, self.tiebreak) if scheme else None

    def monomials(self):
        """The multiindices of equations that are bare derivatives of one function."""
        out = []
        for eq in self.equations:
            if eq.rhs is not None or eq.lhs[0] != "deriv":
                raise ProblemError("expected a bare derivative", eq.line)
            _, fname, _, col = eq.lhs
            if fname not in self.functions:
                raise ProblemError(f"unknown function {fname!r}", eq.line, col)
            if fname != self.equations[0].lhs[1]:
                raise ProblemError(f"second function {fname!r} in a monomial set", eq.line, col)
            out.append(_deriv_index(eq.lhs, self.variables, eq.line))
        return out

    def linear_system(self):
        ctx = self.context()
        out = []
        for eq in self.equations:
            lhs = _build_linear(eq.lhs, ctx, eq.line)
            if eq.rhs is not None:
                lhs = lhs - _build_linear(eq.rhs, ctx, eq.line)
            if lhs.is_zero():
                raise ProblemError("equation reduces to 0 = 0", eq.line)
            out.append(lhs)
        return out

    def symmetry_problem(self):
        n, m = len(self.variables), len(self.functions)
        eqs = []
        for eq in self.equations:
            if eq.rhs is None:
                raise ProblemError("symmetry input needs solved equations "
                                   "(solve: D[...] = rhs)", eq.line)
            if eq.lhs[0] != "deriv":
                raise ProblemError("left side must be a single derivative", eq.line)
            alpha = _deriv_index(eq.lhs, self.variables, eq.line)
            fname = eq.lhs[1]
            if fname not in self.functions:
                raise ProblemError(f"unknown function {fname!r}", eq.line)
            j = self.functions.index(fname)
            rhs = _build_diff(eq.rhs, self.variables, self.functions, eq.line)
            try:
                eqs.append(SolvedEquation((j, alpha), rhs))
            except ValueError as exc:
                raise ProblemError(str(exc), eq.line) from exc
        det_order = None
        if self.detvars:
            det_order = []
            for name in self.detvars:
                if name in self.functions:
                    det_order.append(("y", self.functions.index(name)))
                elif name in self.variables:
                    det_order.append(("x", self.variables.index(name)))
                else:
                    raise ProblemError(f"unknown name {name!r} in detvars")
            det_order = tuple(det_order)
        return SymmetryProblem(self.variables, self.functions, tuple(eqs), det_order)


def parse_problem(text):
    variables = None
    functions = None
    scheme = "grlex"
    tiebreak = "term"
    completion_scheme = None
    detvars = None
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "vars":
            variables = tuple(value.split())
        elif key == "funcs":
            functions = tuple(value.split())
        elif key == "ranking":
            scheme = _known(value, SCHEMES, "ranking", lineno)
        elif key == "tiebreak":
            tiebreak = _known(value, TIEBREAKS, "tiebreak", lineno)
        elif key in ("completion-ranking", "completion_ranking"):
            completion_scheme = _known(value, SCHEMES, "completion ranking", lineno)
        elif key == "detvars":
            detvars = tuple(value.split())
        elif key in ("eq", "solve"):
            lhs, rhs = parse_expression(value, lineno)
            equations.append(ParsedEquation(lhs, rhs, key == "solve", lineno))
        else:
            raise ProblemError(f"unknown key {key!r}", lineno)
    if not variables:
        raise ProblemError("missing 'vars:' declaration")
    if not functions:
        raise ProblemError("missing 'funcs:' declaration")
    names = variables + functions
    if len(set(names)) != len(names):
        raise ProblemError("variable and function names must be unique")
    if not equations:
        raise ProblemError("no equations")
    return ProblemFile(variables, functions, scheme, tiebreak,
                       completion_scheme, detvars, tuple(equations))


def _known(value, names, key, line):
    if value not in names:
        raise ProblemError(f"unknown {key} {value!r}", line)
    return value


def _deriv_index(node, variables, line):
    _, _, spec, col = node
    n = len(variables)
    if spec[0] == "multi":
        if len(spec[1]) != n:
            raise ProblemError(f"multiindex of length {len(spec[1])} in a "
                               f"{n}-variable problem", line, col)
        try:
            return MultiIndex(spec[1])
        except ValueError as exc:
            raise ProblemError(str(exc), line, col) from exc
    alpha = [0] * n
    for name in spec[1]:
        if name not in variables:
            raise ProblemError(f"unknown variable {name!r} in derivative", line, col)
        alpha[variables.index(name)] += 1
    return MultiIndex(alpha)


def _build_linear(node, ctx, line):
    kind = node[0]
    if kind == "num":
        return LinearDiffPoly(ctx, const=RationalFunction.const(ctx.n, node[1]))
    if kind == "name":
        name = node[1]
        if name in ctx.variables:
            return LinearDiffPoly(
                ctx, const=RationalFunction.variable(ctx.n, ctx.variable_index(name)))
        if name in ctx.functions:
            d = Derivative(ctx.function_index(name), MultiIndex.unit(ctx.n))
            return LinearDiffPoly.from_derivative(ctx, d)
        raise ProblemError(f"unknown identifier {name!r}", line, node[2])
    if kind == "deriv":
        fname = node[1]
        if fname not in ctx.functions:
            raise ProblemError(f"unknown function {fname!r}", line, node[3])
        alpha = _deriv_index(node, ctx.variables, line)
        return LinearDiffPoly.from_derivative(
            ctx, Derivative(ctx.function_index(fname), alpha))
    if kind == "neg":
        return -_build_linear(node[1], ctx, line)
    if kind in ("add", "sub"):
        a = _build_linear(node[1], ctx, line)
        b = _build_linear(node[2], ctx, line)
        return a + b if kind == "add" else a - b
    if kind == "mul":
        a = _build_linear(node[1], ctx, line)
        b = _build_linear(node[2], ctx, line)
        if a.terms and b.terms:
            raise ProblemError("product of two derivative expressions is not linear",
                               line)
        if b.terms:
            a, b = b, a
        return a.scale(b.const)
    if kind == "div":
        a = _build_linear(node[1], ctx, line)
        b = _build_linear(node[2], ctx, line)
        if b.terms:
            raise ProblemError("division by a derivative expression", line)
        if b.const.is_zero():
            raise ProblemError("division by zero", line)
        return a.scale(b.const.inverse())
    if kind == "pow":
        a = _build_linear(node[1], ctx, line)
        if node[2] == 1:
            return a
        if a.terms:
            raise ProblemError("power of a derivative expression is not linear", line)
        return LinearDiffPoly(ctx, const=a.const ** node[2])
    raise ProblemError(f"unsupported syntax node {kind!r}", line)


def _build_diff(node, variables, functions, line):
    n, m = len(variables), len(functions)
    kind = node[0]
    if kind == "num":
        return DiffPolynomial.const(n, m, node[1])
    if kind == "name":
        name = node[1]
        if name in variables:
            return DiffPolynomial.var(n, m, variables.index(name))
        if name in functions:
            return DiffPolynomial.func(n, m, functions.index(name))
        raise ProblemError(f"unknown identifier {name!r}", line, node[2])
    if kind == "deriv":
        fname = node[1]
        if fname not in functions:
            raise ProblemError(f"unknown function {fname!r}", line, node[3])
        alpha = _deriv_index(node, variables, line)
        return DiffPolynomial.deriv(n, m, functions.index(fname), alpha)
    if kind == "neg":
        return -_build_diff(node[1], variables, functions, line)
    if kind in ("add", "sub"):
        a = _build_diff(node[1], variables, functions, line)
        b = _build_diff(node[2], variables, functions, line)
        return a + b if kind == "add" else a - b
    if kind == "mul":
        return (_build_diff(node[1], variables, functions, line)
                * _build_diff(node[2], variables, functions, line))
    if kind == "div":
        a = _build_diff(node[1], variables, functions, line)
        b = _build_diff(node[2], variables, functions, line)
        if b.is_zero():
            raise ProblemError("division by zero", line)
        if set(b.terms) != {()}:
            raise ProblemError("division only by numeric constants here", line)
        return a.scale(1 / b.terms[()])
    if kind == "pow":
        return _build_diff(node[1], variables, functions, line) ** node[2]
    raise ProblemError(f"unsupported syntax node {kind!r}", line)


def format_problem(ctx, ranking, equations, completion_scheme=None):
    """Render a system back into the problem-file syntax (round-trippable)."""
    lines = [f"vars: {' '.join(ctx.variables)}",
             f"funcs: {' '.join(ctx.functions)}",
             f"ranking: {ranking.scheme}",
             f"tiebreak: {ranking.tiebreak}"]
    if completion_scheme:
        lines.append(f"completion-ranking: {completion_scheme}")
    for f in equations:
        lines.append(f"eq: {f.format(ranking)}")
    return "\n".join(lines) + "\n"
