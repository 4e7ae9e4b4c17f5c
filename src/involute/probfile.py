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

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

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
            self.next()
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
        domain = _LinearDomain(self.context())
        out = []
        for eq in self.equations:
            lhs = _evaluate(eq.lhs, domain, self.variables, self.functions, eq.line)
            if eq.rhs is not None:
                lhs = lhs - _evaluate(eq.rhs, domain, self.variables, self.functions, eq.line)
            if lhs.is_zero():
                raise ProblemError("equation reduces to 0 = 0", eq.line)
            out.append(lhs)
        return out

    def symmetry_problem(self):
        jets = _JetDomain(len(self.variables), len(self.functions))
        eqs = []
        for eq in self.equations:
            if eq.rhs is None:
                raise ProblemError("symmetry input needs solved equations "
                                   "(solve: D[...] = rhs)", eq.line)
            if eq.lhs[0] != "deriv":
                raise ProblemError("left side must be a single derivative", eq.line)
            alpha = _deriv_index(eq.lhs, self.variables, eq.line)
            if eq.lhs[1] not in self.functions:
                raise ProblemError(f"unknown function {eq.lhs[1]!r}", eq.line)
            lead = (self.functions.index(eq.lhs[1]), alpha)
            rhs = _evaluate(eq.rhs, jets, self.variables, self.functions, eq.line)
            try:
                eqs.append(SolvedEquation(lead, rhs))
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


class _LinearDomain:
    """Linear differential polynomials: derivatives are never multiplied."""

    def __init__(self, ctx):
        self.ctx = ctx

    def number(self, c):
        return LinearDiffPoly(self.ctx, const=RationalFunction.const(self.ctx.n, c))

    def variable(self, i):
        return LinearDiffPoly(self.ctx, const=RationalFunction.variable(self.ctx.n, i))

    def derivative(self, j, alpha):
        return LinearDiffPoly.from_derivative(self.ctx, Derivative(j, alpha))

    def mul(self, a, b):
        if a.terms and b.terms:
            raise ValueError("product of two derivative expressions is not linear")
        return b.scale(a.const) if b.terms else a.scale(b.const)

    def div(self, a, b):
        if b.terms:
            raise ValueError("division by a derivative expression")
        if b.const.is_zero():
            raise ZeroDivisionError("division by zero")
        return a.scale(b.const.inverse())

    def pow(self, a, k):
        if a.terms and k != 1:
            raise ValueError("power of a derivative expression is not linear")
        return a if k == 1 else LinearDiffPoly(self.ctx, const=a.const ** k)


class _JetDomain:
    """Polynomials in variables, functions and derivatives; division by numbers only."""

    mul = staticmethod(operator.mul)
    pow = staticmethod(operator.pow)

    def __init__(self, n, m):
        self.number = partial(DiffPolynomial.const, n, m)
        self.variable = partial(DiffPolynomial.var, n, m)
        self.derivative = partial(DiffPolynomial.deriv, n, m)

    def div(self, a, b):
        if b.is_zero():
            raise ZeroDivisionError("division by zero")
        if set(b.terms) != {()}:
            raise ValueError("division only by numeric constants here")
        return a.scale(1 / b.terms[()])


def _evaluate(node, domain, variables, functions, line):
    """The value in ``domain`` of a tree from ``parse_expression``.

    The walk resolves names and puts the line, and the column where the tree
    keeps one, on every error; ``domain`` builds the leaves and applies
    ``* / ^`` as its methods ``mul``, ``div`` and ``pow``.
    """
    kind = node[0]
    if kind == "num":
        return domain.number(node[1])
    if kind == "name" and node[1] in variables:
        return domain.variable(variables.index(node[1]))
    if kind in ("name", "deriv"):
        if node[1] not in functions:
            what = "identifier" if kind == "name" else "function"
            raise ProblemError(f"unknown {what} {node[1]!r}", line, node[-1])
        alpha = (_deriv_index(node, variables, line) if kind == "deriv"
                 else MultiIndex.unit(len(variables)))
        return domain.derivative(functions.index(node[1]), alpha)
    a = _evaluate(node[1], domain, variables, functions, line)
    if kind == "neg":
        return -a
    b = node[2] if kind == "pow" else _evaluate(node[2], domain, variables, functions, line)
    if kind in ("add", "sub"):
        return a + b if kind == "add" else a - b
    try:
        return getattr(domain, kind)(a, b)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(str(exc), line) from exc


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
