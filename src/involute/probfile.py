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
An expression is a Python expression, read with ``ast``, built from decimal
integers, declared names, ``+ - * /``, ``^`` with a nonnegative integer
exponent, parentheses and derivatives: ``D[y,{a,b,c}]`` (multiindex) or
``D[y,x1,x1,x3]`` (repeated differentiation).  A bare function name is the
order-0 derivative.
"""

from __future__ import annotations

import ast
import keyword
import operator
import unicodedata
import warnings
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .diffpoly import SCHEMES, TIEBREAKS, Context, Derivative, LinearDiffPoly, Ranking
from .monomial import MultiIndex
from .scalars import RationalFunction


class ProblemError(Exception):
    def __init__(self, message, line=None, col=None):
        where = "" if col is None else f", column {col}"
        super().__init__(message + ("" if line is None else f" (line {line}{where})"))
        self.line = line
        self.col = col


def parse_expression(text, line=0):
    """The ``ast`` trees of the sides of ``lhs [= rhs]``; ``rhs`` is None without ``=``.

    ``^`` is read as Python's ``**`` and each node gets ``col``, its 1-based
    column in ``text``.  What needs the text is checked here: integers are
    decimal digits, an exponent has no parentheses, and a subscript is
    ``D[f, x, ...]`` or ``D[f, {i, ...}]``.  The walks check the node types.
    """
    if "**" in text:
        raise ProblemError("unexpected token '*'", line, text.index("**") + 2)
    lhs, eq, rhs = text.partition("=")
    return _parse_side(lhs, 0, line), _parse_side(rhs, len(lhs) + 1, line) if eq else None


def _parse_side(text, offset, line):
    stripped = text.lstrip()
    offset += len(text) - len(stripped)
    pieces = ["**" if c == "^" else " " if c.isspace() else c for c in stripped]
    src = "".join(pieces)
    # origin[k]: column in the line of the character holding byte k of src
    origin = [offset + i + 1 for i, p in enumerate(pieces) for _ in p.encode()]
    origin.append(offset + len(stripped) + 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a SyntaxWarning becomes a SyntaxError
            tree = ast.parse(src, mode="eval").body
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte, on Python 3.10
        at = getattr(exc, "offset", None) or len(src) + 1
        col = origin[min(len(src[:at - 1].encode()), len(origin) - 1)]
        raise ProblemError(f"syntax error: {exc.args[0]}", line, col) from None
    raw = src.encode()
    for node in [n for n in ast.walk(tree) if isinstance(n, ast.expr)]:
        node.col = origin[node.col_offset]
        if _is_int(node) and not raw[node.col_offset:node.end_col_offset].isdigit():
            raise ProblemError("syntax error: integers are written in decimal digits",
                               line, node.col)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and not (
                _is_int(node.right) and raw[:node.right.col_offset].rstrip().endswith(b"**")):
            raise ProblemError("exponent must be a nonnegative integer", line,
                               origin[node.right.col_offset])
        if isinstance(node, ast.Subscript) and not _is_derivative(node, raw):
            raise ProblemError("syntax error: expected D[f, x, ...] or D[f, {i, ...}]",
                               line, node.col)
    while isinstance(tree, ast.UnaryOp) and isinstance(tree.op, ast.UAdd):
        tree = tree.operand  # a leading + is dropped: +D[y,x] is a bare derivative
    return tree


def _is_int(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _is_derivative(node, raw):
    """Whether ``node`` is D[f, x, ...] or D[f, {i, ...}] with no other brackets."""
    args = node.slice.elts if isinstance(node.slice, ast.Tuple) else ()
    if not (isinstance(node.value, ast.Name) and node.value.id == "D" and len(args) > 1
            and _punctuated(raw, node.value.end_col_offset, args, node.end_col_offset, "[]")):
        return False
    if len(args) == 2 and isinstance(args[1], ast.Set):
        entries = args[1].elts
        return (isinstance(args[0], ast.Name) and all(map(_is_int, entries))
                and _punctuated(raw, args[1].col_offset, entries, args[1].end_col_offset, "{}"))
    return all(isinstance(a, ast.Name) for a in args)


def _punctuated(raw, start, nodes, end, brackets):
    """Whether raw[start:end] is the nodes, comma-separated inside ``brackets``."""
    bounds = [start] + [b for n in nodes for b in (n.col_offset, n.end_col_offset)] + [end]
    gaps = [b"".join(raw[a:b].split()).decode() for a, b in zip(bounds[::2], bounds[1::2])]
    return gaps == [brackets[0]] + [","] * (len(nodes) - 1) + [brackets[1]]


class ProblemFile(NamedTuple):
    variables: tuple
    functions: tuple
    scheme: str = "grlex"
    tiebreak: str = "term"
    detvars: tuple = ()
    equations: tuple = ()  # (lhs, rhs or None, line) from parse_expression

    def context(self):
        return Context(self.variables, self.functions)

    def ranking(self):
        return Ranking(self.scheme, self.tiebreak)

    def monomials(self):
        """The multiindices of equations that are bare derivatives of one function."""
        out, first = [], None
        for lhs, rhs, line in self.equations:
            if rhs is not None or not (isinstance(lhs, ast.Subscript) or isinstance(
                    lhs, ast.Name) and lhs.id not in self.variables):
                raise ProblemError("expected a bare derivative", line)
            fn, alpha = _derivative(lhs, self.variables, self.functions, line)
            first = first or fn.id
            if fn.id != first:
                raise ProblemError(f"second function {fn.id!r} in a monomial set", line, fn.col)
            out.append(alpha)
        return out

    def linear_system(self):
        domain = _LinearDomain(self.context())
        out = []
        for lhs, rhs, line in self.equations:
            f = _evaluate(lhs, domain, self.variables, self.functions, line)
            if rhs is not None:
                f = f - _evaluate(rhs, domain, self.variables, self.functions, line)
            if f.is_zero():
                raise ProblemError("equation reduces to 0 = 0", line)
            out.append(f)
        return out

    def symmetry_problem(self):
        from .symmetry import SolvedEquation, SymmetryProblem
        jets = _JetDomain(len(self.variables), len(self.functions))
        eqs = []
        for lhs, rhs, line in self.equations:
            if rhs is None:
                raise ProblemError("symmetry input needs solved equations "
                                   "(solve: D[...] = rhs)", line)
            if not isinstance(lhs, ast.Subscript):
                raise ProblemError("left side must be a single derivative", line)
            fn = lhs.slice.elts[0]
            alpha = _deriv_index(lhs, self.variables, line)
            if fn.id not in self.functions:
                raise ProblemError(f"unknown function {fn.id!r}", line, fn.col)
            lead = (self.functions.index(fn.id), alpha)
            rhs = _evaluate(rhs, jets, self.variables, self.functions, line)
            try:
                eqs.append(SolvedEquation(lead, rhs))
            except ValueError as exc:
                raise ProblemError(str(exc), line) from exc
        det_order = tuple(("y", self.functions.index(name)) if name in self.functions
                          else ("x", self.variables.index(name))
                          for name in self.detvars) or None
        return SymmetryProblem(self.variables, self.functions, tuple(eqs), det_order)


_CHOICES = {"ranking": ("scheme", SCHEMES), "tiebreak": ("tiebreak", TIEBREAKS)}


def parse_problem(text):
    declared, settings, equations = {}, {}, []  # declared: key -> (names, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key in declared or key in _CHOICES and _CHOICES[key][0] in settings:
            raise ProblemError(f"repeated key {key!r}", lineno)
        if key in ("vars", "funcs", "detvars"):
            declared[key] = _names(value, lineno), lineno
        elif key in _CHOICES:
            field, choices = _CHOICES[key]
            if value not in choices:
                raise ProblemError(f"unknown {key} {value!r}", lineno)
            settings[field] = value
        elif key in ("eq", "solve"):
            equations.append((*parse_expression(value, lineno), lineno))
        else:
            raise ProblemError(f"unknown key {key!r}", lineno)
    (variables, _), (functions, _), (detvars, detvars_line) = (
        declared.get(key, ((), None)) for key in ("vars", "funcs", "detvars"))
    if not variables:
        raise ProblemError("missing 'vars:' declaration")
    if not functions:
        raise ProblemError("missing 'funcs:' declaration")
    names = variables + functions
    if len(set(names)) != len(names):
        raise ProblemError("variable and function names must be unique")
    if not equations:
        raise ProblemError("no equations")
    for name in detvars:
        if name not in names:
            raise ProblemError(f"unknown name {name!r} in detvars", detvars_line)
    return ProblemFile(variables, functions, detvars=detvars, equations=tuple(equations),
                       **settings)


def _names(value, line):
    """The names of a ``vars:``, ``funcs:`` or ``detvars:`` line: identifiers, no keywords."""
    names = tuple(value.split())
    for name in names:
        if not name.isidentifier() or keyword.iskeyword(name):
            raise ProblemError(f"invalid name {name!r}", line)
        normal = unicodedata.normalize("NFKC", name)  # the name as ast reads it
        if normal != name:
            raise ProblemError(f"name {name!r} reads as {normal!r} in expressions", line)
    return names


def _derivative(node, variables, functions, line):
    """The function's name node and the multiindex of a derivative: a bare
    function name (order 0) or ``D[f, ...]``."""
    fn = node if isinstance(node, ast.Name) else node.slice.elts[0]
    if fn.id not in functions:
        what = "identifier" if fn is node else "function"
        raise ProblemError(f"unknown {what} {fn.id!r}", line, fn.col)
    if fn is node:
        return fn, MultiIndex.unit(len(variables))
    return fn, _deriv_index(node, variables, line)


def _deriv_index(node, variables, line):
    """The multiindex of a derivative ``D[f, ...]``; errors point at ``f``."""
    fn, *spec = node.slice.elts
    n = len(variables)
    if isinstance(spec[0], ast.Set):
        entries = [e.value for e in spec[0].elts]
        if len(entries) != n:
            raise ProblemError(f"multiindex of length {len(entries)} in a "
                               f"{n}-variable problem", line, fn.col)
        return MultiIndex(entries)
    alpha = [0] * n
    for v in spec:
        if v.id not in variables:
            raise ProblemError(f"unknown variable {v.id!r} in derivative", line, fn.col)
        alpha[variables.index(v.id)] += 1
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
        from .symmetry import DiffPolynomial
        self.number = partial(DiffPolynomial.const, n, m)
        self.variable = partial(DiffPolynomial.var, n, m)
        self.derivative = partial(DiffPolynomial.deriv, n, m)

    def div(self, a, b):
        if b.is_zero():
            raise ZeroDivisionError("division by zero")
        if set(b.terms) != {()}:
            raise ValueError("division only by numeric constants here")
        return a.scale(Fraction(1) / b.terms[()])


_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def _evaluate(node, domain, variables, functions, line):
    """The value in ``domain`` of a tree from ``parse_expression``.

    The walk resolves names, rejects the nodes the language lacks and puts the
    line, and the column where the error has one, on every error; ``domain``
    builds the leaves and applies ``* / ^`` as its methods ``mul``, ``div``, ``pow``.
    """
    spine = []  # a left-deep chain of binary operators, walked without recursion
    while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        spine.append(node)
        node = node.left
    value = _leaf(node, domain, variables, functions, line)
    for node in reversed(spine):
        kind = _BINARY[type(node.op)]
        b = node.right.value if kind == "pow" else _evaluate(
            node.right, domain, variables, functions, line)
        try:
            value = (value + b if kind == "add" else value - b if kind == "sub"
                     else getattr(domain, kind)(value, b))
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemError(str(exc), line) from exc
    return value


def _leaf(node, domain, variables, functions, line):
    """The value of a node that is not a binary operator of the language."""
    if _is_int(node):
        return domain.number(node.value)
    if isinstance(node, ast.Name) and node.id in variables:
        return domain.variable(variables.index(node.id))
    if isinstance(node, (ast.Name, ast.Subscript)):
        fn, alpha = _derivative(node, variables, functions, line)
        return domain.derivative(functions.index(fn.id), alpha)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        negate = False  # a chain of signs, counted without recursion
        while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            negate ^= isinstance(node.op, ast.USub)
            node = node.operand
        a = _evaluate(node, domain, variables, functions, line)
        return -a if negate else a
    raise ProblemError("syntax error: unexpected "
                       f"{ast.unparse(node).replace('**', '^')!r}", line, node.col)
