"""Solution-structure analysis of an involutive basis.

Decomposes the parametric derivatives into disjoint cones, derives
well-posed initial data from that decomposition, and evaluates the Hilbert
function and Hilbert polynomial of the differential ideal.  All of it
requires an orderly main ranking, which is what ties counting by order to
the leading-monomial data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .monomial import complementary_decomposition
from .diffpoly import Derivative
from .scalars import MultivarPolynomial


def _comb(a, b):
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def _require_orderly(basis):
    if not basis.options.main.is_orderly:
        raise ValueError("an orderly main ranking is required")


def complementary_set(basis):
    """Per-function decomposition of the parametric derivatives."""
    sets = basis.monomial_sets()
    n = basis.elements[0].ctx.n
    kind = basis.options.division
    return {j: complementary_decomposition(sets.get(j, ()), kind, n=n)
            for j in range(basis.elements[0].ctx.m)}


class IVPEntry(NamedTuple):
    indet: int
    derivative: Derivative
    multipliers: frozenset
    fixed: frozenset
    kind: str  # 'function' or 'constant'


class IVPSpec(NamedTuple):
    entries: tuple

    def format(self, ctx):
        lines = []
        nfun = 0
        ncon = 0
        for e in self.entries:
            pin = ", ".join(f"{ctx.variables[i]}={ctx.variables[i]}°"
                            for i in sorted(e.fixed))
            head = e.derivative.format(ctx)
            if e.kind == "function":
                nfun += 1
                args = ", ".join(ctx.variables[i] for i in sorted(e.multipliers))
                rhs = f"f{nfun}({args})   (arbitrary function)"
            else:
                ncon += 1
                rhs = f"c{ncon}   (arbitrary constant)"
            lines.append(f"{head} | {pin} = {rhs}")
        return "\n".join(lines)


def ivp_spec(basis):
    """Initial data making the solution unique: one entry per generator.

    Each generator of the complementary set becomes an arbitrary function of
    its multipliers, restricted to the initial point in the remaining
    coordinates; generators without multipliers become arbitrary constants.
    """
    _require_orderly(basis)
    ctx = basis.elements[0].ctx
    decs = complementary_set(basis)
    allv = frozenset(range(ctx.n))
    entries = []
    for j in sorted(decs):
        for v, mult in decs[j].entries():
            kind = "function" if mult else "constant"
            entries.append(IVPEntry(j, Derivative(j, v), frozenset(mult),
                                    allv - frozenset(mult), kind))
    return IVPSpec(tuple(entries))


def _mu_data(basis):
    """(function, degree, multiplier count) per basis element."""
    return [(d.indet, d.index.degree, sep.mu) for d, sep in zip(basis.leaders, basis.separations)]


class HilbertData(NamedTuple):
    """Hilbert function and polynomial of the differential ideal."""

    n: int
    m: int
    mus: tuple
    hp: tuple  # polynomial in s, ascending coefficients
    stabilization: int

    def hf(self, s):
        """Number of parametric derivatives of order <= s."""
        if s < 0:
            return 0
        total = self.m * _comb(self.n + s, s)
        principal = sum(_comb(s - deg + mu, mu) for _, deg, mu in self.mus)
        return total - principal

    def hp_eval(self, s):
        acc = Fraction(0)
        for c in reversed(self.hp):
            acc = acc * s + c
        return acc

    def hp_format(self, var="s"):
        return MultivarPolynomial(1, {(k,): c for k, c in enumerate(self.hp)}).format([var])


def _binomial_poly(shift, k):
    """C(s + shift, k) as a polynomial in s: a product of k linear factors."""
    out = MultivarPolynomial.const(1, Fraction(1, math.factorial(k)))
    for i in range(k):
        out = out * MultivarPolynomial(1, {(1,): 1, (0,): shift - i})
    return out


def _ascending(p):
    """Coefficients of a polynomial in s, constant term first."""
    return tuple(p.terms.get((k,), Fraction(0)) for k in range(p.total_degree() + 1))


def hilbert_data(basis):
    _require_orderly(basis)
    ctx = basis.elements[0].ctx
    mus = tuple(_mu_data(basis))
    poly = _binomial_poly(ctx.n, ctx.n).scale(ctx.m)
    for _, deg, mu in mus:
        poly = poly - _binomial_poly(mu - deg, mu)
    hp = _ascending(poly)
    data = HilbertData(ctx.n, ctx.m, mus, hp, 0)
    bound = max((deg for _, deg, _ in mus), default=0) + ctx.n
    stab = bound
    for s in range(bound, -1, -1):
        if data.hf(s) == data.hp_eval(s):
            stab = s
        else:
            break
    return HilbertData(ctx.n, ctx.m, mus, hp, stab)


class SolutionDimension(NamedTuple):
    finite: bool
    value: int
    decompositions: dict

    def __repr__(self):
        return f"SolutionDimension({self.value if self.finite else 'infinite'})"


def solution_dimension(basis):
    """Size of the solution space: |W| when finite, else the generator table."""
    data = hilbert_data(basis)
    decs = complementary_set(basis)
    if len(data.hp) == 1:
        value = data.hp[0]
        if value.denominator != 1:
            raise AssertionError("constant Hilbert polynomial is not integral")
        return SolutionDimension(True, int(value), decs)
    return SolutionDimension(False, -1, decs)
