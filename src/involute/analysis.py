"""Solution-structure analysis of an involutive basis.

Decomposes the parametric derivatives into disjoint cones, derives
well-posed initial data from that decomposition, and evaluates the Hilbert
function and Hilbert polynomial of the differential ideal.  All of it
requires an orderly main ranking, which is what ties counting by order to
the leading-monomial data.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .monomial import complementary_decomposition
from .diffpoly import Derivative
from .scalars import MultivarPolynomial


def _comb(a, b):
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def require_orderly(ranking):
    """Raise unless the main ranking is orderly; checked before completing."""
    if not ranking.is_orderly:
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
    dimension: SolutionDimension  # whose decompositions the entries come from

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
            lines.append(f"{head} | {pin} = {rhs}" if pin else f"{head} = {rhs}")
        return "\n".join(lines)


def ivp_spec(basis):
    """Initial data making the solution unique: one entry per generator.

    Each generator of the complementary set becomes an arbitrary function of
    its multipliers, restricted to the initial point in the remaining
    coordinates; generators without multipliers become arbitrary constants.
    """
    dim = solution_dimension(basis)
    ctx, decs = basis.elements[0].ctx, dim.decompositions
    allv = frozenset(range(ctx.n))
    entries = []
    for j in sorted(decs):
        for v, mult in decs[j].entries():
            kind = "function" if mult else "constant"
            entries.append(IVPEntry(j, Derivative(j, v), frozenset(mult),
                                    allv - frozenset(mult), kind))
    return IVPSpec(tuple(entries), dim)


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

    def hp_format(self):
        return MultivarPolynomial(1, {(k,): c for k, c in enumerate(self.hp)}).format(["s"])


def _binomial_poly(shift, k):
    """C(s + shift, k) as a polynomial in s: a product of k linear factors."""
    coeffs = [1]  # of the product so far over Z, constant term first
    for i in range(k):
        coeffs = [a * (shift - i) + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return MultivarPolynomial(1, {(d,): Fraction(c, math.factorial(k))
                                  for d, c in enumerate(coeffs)})


def _ascending(p):
    """Coefficients of a polynomial in s, constant term first."""
    return tuple(p.terms.get((k,), Fraction(0)) for k in range(p.total_degree() + 1))


def hilbert_data(basis):
    require_orderly(basis.options.main)
    ctx = basis.elements[0].ctx
    # (function, degree, multiplier count) per basis element
    mus = tuple((d.indet, d.index.degree, len(sep.multiplicative))
                for d, sep in zip(basis.leaders, basis.separations))
    poly = _binomial_poly(ctx.n, ctx.n).scale(ctx.m)
    for (deg, mu), size in Counter((deg, mu) for _, deg, mu in mus).items():
        poly = poly - _binomial_poly(mu - deg, mu).scale(size)
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
    """Size of the solution space: the number of cones when none has
    multipliers (every parametric derivative is a constant), else infinite."""
    require_orderly(basis.options.main)
    decs = complementary_set(basis)
    cones = [mult for dec in decs.values() for _, mult in dec.entries()]
    if any(cones):
        return SolutionDimension(False, -1, decs)
    return SolutionDimension(True, len(cones), decs)
