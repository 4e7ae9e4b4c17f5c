"""Derivatives, rankings and linear differential polynomials.

A linear differential polynomial is a finite sum  c0 + sum c_k * D_k  where
the c's are rational functions of the independent variables (polynomials, in
the fraction-free completion loop) and each D_k is a derivative of one of the
dependent functions (order 0 included).  ``cleared`` and ``over`` are the one
passage between the two: the first multiplies the denominators out, the second
divides polynomial coefficients by a polynomial into reduced quotients, and
``normalize`` is the first followed by the second.  Rankings are total orders on
derivatives compatible with differentiation; they are realized as sort keys,
so the maximum key picks the leading derivative.
"""

from __future__ import annotations

from operator import neg
from typing import NamedTuple

from .monomial import MultiIndex
from .scalars import RationalFunction, poly_gcd, signed_sum


class Context(NamedTuple("Context", [("variables", tuple), ("functions", tuple)])):
    """Naming and dimensions shared by the polynomials of one system."""

    __slots__ = ()

    def __new__(cls, variables, functions):
        names = list(variables) + list(functions)
        if len(set(names)) != len(names):
            raise ValueError("variable and function names must be unique")
        return super().__new__(cls, variables, functions)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: keep the checks of __new__
        return cls(*fields)

    @property
    def n(self):
        return len(self.variables)

    @property
    def m(self):
        return len(self.functions)


class Derivative(NamedTuple):
    """A derivative of the ``indet``-th dependent function."""

    indet: int
    index: MultiIndex

    def differentiate(self, i):
        return Derivative(self.indet, self.index.prolongation(i))

    def lcm(self, other):
        if self.indet != other.indet:
            raise ValueError("lcm of derivatives of different functions is undefined")
        return Derivative(self.indet, self.index.lcm(other.index))

    def format(self, ctx):
        name = ctx.functions[self.indet]
        if self.index.is_one():
            return name
        return f"D[{name},{{{','.join(str(e) for e in self.index)}}}]"


SCHEMES = ("lex", "grlex", "degrevlex")  # names of the multiindex orders
ORDERLY_SCHEMES = ("grlex", "degrevlex")
TIEBREAKS = ("term", "indet")


class Ranking(NamedTuple("Ranking", [("scheme", str), ("tiebreak", str)])):
    """Total order on derivatives, encoded as a sort key.

    ``scheme`` orders the multiindices (grlex and degrevlex are orderly);
    ``tiebreak`` decides whether the function priority is consulted before or
    after the multiindex comparison ('indet' or 'term').  Variables and
    functions rank in the order of the context, first = highest.
    """

    __slots__ = ()

    def __new__(cls, scheme="grlex", tiebreak="term"):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown ranking scheme {scheme!r}")
        if tiebreak not in TIEBREAKS:
            raise ValueError(f"unknown tiebreak {tiebreak!r}")
        return super().__new__(cls, scheme, tiebreak)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: keep the checks of __new__
        return cls(*fields)

    @property
    def is_orderly(self):
        return self.scheme in ORDERLY_SCHEMES

    def key(self, d):
        """Sort key; bigger key means higher-ranked derivative."""
        index = d.index
        term = tuple(map(neg, reversed(index))) if self.scheme == "degrevlex" else index
        tie = (term, -d.indet) if self.tiebreak == "term" else (-d.indet, term)
        return (sum(index),) + tie if self.scheme in ORDERLY_SCHEMES else tie

    def describe(self):
        return f"{self.scheme}, tiebreak={self.tiebreak}"


class LinearDiffPoly:
    """Linear differential polynomial; coefficients are RationalFunction or MultivarPolynomial."""

    __slots__ = ("ctx", "const", "terms")

    def __init__(self, ctx, terms=None, const=None):
        self.ctx = ctx
        self.const = const if const is not None else RationalFunction.zero(ctx.n)
        out = {}
        if terms:
            for d, c in terms.items():
                if c.is_zero():
                    continue
                if len(d.index) != ctx.n or not 0 <= d.indet < ctx.m:
                    raise ValueError(f"derivative {d!r} outside context")
                out[d] = c
        self.terms = out

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def from_derivative(cls, ctx, d):
        return cls(ctx, {d: RationalFunction.one(ctx.n)})

    def is_zero(self):
        return not self.terms and self.const.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (isinstance(other, LinearDiffPoly) and self.ctx == other.ctx
                and self.const == other.const and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, self.const, frozenset(self.terms.items())))

    def __neg__(self):
        return LinearDiffPoly(self.ctx, {d: -c for d, c in self.terms.items()}, -self.const)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            s = terms.get(d)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(d, None)
            else:
                terms[d] = s
        return self._raw(terms, self.const + other.const)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c.is_zero():
            return LinearDiffPoly.zero(self.ctx)
        return self._raw({d: cc * c for d, cc in self.terms.items()}, self.const * c)

    def differentiate(self, i):
        """Apply d/dx_i: product rule on each coefficient-times-derivative term."""
        terms = {}

        def acc(d, c):
            if c.is_zero():
                return
            s = terms.get(d)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(d, None)
            else:
                terms[d] = s

        for d, c in self.terms.items():
            acc(d, c.partial(i))
            acc(d.differentiate(i), c)
        return self._raw(terms, self.const.partial(i))

    def prolong(self, beta):
        out = self
        for i, e in enumerate(beta):
            for _ in range(e):
                out = out.differentiate(i)
        return out

    def ld(self, ranking):
        """Leading derivative under the ranking."""
        if not self.terms:
            raise ValueError("zero or constant polynomial has no leading derivative")
        return max(self.terms, key=ranking.key)

    def normalize(self, ranking):
        """Divide through by the leading coefficient."""
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if not self.terms:
            raise ValueError("cannot normalize a constant polynomial by a leading term")
        h = self.cleared()[1]
        return h.over(h.terms[self.ld(ranking)])

    def cleared(self):
        """(L, L*self) for the lcm L of the denominators of the Q(x) coefficients:
        L*self has polynomial coefficients."""
        lcm = self.const.den  # 1 or the denominator of a nonzero constant
        for c in self.terms.values():
            if not c.den.is_one() and c.den != lcm:
                lcm = c.den if lcm.is_one() else lcm * c.den.divexact(poly_gcd(lcm, c.den))

        def clear(c):
            return c.num if c.den == lcm else c.num * lcm.divexact(c.den)

        return lcm, self._raw({d: clear(c) for d, c in self.terms.items()}, clear(self.const))

    def over(self, m):
        """self / m, for polynomial coefficients and a nonzero polynomial m, with
        reduced Q(x) coefficients.  A coefficient equal to m gives 1 and a
        constant m divides every coefficient without a gcd."""
        one, constant = RationalFunction.one(m.nvars), m.is_constant()

        def quotient(c):
            if c == m:
                return one
            return RationalFunction.coprime(c, m) if constant else RationalFunction(c, m)

        return self._raw({d: quotient(c) for d, c in self.terms.items()}, quotient(self.const))

    def sorted_terms(self, ranking):
        return sorted(self.terms.items(), key=lambda item: ranking.key(item[0]), reverse=True)

    def _raw(self, terms, const):
        p = LinearDiffPoly.__new__(LinearDiffPoly)
        p.ctx = self.ctx
        p.const = const
        p.terms = terms
        return p

    def _check(self, other):
        if not isinstance(other, LinearDiffPoly) or other.ctx != self.ctx:
            raise ValueError("mixed contexts")

    def format(self, ranking=None):
        ranking = ranking or Ranking()
        names = self.ctx.variables
        terms = [(c, d.format(self.ctx)) for d, c in self.sorted_terms(ranking)]
        if not self.const.is_zero():
            terms.append((self.const, ""))
        pieces = []
        for c, ds in terms:
            # a coefficient's own leading minus becomes the term's sign
            cs = c.format(names)
            neg = cs.startswith("-") and " " not in cs
            if neg:
                cs = cs[1:]
            if " " in cs:
                cs = f"({cs})"
            pieces.append((neg, cs if not ds else ds if cs == "1" else f"{cs}*{ds}"))
        return signed_sum(pieces)

    def __repr__(self):
        return f"LinearDiffPoly({self.format()})"
