"""Exact scalar arithmetic for the engine's coefficient field.

One sparse-polynomial core over Q (a map from monomial key to a nonzero
coefficient, an int when it is integral and a Fraction otherwise, never a
float) whose subclasses supply only their monomials: multivariate polynomials keyed
by exponent tuples here, jet-space polynomials in ``symmetry``.  On top of
them, canonical quotients of multivariate polynomials.  A quotient is kept
reduced (the gcd of numerator and denominator is constant) with the
denominator monic in graded-lex order, so structural equality coincides with
mathematical equality.  Everything is immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import add


class ExactDivisionError(ArithmeticError):
    """Exact polynomial division left a remainder."""


def _grlex_key(e):
    return (sum(e), e)


def exact(c):
    """The exact value of a number: an int when it is integral, else a Fraction."""
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# -- printing of signed sums, shared by every polynomial class -----------------

def power_product(powers):
    """``x^2*y`` from (name, exponent) pairs; zero exponents are skipped."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers if e)


def signed_term(c, body):
    """(negative, text) of the term c*body; magnitude 1 drops the coefficient."""
    mag = abs(c)
    if not body:
        return c < 0, f"{mag}"
    return c < 0, body if mag == 1 else f"{mag}*{body}"


def signed_sum(terms):
    """Join (negative, text) pairs as ``-a + b - c``; "0" when there are none."""
    out = ""
    for negative, text in terms:
        if out:
            out += f" - {text}" if negative else f" + {text}"
        else:
            out = f"-{text}" if negative else text
    return out or "0"


class SparsePolynomial:
    """Sparse polynomial over Q: a map from monomial key to nonzero coefficient.

    The arithmetic lives here once.  A subclass supplies its monomials:
    ``_canon`` (an input key in canonical form), ``_key_mul`` (the product of
    two keys), ``_raw`` (a polynomial of the same ring from a terms dict) and
    ``_one``; ``_check`` may reject operands from another ring.
    """

    __slots__ = ("terms",)

    def _set_terms(self, terms):
        out = {}
        if terms:
            for key, c in terms.items():
                c = exact(c)
                if not c:
                    continue
                key = self._canon(key)
                prev = out.get(key)
                s = c if prev is None else exact(prev + c)
                if s:
                    out[key] = s
                elif prev is not None:
                    del out[key]
        self.terms = out

    def _check(self, other):
        pass

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        self._check(other)
        res = dict(self.terms)
        for k, c in other.terms.items():
            prev = res.get(k)
            if prev is None:
                res[k] = c
            else:
                s = prev + c
                if s:
                    res[k] = s if s.__class__ is int else exact(s)
                else:
                    del res[k]
        return self._raw(res)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        key_mul = self._key_mul
        res = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key_mul(k1, k2)
                prev = res.get(k)
                s = c1 * c2 if prev is None else prev + c1 * c2
                if s:
                    res[k] = s if s.__class__ is int else exact(s)
                else:
                    del res[k]
        return self._raw(res)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent on a polynomial")
        out = self._one()
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def scale(self, c):
        c = exact(c)
        if not c:
            return self._raw({})
        return self._raw({k: exact(cc * c) for k, cc in self.terms.items()})


class MultivarPolynomial(SparsePolynomial):
    """Polynomial in a fixed number of variables with rational coefficients."""

    __slots__ = ("nvars",)

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        self._set_terms(terms)

    def _canon(self, e):
        e = tuple(int(x) for x in e)
        if len(e) != self.nvars or any(x < 0 for x in e):
            raise ValueError(f"bad exponent vector {e!r} for {self.nvars} variables")
        return e

    @staticmethod
    def _key_mul(e1, e2):
        return tuple(map(add, e1, e2))

    def _raw(self, terms):
        p = MultivarPolynomial.__new__(MultivarPolynomial)
        p.nvars = self.nvars
        p.terms = terms
        return p

    def _one(self):
        return self._raw({(0,) * self.nvars: 1})

    def _check(self, other):
        if not isinstance(other, MultivarPolynomial) or other.nvars != self.nvars:
            raise ValueError("mixed polynomial contexts")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    # -- predicates --------------------------------------------------------

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((0,) * self.nvars) == 1

    # -- degrees and leading data ------------------------------------------

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- arithmetic beyond the ring operations ------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultivarPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def mul_term(self, exps, c):
        return self._raw({tuple(a + b for a, b in zip(e, exps)): exact(cc * c)
                          for e, cc in self.terms.items()})

    def partial(self, i):
        res = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                res[tuple(e2)] = exact(c * e[i])
        return self._raw(res)

    # -- division -----------------------------------------------------------

    def divexact(self, other):
        """Exact division by ``other``; raises ExactDivisionError otherwise."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            c = other.constant_value()
            if c.__class__ is not int:
                return self.scale(1 / c)
            # integers stay integers where c divides them
            return self._raw({e: v // c if v.__class__ is int and not v % c
                              else exact(Fraction(v, c)) for e, v in self.terms.items()})
        rem = self
        out = {}
        le_g, lc_g = other.leading()
        while rem.terms:
            le_r, lc_r = rem.leading()
            q = tuple(a - b for a, b in zip(le_r, le_g))
            if any(x < 0 for x in q):
                raise ExactDivisionError("inexact polynomial division")
            c = exact(Fraction(lc_r, lc_g))
            out[q] = exact(out.get(q, 0) + c)
            rem = rem + other.mul_term(q, -c)
        return self._raw({e: c for e, c in out.items() if c})

    # -- printing ------------------------------------------------------------

    def format(self, names):
        return signed_sum(signed_term(self.terms[e], power_product(zip(names, e)))
                          for e in sorted(self.terms, key=_grlex_key, reverse=True))

    def __repr__(self):
        return f"MultivarPolynomial({self.nvars}, {self.format([f'x{i+1}' for i in range(self.nvars)])})"


# -- gcd by the heuristic GCDHEU, accepted after trial division --------------

def _rational_content(polys):
    """The positive rational r for which the p/r have coprime integer coefficients."""
    num, den = 0, 1
    for p in polys:
        for c in p.terms.values():
            num = _int_gcd(num, c.numerator)
            den = _int_lcm(den, c.denominator)
    return Fraction(num, den)


def _rat_normalize(p):
    """Scale to coprime integer coefficients with positive grlex-leading sign."""
    if p.is_zero():
        return p
    factor = 1 / _rational_content([p])
    return p.scale(-factor if p.leading()[1] < 0 else factor)


def _heu_gcd(f, g):
    """A gcd of nonzero f and g over Z[x], the gcd of their contents included.

    GCDHEU (Char, Geddes and Gonnet, JSC 1989): put an integer xi for one
    variable of the primitive parts, take the gcd of the two values by this
    function again (so that no content they share is lost) and read its
    coefficients as balanced base-xi digits.  For xi >= 2*min(|f|, |g|) + 2 in
    the max norm, a primitive candidate that divides both parts is their gcd,
    and for xi large enough one does; until then xi grows by a factor of about
    2.7*xi**(1/4) (sympy's schedule, after Liao and Fateman, ISSAC 1995).
    """
    cf, cg = _int_gcd(*f.terms.values()), _int_gcd(*g.terms.values())
    if f.is_constant() or g.is_constant():
        return f._raw({(0,) * f.nvars: _int_gcd(cf, cg)})
    f = f._raw({e: c // cf for e, c in f.terms.items()})
    g = g._raw({e: c // cg for e, c in g.terms.items()})
    v = next(i for e in f.terms for i, k in enumerate(e) if k)
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 2
    while True:
        a, b = _evaluate(f, v, xi), _evaluate(g, v, xi)
        if a and b:
            h = _digits(_heu_gcd(a, b), v, xi)
            c = _int_gcd(*h.terms.values())
            h = h._raw({e: d // c for e, d in h.terms.items()})
            try:
                f.divexact(h)
                g.divexact(h)
                return h.scale(_int_gcd(cf, cg))
            except ExactDivisionError:
                pass
        xi = xi * isqrt(isqrt(xi)) * 73794 // 27011


def _evaluate(p, v, xi):
    """p with the integer xi put for variable ``v``."""
    out = {}
    for e, c in p.terms.items():
        k = e[:v] + (0,) + e[v + 1:]
        out[k] = out.get(k, 0) + c * xi ** e[v]
    return p._raw({k: c for k, c in out.items() if c})


def _digits(p, v, xi):
    """The polynomial whose coefficient of x_v^i is the i-th balanced base-xi
    digit of the coefficients of p, which is free of x_v."""
    out = {}
    for e, c in p.terms.items():
        i = 0
        while c:
            d = (c + xi // 2) % xi - xi // 2
            if d:
                out[e[:v] + (i,) + e[v + 1:]] = d
            c = (c - d) // xi
            i += 1
    return p._raw(out)


def poly_gcd(f, g):
    """Gcd of two polynomials, normalized to primitive integer coefficients."""
    if f.is_zero():
        return _rat_normalize(g)
    if g.is_zero():
        return _rat_normalize(f)
    if f.is_constant() or g.is_constant():
        return MultivarPolynomial.const(f.nvars, 1)
    if len(f.terms) == 1 or len(g.terms) == 1:  # a monomial's divisors are monomials
        return f._raw({tuple(map(min, zip(*f.terms, *g.terms))): 1})
    return _rat_normalize(_heu_gcd(_rat_normalize(f), _rat_normalize(g)))


def content(polys):
    """The content of nonzero polynomials: the c with positive grlex-leading
    coefficient for which the p/c are coprime polynomials over Z."""
    r = _rational_content(polys)
    g = polys[0]
    if not any(p.is_constant() for p in polys):
        g, *rest = sorted(polys, key=lambda p: (len(p.terms), p.total_degree()))
        for p in rest:
            g = poly_gcd(g, p)
            if g.is_constant():
                break
        else:
            return _rat_normalize(g).scale(r)
    return g._raw({(0,) * g.nvars: exact(r)})


def _monic(num, den):
    """num and den divided by the leading coefficient of den."""
    lc = den.leading()[1]
    if lc == 1:
        return num, den
    c = Fraction(1) / lc
    return num.scale(c), den.scale(c)


class RationalFunction:
    """Reduced quotient of two multivariate polynomials over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MultivarPolynomial.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = MultivarPolynomial.zero(num.nvars), MultivarPolynomial.const(num.nvars, 1)
        elif not (num.is_constant() or den.is_constant()):
            g = poly_gcd(num, den)
            if not g.is_one():
                num, den = num.divexact(g), den.divexact(g)
        self.num, self.den = _monic(num, den)

    @classmethod
    def coprime(cls, num, den):
        """num/den for polynomials whose gcd is constant: no gcd is taken."""
        return cls._raw(*_monic(num, den))

    @classmethod
    def zero(cls, nvars):
        return cls._raw(MultivarPolynomial.zero(nvars), MultivarPolynomial.const(nvars, 1))

    @classmethod
    def one(cls, nvars):
        return cls._raw(MultivarPolynomial.const(nvars, 1), MultivarPolynomial.const(nvars, 1))

    @classmethod
    def const(cls, nvars, value):
        return cls(MultivarPolynomial.const(nvars, value))

    @classmethod
    def variable(cls, nvars, i):
        return cls(MultivarPolynomial.variable(nvars, i))

    @property
    def nvars(self):
        return self.num.nvars

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return self._raw(-self.num, self.den)

    # no fast paths: Q(x) arithmetic serves only parsing and the verification oracles

    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def inverse(self):
        return RationalFunction.one(self.nvars) / self

    def __pow__(self, k):
        # powers of coprime polynomials are coprime, and of a monic one monic
        return self._raw(self.num ** k, self.den ** k)

    def partial(self, i):
        # quotient rule
        return RationalFunction(self.num.partial(i) * self.den - self.num * self.den.partial(i),
                                self.den * self.den)

    @staticmethod
    def _raw(num, den):
        r = RationalFunction.__new__(RationalFunction)
        r.num = num
        r.den = den
        return r

    def format(self, names):
        if self.den.is_one():
            return self.num.format(names)
        ns = self.num.format(names)
        ds = self.den.format(names)
        if " " in ns or ns.startswith("-"):
            ns = f"({ns})"
        if " " in ds or "*" in ds:  # a/x*y would read as (a/x)*y
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"RationalFunction({self.format(names)})"
