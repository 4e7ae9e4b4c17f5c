import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

try:
    import sympy
except ImportError:  # sympy is a test-only oracle
    sympy = None

from involute.scalars import (ExactDivisionError, MultivarPolynomial, RationalFunction, content,
                              exact, poly_gcd)

OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


def P(nvars, terms):
    return MultivarPolynomial(nvars, terms)


def var(n, i):
    return RationalFunction.variable(n, i)


def const(n, c):
    return RationalFunction.const(n, c)


class TestRationalArithmetic:
    def test_gcd_cancellation(self):
        # (2t)/(2t^2) normalizes to 1/t
        t = MultivarPolynomial.variable(1, 0)
        r = RationalFunction(t.scale(2), (t * t).scale(2))
        assert r == RationalFunction(MultivarPolynomial.const(1, 1), t)

    def test_add_to_one(self):
        # 1/t + (t-1)/t = 1
        t = MultivarPolynomial.variable(1, 0)
        one = MultivarPolynomial.const(1, 1)
        a = RationalFunction(one, t)
        b = RationalFunction(t - one, t)
        assert a + b == RationalFunction.one(1)

    def test_difference_of_squares(self):
        x, y = var(2, 0), var(2, 1)
        lhs = (x + y) * (x - y)
        assert lhs == x * x - y * y

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            const(1, 1) / RationalFunction.zero(1)

    def test_denominator_monic(self):
        # 1/(2t) stores denominator with leading coefficient 1
        t = MultivarPolynomial.variable(1, 0)
        r = RationalFunction(MultivarPolynomial.const(1, 1), t.scale(2))
        assert r.den.leading()[1] == 1
        assert r == const(1, Fraction(1, 2)) / RationalFunction(t)


class TestPower:
    def test_matches_the_repeated_product(self):
        x = var(2, 0)
        r = x / (x + const(2, 1))
        acc = const(2, 1)
        for k in range(6):
            got = r ** k
            assert (got.num, got.den) == (acc.num, acc.den)
            acc = acc * r

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            var(1, 0) ** -1


class TestPartialDerivative:
    def test_quotient_rule(self):
        t = RationalFunction(MultivarPolynomial.variable(1, 0))
        r = RationalFunction.one(1) / t
        expect = -(RationalFunction.one(1) / (t * t))
        assert r.partial(0) == expect

    def test_variable(self):
        assert var(2, 1).partial(1) == const(2, 1)

    def test_unrelated_variable(self):
        y3 = var(2, 1) * var(2, 1) * var(2, 1)
        assert y3.partial(0).is_zero()


def random_poly(rng, nvars, maxdeg=2, maxterms=3):
    terms = {}
    for _ in range(rng.randint(0, maxterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return MultivarPolynomial(nvars, terms)


def random_rational(rng, nvars):
    num = random_poly(rng, nvars)
    den = random_poly(rng, nvars)
    while den.is_zero():
        den = random_poly(rng, nvars)
    return RationalFunction(num, den)


class TestFieldProperties:
    def test_field_axioms_spotcheck(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_rational(rng, 2)
            b = random_rational(rng, 2)
            c = random_rational(rng, 2)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == RationalFunction.zero(2)
            if not a.is_zero():
                assert a * a.inverse() == RationalFunction.one(2)

    def test_leibniz_rule(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_rational(rng, 2)
            b = random_rational(rng, 2)
            i = rng.randint(0, 1)
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)

    def test_partials_commute(self):
        rng = random.Random(13)
        for _ in range(30):
            a = random_rational(rng, 3)
            assert a.partial(0).partial(1) == a.partial(1).partial(0)

    def test_canonical_uniqueness(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_rational(rng, 2)
            b = random_rational(rng, 2)
            assert ((a - b).is_zero()) == (a == b)


class TestGcd:
    def test_common_factor_detected(self):
        rng = random.Random(19)
        for _ in range(25):
            f = random_poly(rng, 2)
            g = random_poly(rng, 2)
            h = random_poly(rng, 2)
            if h.is_zero() or f.is_zero() or g.is_zero():
                continue
            d = poly_gcd(f * h, g * h)
            d.divexact(h)  # h divides the gcd; raises otherwise
            (f * h).divexact(d)
            (g * h).divexact(d)

    def test_divexact_failure(self):
        x, y = MultivarPolynomial.variable(2, 0), MultivarPolynomial.variable(2, 1)
        with pytest.raises(ExactDivisionError):
            (x * x + y).divexact(x + y)

    def test_zero_operands(self):
        f = P(2, {(1, 0): Fraction(-2, 3), (0, 1): 4})
        zero = P(2, {})
        assert poly_gcd(f, zero) == poly_gcd(zero, f) == P(2, {(1, 0): 1, (0, 1): -6})
        assert poly_gcd(zero, zero) == zero

    def test_content_of_a_list_holding_a_constant(self):
        f = P(2, {(1, 0): Fraction(2, 3), (0, 0): Fraction(2, 3)})
        assert content([f, P(2, {(0, 0): 4})]) == P(2, {(0, 0): Fraction(2, 3)})

    # at the first xi, 4, x + 5 and x^2 - 1 share the factor 3 of their
    # values, read back as x - 1, and x - 4 vanishes: both take a larger xi
    @pytest.mark.parametrize("f, g", [({(1,): 1, (0,): 5}, {(2,): 1, (0,): -1}),
                                      ({(1,): 1, (0,): -4}, {(1,): 1, (0,): 1})])
    def test_unlucky_xi_is_passed_over(self, f, g):
        assert poly_gcd(P(1, f), P(1, g)) == P(1, {(0,): 1})


# -- results against the unreduced quotient ----------------------------------

DEN_CASES = ("both one", "one one", "equal", "coprime", "shared factor")


@st.composite
def polys(draw, nvars, nonconstant=False, size=2):
    # small on purpose, so that the examples are many and quick
    exps = st.tuples(*[st.integers(0, 1)] * nvars)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=size))
    if nonconstant and not any(any(e) for e in terms):
        terms[tuple(draw(st.integers(0, 1)) for _ in range(nvars - 1)) + (1,)] = Fraction(1)
    return MultivarPolynomial(nvars, terms)


@st.composite
def operand_pairs(draw):
    """Two reduced quotients whose denominators fall in one of DEN_CASES."""
    nvars = draw(st.integers(2, 3))
    case = draw(st.sampled_from(DEN_CASES))
    one = MultivarPolynomial.const(nvars, 1)
    b, d = (draw(polys(nvars, nonconstant=True)) for _ in range(2))
    if case == "both one":
        b = d = one
    elif case == "one one":
        b, d = draw(st.permutations([one, b]))
    elif case == "equal":
        d = b
    elif case == "coprime":
        assume(poly_gcd(b, d).is_one())
    else:
        f = draw(polys(nvars, nonconstant=True))
        b, d = f * b, f * draw(polys(nvars))
    return (RationalFunction(draw(polys(nvars)), b),
            RationalFunction(draw(polys(nvars)), d))


def sympy_converter(sympy):
    names = sympy.symbols("x1:5")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*[v ** k for v, k in zip(names, e)])
                   for e, c in p.terms.items())

    return to_sympy


def unreduced(a, b, op):
    """(numerator, denominator) of ``a op b`` as polynomial products, uncancelled."""
    if op == "add":
        return a.num * b.den + b.num * a.den, a.den * b.den
    if op == "sub":
        return a.num * b.den - b.num * a.den, a.den * b.den
    if op == "mul":
        return a.num * b.num, a.den * b.den
    return a.num * b.den, a.den * b.num


def assert_canonical(r, num, den):
    """r equals num/den, in lowest terms, with a monic denominator."""
    assert r.num * den == num * r.den
    assert r.den.leading()[1] == 1
    assert poly_gcd(r.num, r.den).is_one()


class TestReducedResults:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(operand_pairs(), st.sampled_from(["add", "sub", "mul", "div"]))
    def test_matches_the_unreduced_quotient(self, pair, op):
        a, b = pair
        if op == "div" and b.is_zero():
            with pytest.raises(ZeroDivisionError):
                OPS[op](a, b)
            return
        assert_canonical(OPS[op](a, b), *unreduced(a, b, op))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(operand_pairs(), st.integers(0, 2))
    def test_partial_matches_the_quotient_rule(self, pair, i):
        for a in pair:
            i %= a.nvars
            assert_canonical(a.partial(i), a.num.partial(i) * a.den - a.num * a.den.partial(i),
                             a.den * a.den)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_against_sympy_cancel(self, op):
        sympy = pytest.importorskip("sympy")
        to_sympy = sympy_converter(sympy)
        rng = random.Random(23)
        for _ in range(12):
            a, b = random_rational(rng, 3), random_rational(rng, 3)
            if op == "div" and b.is_zero():
                continue
            got = OPS[op](a, b)
            sa, sb = (to_sympy(r.num) / to_sympy(r.den) for r in (a, b))
            want = {"add": sa + sb, "sub": sa - sb, "mul": sa * sb, "div": sa / sb}[op]
            num, den = sympy.fraction(sympy.cancel(want))
            assert sympy.expand(to_sympy(got.num) * den - num * to_sympy(got.den)) == 0
            assert sympy.cancel(to_sympy(got.den) / den).is_number


def poly3(*terms):
    """Polynomial in x1, x2, x3 from (coefficient, e1, e2, e3) terms."""
    return P(3, {tuple(t[1:]): Fraction(t[0]) for t in terms})


class TestSharedDenominatorFactor:
    # the denominators x1*x3*g and x2*(x1 - 6*x3)*g share g = x1*x2 + 3/2;
    # normalizing the unreduced sum through poly_gcd took minutes here
    A = RationalFunction(poly3((-2, 1, 0, 0), (4, 0, 1, 0), (-2, 0, 0, 1)),
                         poly3((1, 2, 1, 1), (Fraction(3, 2), 1, 0, 1)))
    B = RationalFunction(poly3((36, 1, 0, 1)),
                         poly3((1, 2, 2, 0), (-6, 1, 2, 1), (Fraction(3, 2), 1, 1, 0),
                               (-9, 0, 1, 1)))

    def test_matches_the_hand_reduced_quotient(self):
        # a*d1 - c*b1 with b1 = x1*x3 and d1 = x2*(x1 - 6*x3); g does not
        # divide it, so the denominator is b1*d1*g
        num = poly3((-36, 2, 0, 2), (-2, 2, 1, 0), (4, 1, 2, 0), (10, 1, 1, 1),
                    (-24, 0, 2, 1), (12, 0, 1, 2))
        den = (poly3((1, 1, 0, 1)) * poly3((1, 1, 1, 0), (-6, 0, 1, 1))
               * poly3((1, 1, 1, 0), (Fraction(3, 2), 0, 0, 0)))
        got = self.A - self.B
        assert (got.num, got.den) == (num, den)
        assert (self.A + -self.B) == got

    def test_against_sympy_cancel(self):
        sympy = pytest.importorskip("sympy")
        to_sympy = sympy_converter(sympy)
        got = self.A - self.B
        want = (to_sympy(self.A.num) / to_sympy(self.A.den)
                - to_sympy(self.B.num) / to_sympy(self.B.den))
        num, den = sympy.fraction(sympy.cancel(want))
        assert sympy.expand(to_sympy(got.num) * den - num * to_sympy(got.den)) == 0
        assert sympy.cancel(to_sympy(got.den) / den).is_number


@st.composite
def monomial_factored_pairs(draw):
    """c*x^a*f and c*x^b*g: unshared monomial factors and a common factor c.

    c is 1, a monomial, a polynomial or both; a one-term cofactor with c = 1
    gives a single-term operand.
    """
    nvars = draw(st.integers(2, 3))
    monomials = st.tuples(*[st.integers(0, 2)] * nvars).map(lambda e: P(nvars, {e: 1}))
    one = st.just(P(nvars, {(0,) * nvars: 1}))
    common = draw(one | monomials) * draw(one | polys(nvars))
    cofactors = [draw(polys(nvars, size=draw(st.integers(1, 2)))) for _ in range(2)]
    return tuple(common * draw(monomials) * f for f in cofactors)


@st.composite
def common_factor_pairs(draw):
    """k*c*f and k*c*g in 1-4 variables: an integer content k, a common factor
    c and cofactors f and g, all with rational coefficients of either sign."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)

    def poly(size):
        return P(nvars, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=size)))

    common = poly(3).scale(draw(st.integers(1, 12)))
    return common * poly(4), common * poly(4)


def assert_gcd_agrees_with_sympy(pair):
    """poly_gcd(*pair) is sympy's gcd up to a unit, primitive over Z with a
    positive grlex-leading coefficient."""
    sympy = pytest.importorskip("sympy")
    to_sympy = sympy_converter(sympy)
    got = poly_gcd(*pair)
    assert sympy.cancel(to_sympy(got) / sympy.gcd(*map(to_sympy, pair))).is_number
    coeffs = got.terms.values()
    assert all(c.denominator == 1 for c in coeffs) and got.leading()[1] > 0
    assert math.gcd(*(c.numerator for c in coeffs)) == 1


class TestMonomialContent:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(monomial_factored_pairs())
    def test_gcd_against_sympy(self, pair):
        assert_gcd_agrees_with_sympy(pair)


class TestHeuristicGcd:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(common_factor_pairs())
    def test_against_sympy(self, pair):
        assert_gcd_agrees_with_sympy(pair)


def assert_exact(*values):
    """No float anywhere, and every integral coefficient stored as an int."""
    for v in values:
        for p in (v.num, v.den) if isinstance(v, RationalFunction) else (v,):
            for c in p.terms.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@st.composite
def factor_pairs(draw):
    """(f, g) in 1-3 variables with g nonzero, both with integer or both with
    rational coefficients."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = draw(st.sampled_from([
        st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=4)]))
    f = MultivarPolynomial(nvars, draw(st.dictionaries(exps, coeffs, max_size=5)))
    g = MultivarPolynomial(nvars, draw(st.dictionaries(exps, coeffs.filter(bool),
                                                       min_size=1, max_size=4)))
    return f, g


class TestDivexact:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(factor_pairs())
    def test_a_product_divided_by_a_factor(self, pair):
        f, g = pair
        assert (f * g).divexact(g) == f

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(factor_pairs(), st.data())
    def test_a_term_the_divisor_cannot_divide_raises(self, pair, data):
        f, g = pair
        assume(not g.is_constant())
        a = data.draw(st.tuples(*[st.integers(0, 4)] * g.nvars))
        # a term is a multiple of g only if g is a monomial whose exponent a dominates
        assume(len(g.terms) > 1 or not all(map(operator.ge, a, g.leading()[0])))
        c = data.draw(st.sampled_from([1, -3, Fraction(2, 3)]))
        with pytest.raises(ExactDivisionError):
            (f * g + P(g.nvars, {a: c})).divexact(g)

    @pytest.mark.skipif(sympy is None, reason="sympy is the oracle")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(factor_pairs(), st.booleans())
    def test_agrees_with_sympy_div(self, pair, extra):
        # over Q a single divisor leaves remainder 0 exactly when it divides
        f, g = pair
        h = f * g + (P(g.nvars, {(1,) * g.nvars: 1}) if extra else P(g.nvars, {}))
        to_sympy = sympy_converter(sympy)
        q, r = sympy.div(to_sympy(h), to_sympy(g), *sympy.symbols("x1:5")[:g.nvars],
                         domain=sympy.QQ)
        if r != 0:
            with pytest.raises(ExactDivisionError):
                h.divexact(g)
        else:
            assert sympy.expand(to_sympy(h.divexact(g)) - q) == 0

    def test_degree_30_bivariate_quotient(self):
        rng = random.Random(30)
        f, g = (P(2, {(i, d - i): rng.randint(-9, 9) for d in range(31) for i in range(d + 1)
                      if rng.random() < 0.5}) for _ in range(2))
        assert f.total_degree() == g.total_degree() == 30
        assert (f * g).divexact(g) == f
        with pytest.raises(ExactDivisionError):
            (f * g + P(2, {(0, 0): 1})).divexact(g)


class TestCoefficientTypes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(operand_pairs(), st.integers(0, 2),
           st.fractions(min_value=-4, max_value=4, max_denominator=3))
    def test_arithmetic_stays_exact(self, pair, i, c):
        a, b = pair
        i %= a.nvars
        assert_exact(a, b, a + b, a - b, a * b, a.partial(i), -a)
        if not b.is_zero():
            assert_exact(a / b, a / b * b)
        p, q = a.num, b.den
        assert_exact(p + q, p - q, p * q, p.scale(c), p.partial(i), p.scale(2) - p,
                     (p * q).divexact(q), (p * q).divexact(p), p.divexact(p))
        if c:
            assert_exact(p.divexact(MultivarPolynomial.const(p.nvars, c)))

    def test_integral_fractions_are_stored_as_ints(self):
        p = P(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
        assert type(p.terms[(1, 0)]) is int
        assert type((p + p).terms[(0, 1)]) is int
        assert p.scale(2).terms == {(1, 0): 4, (0, 1): 1}
        assert all(type(c) is int for c in p.scale(2).terms.values())


class TestMisuseAndRepr:
    """Messages for misuse from library code, which the parser never makes."""

    def test_exact_converts_other_numbers(self):
        assert exact(0.5) == Fraction(1, 2) and type(exact(0.5)) is Fraction
        assert exact(2.0) == 2 and type(exact(2.0)) is int
        assert exact(True) == 1 and type(exact(True)) is int

    @pytest.mark.parametrize("key", [(1,), (1, 0, 0), (1, -1)])
    def test_bad_exponent_vector(self, key):
        with pytest.raises(ValueError) as err:
            P(2, {key: 1})
        assert str(err.value) == f"bad exponent vector {key!r} for 2 variables"

    def test_mixed_contexts(self):
        with pytest.raises(ValueError, match="^mixed polynomial contexts$"):
            MultivarPolynomial.variable(2, 0) + MultivarPolynomial.variable(3, 0)

    def test_constant_value(self):
        assert MultivarPolynomial.zero(2).constant_value() == 0
        assert MultivarPolynomial.const(2, 7).constant_value() == 7
        with pytest.raises(ValueError, match="^not a constant polynomial$"):
            MultivarPolynomial.variable(2, 0).constant_value()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            MultivarPolynomial.variable(2, 0).divexact(MultivarPolynomial.zero(2))
        with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
            RationalFunction(MultivarPolynomial.variable(2, 0), MultivarPolynomial.zero(2))

    def test_truth_value(self):
        assert not RationalFunction.zero(2)
        assert RationalFunction.variable(2, 1)

    def test_reprs(self):
        p = P(2, {(1, 0): 2, (0, 0): -1})
        assert repr(p) == "MultivarPolynomial(2, 2*x1 - 1)"
        x2 = MultivarPolynomial.variable(2, 1)
        assert repr(RationalFunction(p, x2)) == "RationalFunction((2*x1 - 1)/x2)"
