import random

import pytest

from involute import (Context, Derivative, LinearDiffPoly, MultiIndex,
                      Ranking, RationalFunction)
from conftest import mi, system


CTX3 = Context(("x1", "x2", "x3"), ("y",))


def D(j, *exps):
    return Derivative(j, MultiIndex(exps))


def poly(ctx, text):
    pf, eqs = system(f"""
        vars: {' '.join(ctx.variables)}
        funcs: {' '.join(ctx.functions)}
        eq: {text}
    """)
    return eqs[0]


def random_derivative(rng, n, m, maxdeg=3):
    return Derivative(rng.randrange(m),
                      MultiIndex(tuple(rng.randint(0, maxdeg) for _ in range(n))))


class TestRanking:
    def test_variable_priority(self):
        r = Ranking("grlex")
        assert r.compare(D(0, 1, 0, 0), D(0, 0, 1, 0)) > 0

    def test_derivative_raises(self):
        r = Ranking("lex")
        d = D(0, 1, 2, 0)
        for i in range(3):
            assert r.compare(d.differentiate(i), d) > 0

    def test_indeterminate_tiebreak(self):
        ctx = Context(("x",), ("f", "g"))
        a = Derivative(0, mi(1))
        b = Derivative(1, mi(1))
        for tie in ("term", "indet"):
            assert Ranking("grlex", tie).compare(a, b) > 0

    def test_tiebreak_modes_differ(self):
        # same order, different function: 'indet' mode beats the term scheme
        a = Derivative(1, mi(1, 0))   # higher variable, lower-priority function
        b = Derivative(0, mi(0, 1))
        assert Ranking("grlex", "term").compare(a, b) > 0
        assert Ranking("grlex", "indet").compare(a, b) < 0

    @pytest.mark.parametrize("scheme", ["lex", "grlex", "degrevlex"])
    @pytest.mark.parametrize("tie", ["term", "indet"])
    def test_ranking_axioms(self, scheme, tie):
        r = Ranking(scheme, tie)
        rng = random.Random(5)
        for _ in range(200):
            a = random_derivative(rng, 3, 2)
            b = random_derivative(rng, 3, 2)
            # differentiation raises
            i = rng.randrange(3)
            assert r.compare(a.differentiate(i), a) > 0
            # translation invariance
            gamma = MultiIndex(tuple(rng.randint(0, 2) for _ in range(3)))
            assert r.compare(a, b) == r.compare(Derivative(a.indet, a.index * gamma),
                                                Derivative(b.indet, b.index * gamma))

    @pytest.mark.parametrize("scheme", ["grlex", "degrevlex"])
    def test_orderly(self, scheme):
        r = Ranking(scheme)
        rng = random.Random(9)
        for _ in range(100):
            a = random_derivative(rng, 3, 2)
            b = random_derivative(rng, 3, 2)
            if a.order != b.order:
                assert (r.compare(a, b) > 0) == (a.order > b.order)


class TestDifferentiate:
    def test_product_rule(self):
        f = poly(CTX3, "x2*D[y,{0,0,2}]")
        got = f.differentiate(1)
        assert got == poly(CTX3, "D[y,{0,0,2}] + x2*D[y,{0,1,2}]")

    def test_zero(self):
        z = LinearDiffPoly.zero(CTX3)
        assert z.differentiate(0).is_zero()

    def test_two_term_equation(self):
        f = poly(CTX3, "D[y,{2,0,0}] - x2*D[y,{0,0,2}]")
        got = f.differentiate(1)
        assert got == poly(CTX3, "D[y,{2,1,0}] - D[y,{0,0,2}] - x2*D[y,{0,1,2}]")

    def test_commutes(self):
        rng = random.Random(31)
        pf, eqs = system("""
            vars: x1 x2 x3
            funcs: y
            eq: x1*D[y,{1,0,2}] + x2^2*D[y,{0,1,0}] + x3*y
        """)
        f = eqs[0]
        for i in range(3):
            for j in range(3):
                assert (f.differentiate(i).differentiate(j)
                        == f.differentiate(j).differentiate(i))

    def test_constant_part(self):
        f = poly(CTX3, "D[y,{1,0,0}] + x1*x2")
        got = f.differentiate(0)
        assert got == poly(CTX3, "D[y,{2,0,0}] + x2")


class TestProlong:
    def test_zero_index(self):
        f = poly(CTX3, "D[y,{0,2,0}]")
        assert f.prolong(mi(0, 0, 0)) == f

    def test_constant_coefficients(self):
        f = poly(CTX3, "D[y,{0,2,0}]")
        assert f.prolong(mi(0, 0, 1)) == poly(CTX3, "D[y,{0,2,1}]")

    def test_leading_term_stability(self):
        rng = random.Random(37)
        r = Ranking("grlex")
        pf, eqs = system("""
            vars: x1 x2 x3
            funcs: y
            eq: D[y,{1,1,0}] + x1*D[y,{0,0,2}] - x3*y
        """)
        f = eqs[0]
        for _ in range(25):
            beta = MultiIndex(tuple(rng.randint(0, 2) for _ in range(3)))
            lead = f.ld(r)
            assert f.prolong(beta).ld(r) == Derivative(lead.indet, lead.index * beta)


class TestNormalize:
    def test_scalar(self):
        r = Ranking("grlex")
        f = poly(CTX3, "2*D[y,{1,0,0}]")
        assert f.normalize(r) == poly(CTX3, "D[y,{1,0,0}]")

    def test_rational_leading_coefficient(self):
        ctx = Context(("t", "x", "v"), ("eta",))
        r = Ranking("grlex")
        f = poly(ctx, "t*D[eta,{0,2,0}] - v*D[eta,{0,1,0}] - D[eta,{1,0,0}]")
        got = f.normalize(r)
        want = poly(ctx, "D[eta,{0,2,0}] - v/t*D[eta,{0,1,0}] - 1/t*D[eta,{1,0,0}]")
        assert got == want

    def test_idempotent(self):
        r = Ranking("grlex")
        f = poly(CTX3, "x2*D[y,{1,0,0}] + x1*y")
        assert f.normalize(r).normalize(r) == f.normalize(r)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            LinearDiffPoly.zero(CTX3).normalize(Ranking())


class TestLeadingData:
    def test_ld_of_sum_bounded(self):
        r = Ranking("grlex")
        rng = random.Random(43)
        for _ in range(30):
            terms_a = {random_derivative(rng, 3, 1): RationalFunction.const(3, rng.randint(1, 4))
                       for _ in range(rng.randint(1, 3))}
            terms_b = {random_derivative(rng, 3, 1): RationalFunction.const(3, rng.randint(1, 4))
                       for _ in range(rng.randint(1, 3))}
            a = LinearDiffPoly(CTX3, terms_a)
            b = LinearDiffPoly(CTX3, terms_b)
            s = a + b
            if s.terms:
                top = max([a.ld(r), b.ld(r)], key=r.key)
                assert r.compare(s.ld(r), top) <= 0


class TestRankingPermutations:
    @pytest.mark.parametrize("decl, eq, leader", [
        ("vars: x1 x2 x3\nfuncs: y", "D[y,x1] + D[y,x3]", "D[y,x1]"),
        ("vars: x3 x2 x1\nfuncs: y", "D[y,x1] + D[y,x3]", "D[y,x3]"),
        ("vars: x\nfuncs: y g", "D[y,x] + D[g,x]", "D[y,x]"),
        ("vars: x\nfuncs: g y", "D[y,x] + D[g,x]", "D[g,x]"),
    ])
    def test_declaration_order_is_the_priority(self, decl, eq, leader):
        # the order of vars: and funcs: permutes the priorities of a ranking
        pf, (f,) = system(f"{decl}\neq: {eq}")
        _, (want,) = system(f"{decl}\neq: {leader}")
        assert f.ld(pf.ranking()) == want.ld(pf.ranking())

    def test_invalid_scheme(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Ranking("weird")
        with _pytest.raises(ValueError):
            Ranking("grlex", "middle")
