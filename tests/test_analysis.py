from fractions import Fraction

import pytest

from involute import (CompletionOptions, Derivative, Division, MultiIndex,
                      Ranking, classify, complementary_set, hilbert_data,
                      hilbert_function, hilbert_polynomial, ivp_spec,
                      minimal_involutive_basis, solution_dimension)
from involute.analysis import HilbertData, _ascending, _binomial_poly
from conftest import hf_bruteforce, load_problem, mi, system

GRL = Ranking("grlex")


def completed(name, division=Division.JANET):
    pf = load_problem(name)
    opts = CompletionOptions(division=division, main=pf.ranking())
    return pf, minimal_involutive_basis(pf.linear_system(), opts)


class TestClassify:
    def test_leading_derivative_is_principal(self):
        pf, basis = completed("janet3.pde")
        assert classify(Derivative(0, mi(2, 0, 0)), basis) == "principal"

    def test_complement_element_is_parametric(self):
        pf, basis = completed("janet3.pde")
        assert classify(Derivative(0, mi(1, 0, 2)), basis) == "parametric"

    def test_order_zero_parametric(self):
        pf, basis = completed("janet3.pde")
        assert classify(Derivative(0, mi(0, 0, 0)), basis) == "parametric"

    def test_division_independent(self):
        pf, bj = completed("janet3.pde", Division.JANET)
        _, bl = completed("janet3.pde", Division.LEX_INDUCED)
        import itertools
        for exps in itertools.product(range(4), repeat=3):
            d = Derivative(0, MultiIndex(exps))
            assert classify(d, bj) == classify(d, bl)


class TestComplementarySet:
    TWELVE = {mi(0, 0, 0), mi(1, 0, 0), mi(0, 1, 0), mi(0, 0, 1),
              mi(1, 1, 0), mi(1, 0, 1), mi(0, 1, 1), mi(0, 0, 2),
              mi(1, 1, 1), mi(1, 0, 2), mi(0, 0, 3), mi(1, 0, 3)}

    def test_janet_example_twelve_monomials(self):
        pf, basis = completed("janet3.pde")
        decs = complementary_set(basis)
        assert set(decs[0].monomials()) == self.TWELVE

    def test_fourvar_janet_generator(self):
        pf, basis = completed("fourvar.pde", Division.JANET)
        decs = complementary_set(basis)
        assert decs[0].entries() == ((mi(0, 0, 0, 0), frozenset({3})),)

    def test_fourvar_pommaret_generators(self):
        pf, basis = completed("fourvar.pde", Division.POMMARET)
        decs = complementary_set(basis)
        assert set(decs[0].entries()) == {(mi(0, 0, 0, 0), frozenset()),
                                          (mi(0, 0, 0, 1), frozenset({3}))}


class TestIVP:
    def test_fourvar_janet(self):
        pf, basis = completed("fourvar.pde", Division.JANET)
        spec = ivp_spec(basis)
        assert len(spec.entries) == 1
        e = spec.entries[0]
        assert e.kind == "function"
        assert e.derivative == Derivative(0, mi(0, 0, 0, 0))
        assert e.multipliers == frozenset({3})
        assert e.fixed == frozenset({0, 1, 2})

    def test_fourvar_pommaret(self):
        pf, basis = completed("fourvar.pde", Division.POMMARET)
        spec = ivp_spec(basis)
        kinds = {(e.derivative, e.kind, e.multipliers) for e in spec.entries}
        assert kinds == {(Derivative(0, mi(0, 0, 0, 0)), "constant", frozenset()),
                         (Derivative(0, mi(0, 0, 0, 1)), "function", frozenset({3}))}
        const = next(e for e in spec.entries if e.kind == "constant")
        assert const.fixed == frozenset(range(4))

    def test_lewy_janet(self):
        pf, basis = completed("lewy.pde", Division.JANET)
        spec = ivp_spec(basis)
        assert len(spec.entries) == 2
        for j, e in zip((0, 1), spec.entries):
            assert e.indet == j
            assert e.kind == "function"
            assert e.multipliers == frozenset({1, 2})
            assert e.fixed == frozenset({0})

    def test_requires_orderly(self):
        pf = load_problem("janet3.pde")
        opts = CompletionOptions(division=Division.JANET, main=Ranking("lex"))
        basis = minimal_involutive_basis(pf.linear_system(), opts)
        with pytest.raises(ValueError):
            ivp_spec(basis)
        with pytest.raises(ValueError):
            hilbert_data(basis)

    def test_formatting_mentions_point(self):
        pf, basis = completed("fourvar.pde", Division.JANET)
        text = ivp_spec(basis).format(pf.context())
        assert "x1=x1°" in text and "f1(x4)" in text


class TestHilbert:
    def test_empty_leading_set_formula(self):
        # no principal derivatives: HF(s) = C(n+s, s)
        data = HilbertData(2, 1, (), _ascending(_binomial_poly(2, 2)), 0)
        for s in range(6):
            assert data.hf(s) == (s + 1) * (s + 2) // 2
            assert data.hp_eval(s) == data.hf(s)

    def test_janet_example_values(self):
        pf, basis = completed("janet3.pde")
        data = hilbert_data(basis)
        assert data.hf(0) == 1
        for s in range(6, 11):
            assert data.hf(s) == 12
        assert data.hp == (Fraction(12),)
        assert hilbert_polynomial(basis) == (Fraction(12),)
        assert hilbert_function(basis, 8) == 12

    def test_formula_matches_bruteforce(self):
        for name in ("janet3.pde", "fourvar.pde", "lewy.pde"):
            for division in (Division.JANET, Division.POMMARET):
                pf, basis = completed(name, division)
                data = hilbert_data(basis)
                for s in range(data.stabilization + 4):
                    assert data.hf(s) == hf_bruteforce(basis, s), (name, division, s)

    def test_stabilization(self):
        pf, basis = completed("janet3.pde")
        data = hilbert_data(basis)
        for s in range(data.stabilization, data.stabilization + 5):
            assert data.hf(s) == data.hp_eval(s)

    def test_ivp_cones_cover_parametric_derivatives(self):
        from involute import in_cone, monomials_up_to
        for name in ("janet3.pde", "fourvar.pde", "lewy.pde"):
            pf, basis = completed(name)
            ctx = pf.context()
            sets = basis.monomial_sets()
            decs = complementary_set(basis)
            bound = hilbert_data(basis).stabilization + 3
            for j in range(ctx.m):
                us = sets.get(j, ())
                for w in monomials_up_to(ctx.n, bound):
                    hits = sum(1 for v, mult in decs[j].entries()
                               if v.divides(w) and (w / v).support() <= mult)
                    assert hits == (0 if in_cone(w, us) else 1)


class TestSolutionDimension:
    def test_janet_example(self):
        pf, basis = completed("janet3.pde")
        dim = solution_dimension(basis)
        assert dim.finite and dim.value == 12

    def test_lewy_infinite(self):
        pf, basis = completed("lewy.pde")
        dim = solution_dimension(basis)
        assert not dim.finite
        gens = [e for dec in dim.decompositions.values() for e in dec.entries()]
        assert all(mult == frozenset({1, 2}) for _, mult in gens)
        assert len(gens) == 2

    def test_pommaret_agrees(self):
        pf, basis = completed("janet3.pde", Division.POMMARET)
        assert solution_dimension(basis).value == 12
