import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from involute import (CompletionOptions, Context, Division, MultiIndex, Ranking,
                      conventional_normal_form, minimal_involutive_basis, parse_problem,
                      scalars, solution_dimension, symmetry_dimension,
                      verify_involutive)
from involute.scalars import MultivarPolynomial, RationalFunction
from involute.symmetry import (DiffPolynomial, SolvedEquation, SymmetryProblem,
                               apply_prolonged_field, determining_system)
from conftest import load_problem, norm_set, substitute_solution, system

DRL = Ranking("degrevlex")
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def dp(n, m):
    return {
        "const": lambda c: DiffPolynomial.const(n, m, c),
        "x": lambda i: DiffPolynomial.var(n, m, i),
        "y": lambda j: DiffPolynomial.func(n, m, j),
        "d": lambda j, *alpha: DiffPolynomial.deriv(n, m, j, alpha),
    }


# -- arithmetic of jet polynomials against sympy ------------------------------

# two independent variables, one function: x, y, d and a symbols
JET_SYMBOLS = (("x", 0), ("x", 1), ("y", 0), ("d", 0, (1, 0)), ("d", 0, (0, 2)),
               ("a", 0, (0, 0, 0)), ("a", 2, (1, 0, 1)))

jet_polys = st.dictionaries(
    # a symbol may repeat and an exponent may be 0: the constructor merges
    st.lists(st.tuples(st.sampled_from(JET_SYMBOLS), st.integers(0, 2)), max_size=3).map(tuple),
    st.fractions(-4, 4, max_denominator=3), max_size=4,
).map(lambda terms: DiffPolynomial(2, 1, terms))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, p):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[sympy.Symbol(str(sym)) ** e for sym, e in key])
                for key, c in p.terms.items()), sympy.Integer(0))


class TestDiffPolynomialArithmetic:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(jet_polys, jet_polys, st.integers(0, 3), st.fractions(-3, 3, max_denominator=4),
           st.sampled_from(JET_SYMBOLS))
    def test_matches_sympy(self, sympy, p, q, k, c, sym):
        sp, sq = to_sympy(sympy, p), to_sympy(sympy, q)
        x = to_sympy(sympy, DiffPolynomial.symbol(2, 1, sym))
        cases = [(p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq), (p ** k, sp ** k),
                 (p.scale(c), sympy.Rational(c.numerator, c.denominator) * sp),
                 (-p, -sp), (p.partial_wrt(sym), sympy.diff(sp, x))]
        for got, want in cases:
            assert sympy.expand(to_sympy(sympy, got) - want) == 0
            # canonical: sorted keys, each once, no zero coefficient
            assert got == DiffPolynomial(2, 1, got.terms)

    def test_repr_uses_the_default_names(self):
        # x and y symbols print as x_i and y_j; a symbols past the n xi's as eta_j
        p = DiffPolynomial(2, 1, {((("x", 1), 2), (("d", 0, (1, 0)), 1)): Fraction(-3, 2),
                                  ((("a", 2, (1, 0, 1)), 1),): Fraction(1),
                                  ((("y", 0), 1),): Fraction(1)})
        assert repr(p) == "DiffPolynomial(D[eta1,{1,0,1}] - 3/2*D[y1,{1,0}]*x2^2 + y1)"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(jet_polys, st.dictionaries(st.sampled_from(JET_SYMBOLS), jet_polys, max_size=3))
    def test_substitute_matches_sympy(self, sympy, p, mapping):
        want = to_sympy(sympy, p).subs({sympy.Symbol(str(sym)): to_sympy(sympy, q)
                                        for sym, q in mapping.items()}, simultaneous=True)
        got = p.substitute(mapping)
        assert sympy.expand(to_sympy(sympy, got) - want) == 0
        assert got == DiffPolynomial(2, 1, got.terms)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(jet_polys)
    def test_difference_with_itself_has_no_terms(self, p):
        assert (p - p).terms == {}
        assert not (p - p) and (p - p).is_zero()


DIFFUSION_INVOLUTIVE = """
    vars: y x t
    funcs: xi_t xi_x eta_y
    ranking: degrevlex
    eq: D[xi_t,{1,0,0}]
    eq: D[xi_x,{1,0,0}]
    eq: D[eta_y,{1,0,0}]
    eq: D[xi_t,{0,1,0}]
    eq: D[xi_x,{0,1,0}] - 1/t*xi_t
    eq: D[eta_y,{0,1,0}]
    eq: D[xi_t,{0,0,1}] - 1/t*xi_t
    eq: D[xi_x,{0,0,1}] - eta_y
    eq: D[eta_y,{0,0,1}]
"""

DIFFUSION_RAW = """
    vars: y x t
    funcs: xi_t xi_x eta_y
    ranking: degrevlex
    eq: D[xi_t,{2,0,0}]
    eq: D[xi_x,{2,0,0}]
    eq: t*D[eta_y,{2,0,0}] - 2*t*D[xi_x,{1,1,0}] - 2*y*D[xi_x,{1,0,0}]
    eq: D[xi_t,{1,0,0}]
    eq: 2*t^2*D[eta_y,{1,1,0}] - t^2*D[xi_x,{0,2,0}] - y*t*D[xi_x,{0,1,0}] + t*D[xi_x,{0,0,1}] + y*xi_t - t*eta_y
    eq: t*D[eta_y,{0,2,0}] - y*D[eta_y,{0,1,0}] - D[eta_y,{0,0,1}]
    eq: t^2*D[xi_t,{0,2,0}] - y*t*D[xi_t,{0,1,0}] + 2*t*D[xi_x,{0,1,0}] - t*D[xi_t,{0,0,1}] - xi_t
    eq: t*D[xi_t,{1,1,0}] + D[xi_x,{1,0,0}]
    eq: D[xi_t,{0,1,0}]
"""

HARRY_DYM_INVOLUTIVE = """
    vars: y x t
    funcs: xi_t xi_x eta_y
    ranking: degrevlex
    eq: D[eta_y,{0,2,0}]
    eq: D[eta_y,{0,1,1}]
    eq: D[eta_y,{1,0,0}] - 1/y*eta_y
    eq: D[eta_y,{0,0,1}]
    eq: D[xi_x,{1,0,0}]
    eq: D[xi_x,{0,1,0}] - 1/3*D[xi_t,{0,0,1}] - 1/y*eta_y
    eq: D[xi_x,{0,0,1}]
    eq: D[xi_t,{0,0,2}]
    eq: D[xi_t,{1,0,0}]
    eq: D[xi_t,{0,1,0}]
"""

HARRY_DYM_RAW = """
    vars: y x t
    funcs: xi_t xi_x eta_y
    ranking: degrevlex
    eq: D[xi_t,{1,0,0}]
    eq: D[xi_t,{0,1,0}]
    eq: D[xi_x,{1,0,0}]
    eq: D[eta_y,{2,0,0}]
    eq: D[eta_y,{1,1,0}] - D[xi_x,{0,2,0}]
    eq: D[eta_y,{0,0,1}] - y^3*D[eta_y,{0,3,0}]
    eq: 3*y^3*D[eta_y,{1,2,0}] + D[xi_x,{0,0,1}] - y^3*D[xi_x,{0,3,0}]
    eq: y*D[xi_t,{0,0,1}] - 3*y*D[xi_x,{0,1,0}] + 3*eta_y
"""


def total_derivative_reference(p, i):
    """D_i p by the chain rule, one symbol of p at a time."""
    out = DiffPolynomial.zero(p.n, p.m)
    for sym in p.symbols():
        out = out + p.partial_wrt(sym) * p._d_symbol(i, sym)
    return out


class TestTotalDerivative:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(jet_polys, st.integers(0, 1))
    def test_matches_the_chain_rule_by_symbol(self, p, i):
        got = p.total_derivative(i)
        assert got == total_derivative_reference(p, i)
        assert got == DiffPolynomial(2, 1, got.terms)

    def test_coordinate_function(self):
        s = dp(1, 1)
        assert s["y"](0).total_derivative(0) == s["d"](0, 1)

    def test_product_rule(self):
        s = dp(2, 1)
        t, yx = s["x"](0), s["d"](0, 0, 1)
        got = (t * yx).total_derivative(0)
        assert got == yx + t * s["d"](0, 1, 1)

    def test_chain_rule_power(self):
        s = dp(1, 1)
        y = s["y"](0)
        got = (y ** 3).total_derivative(0)
        assert got == s["const"](3) * y * y * s["d"](0, 1)


def a_symbol(n, m, k, *beta):
    """D^beta of the k-th infinitesimal coefficient: xi_1..xi_n, then eta_1..eta_m."""
    return DiffPolynomial.symbol(n, m, ("a", k, beta))


class TestProlongation:
    def test_first_prolongation(self):
        # one x and one y: phi^x = eta_x + (eta_y - xi_x) y_x - xi_y y_x^2
        s = dp(1, 1)
        yx = s["d"](0, 1)
        xi_x, xi_y = a_symbol(1, 1, 0, 1, 0), a_symbol(1, 1, 0, 0, 1)
        eta_x, eta_y = a_symbol(1, 1, 1, 1, 0), a_symbol(1, 1, 1, 0, 1)
        want = eta_x + (eta_y - xi_x) * yx - xi_y * yx * yx
        assert apply_prolonged_field(yx) == want

    def test_second_prolongation(self):
        # the textbook phi^xx = phi_xx + (2 phi_xu - xi_xx) u_x + (phi_uu - 2 xi_xu) u_x^2
        #   - xi_uu u_x^3 + (phi_u - 2 xi_x) u_xx - 3 xi_u u_x u_xx, phi = eta
        s = dp(1, 1)
        ux, uxx, c = s["d"](0, 1), s["d"](0, 2), s["const"]

        def xi(*beta):
            return a_symbol(1, 1, 0, *beta)

        def phi(*beta):
            return a_symbol(1, 1, 1, *beta)

        want = (phi(2, 0) + (c(2) * phi(1, 1) - xi(2, 0)) * ux
                + (phi(0, 2) - c(2) * xi(1, 1)) * ux ** 2 - xi(0, 2) * ux ** 3
                + (phi(0, 1) - c(2) * xi(1, 0)) * uxx - c(3) * xi(0, 1) * ux * uxx)
        assert apply_prolonged_field(uxx) == want

    @pytest.mark.parametrize("alpha", [(1, 1), (2, 1), (1, 1, 1), (0, 2, 1)])
    def test_translation_ansatz_annihilates_a_mixed_derivative(self, alpha):
        # constant xi's and zero eta: every derivative of xi and every eta
        # symbol set to 0 leaves nothing
        n = len(alpha)
        got = apply_prolonged_field(DiffPolynomial.deriv(n, 1, 0, alpha))
        zero = DiffPolynomial.zero(n, 1)
        mapping = {sym: zero for sym in got.symbols()
                   if sym[0] == "a" and (sym[1] == n or any(sym[2]))}
        assert mapping and got.substitute(mapping).is_zero()

    @pytest.mark.parametrize("alpha, i", [
        ((0,), 0), ((1,), 0), ((0, 1), 0), ((1, 0), 1), ((2, 1), 1), ((1, 1, 0), 2)])
    def test_recursion_of_the_coefficients(self, alpha, i):
        # phi^{J+i} = D_i phi^J - sum_k u_{J+k} D_i xi_k, with phi^J what the
        # field gives D[y,J] (eta for J = 0)
        n = len(alpha)
        s = dp(n, 1)
        higher = tuple(e + (k == i) for k, e in enumerate(alpha))
        want = apply_prolonged_field(s["d"](0, *alpha)).total_derivative(i)
        for k in range(n):
            uk = s["d"](0, *(e + (q == k) for q, e in enumerate(alpha)))
            want = want - uk * a_symbol(n, 1, k, *(0,) * (n + 1)).total_derivative(i)
        assert apply_prolonged_field(s["d"](0, *higher)) == want


# the jet symbols of JET_SYMBOLS that are not ansatz symbols
plain_jet_polys = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(JET_SYMBOLS[:5]), st.integers(0, 2)),
             max_size=3).map(tuple),
    st.fractions(-4, 4, max_denominator=3), max_size=3,
).map(lambda terms: DiffPolynomial(2, 1, terms))


class TestProlongationIsADerivation:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(plain_jet_polys, plain_jet_polys, st.fractions(-3, 3, max_denominator=4))
    def test_linear(self, p, q, c):
        got = apply_prolonged_field(p + q.scale(c))
        assert got == apply_prolonged_field(p) + apply_prolonged_field(q).scale(c)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(plain_jet_polys, plain_jet_polys)
    def test_leibniz_rule(self, p, q):
        got = apply_prolonged_field(p * q)
        assert got == apply_prolonged_field(p) * q + p * apply_prolonged_field(q)


class TestSolvedEquation:
    def test_rejects_lead_in_rhs(self):
        s = dp(2, 1)
        with pytest.raises(ValueError):
            SolvedEquation((0, (1, 0)), s["d"](0, 1, 1))

    def test_rejects_order_zero_lead(self):
        s = dp(2, 1)
        with pytest.raises(ValueError):
            SolvedEquation((0, (0, 0)), s["y"](0))


def test_records_validate_and_normalize_their_fields():
    s = dp(2, 1)
    invalid = [
        (lambda: Ranking("bogus"), "unknown ranking scheme 'bogus'"),
        (lambda: Ranking("grlex", "x"), "unknown tiebreak 'x'"),
        (lambda: Context(("x",), ("x",)), "variable and function names must be unique"),
        (lambda: CompletionOptions(cap=0), "cap must be at least 1"),
        (lambda: SolvedEquation((0, (0, 0)), s["y"](0)),
         "the lead of a solved equation must have order >= 1"),
        (lambda: SolvedEquation((0, (1, 0)), s["d"](0, 1, 1)),
         "rhs contains the lead or one of its derivatives"),
    ]
    for make, message in invalid:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    assert CompletionOptions(main=DRL).completion == DRL
    assert SolvedEquation((0, [1, 0]), s["x"](1)).lead == (0, (1, 0))
    assert type(SolvedEquation((0, MultiIndex((1, 0))), s["x"](1)).lead[1]) is tuple


def test_replace_keeps_the_checks_of_the_constructor():
    s = dp(2, 1)
    eq = SolvedEquation((0, (1, 0)), s["x"](1))
    invalid = [
        (lambda: Ranking()._replace(scheme="bogus"), lambda: Ranking("bogus")),
        (lambda: Ranking()._replace(tiebreak="x"), lambda: Ranking("grlex", "x")),
        (lambda: Context(("x",), ("y",))._replace(functions=("x",)),
         lambda: Context(("x",), ("x",))),
        (lambda: CompletionOptions()._replace(cap=0), lambda: CompletionOptions(cap=0)),
        (lambda: eq._replace(lead=(0, (0, 0))), lambda: SolvedEquation((0, (0, 0)), s["x"](1))),
        (lambda: eq._replace(rhs=s["d"](0, 1, 1)),
         lambda: SolvedEquation((0, (1, 0)), s["d"](0, 1, 1))),
    ]
    for replace, construct in invalid:
        with pytest.raises(ValueError) as want:
            construct()
        with pytest.raises(ValueError) as got:
            replace()
        assert str(got.value) == str(want.value)
    assert eq._replace(lead=(0, [0, 1])).lead == (0, (0, 1))
    opts = CompletionOptions(main=DRL)._replace(division=Division.POMMARET)
    assert (opts.division, opts.completion) == (Division.POMMARET, DRL)


class TestDeterminingSystems:
    def test_linear_homogeneous(self):
        pf = load_problem("diffusion.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        for e in eqs:
            assert e.const.is_zero()
            assert e.terms

    def test_diffusion_completion_matches_table(self):
        pf = load_problem("diffusion.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        opts = CompletionOptions(division=Division.JANET, main=DRL)
        basis = minimal_involutive_basis(eqs, opts)
        want_pf, want = system(DIFFUSION_INVOLUTIVE)
        assert norm_set(basis.elements, DRL) == norm_set(want, DRL)

    def test_diffusion_ideal_equals_published_raw_system(self):
        pf = load_problem("diffusion.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        raw_pf, raw = system(DIFFUSION_RAW)
        opts = CompletionOptions(division=Division.JANET, main=DRL)
        ours = minimal_involutive_basis(eqs, opts)
        theirs = minimal_involutive_basis(raw, opts)
        assert norm_set(ours.elements, DRL) == norm_set(theirs.elements, DRL)

    @pytest.mark.parametrize("division", [Division.JANET, Division.POMMARET])
    def test_harry_dym_completion(self, division):
        pf = load_problem("harrydym.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        opts = CompletionOptions(division=division, main=DRL)
        basis = minimal_involutive_basis(eqs, opts)
        want_pf, want = system(HARRY_DYM_INVOLUTIVE)
        assert norm_set(basis.elements, DRL) == norm_set(want, DRL)
        assert verify_involutive(basis)

    def test_harry_dym_ideal_equals_published_raw_system(self):
        pf = load_problem("harrydym.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        raw_pf, raw = system(HARRY_DYM_RAW)
        opts = CompletionOptions(division=Division.JANET, main=DRL)
        ours = minimal_involutive_basis(eqs, opts)
        theirs = minimal_involutive_basis(raw, opts)
        assert norm_set(ours.elements, DRL) == norm_set(theirs.elements, DRL)

    @pytest.mark.parametrize("name", ["heat", "kp", "euler2d", "transport"])
    def test_constant_leading_coefficients_take_no_gcd(self, monkeypatch, name):
        # every equation of these systems has a constant leading coefficient:
        # built over denominator 1 and divided by that constant, the system
        # needs neither the reducing RationalFunction constructor nor a gcd
        problem = parse_problem((INPUTS / f"{name}.pde").read_text()).symmetry_problem()
        calls = []
        for owner, attr in ((RationalFunction, "__init__"), (scalars, "poly_gcd")):
            def counted(*args, _inner=getattr(owner, attr), _attr=attr, **kw):
                calls.append(_attr)
                return _inner(*args, **kw)
            monkeypatch.setattr(owner, attr, counted)
        _, eqs = determining_system(problem)
        assert eqs and calls == []


# (poly_gcd calls, RationalFunction constructor calls) of one in-process
# `involute symmetry` run on each benchmark input.  Counters are deterministic
# where times are not; the jet arithmetic iterates its symbols sorted, so these
# do not depend on the hash seed.  A change that moves one updates it and says why.
COUNTER_PINS = {
    "harrydym": (64, 5), "diffusion": (172, 4), "transport": (0, 0), "kdv": (39, 9),
    "burgers": (49, 11), "heat": (6, 0), "nls": (237, 18), "zk": (54, 12), "kp": (74, 12),
    "boussinesq": (58, 8), "euler2d": (0, 0),
}


class TestCounterPins:
    @pytest.mark.parametrize("name", sorted(COUNTER_PINS))
    def test_symmetry_run(self, monkeypatch, capsys, name):
        from involute import cli, completion, diffpoly
        calls = [0, 0]

        def counter(slot, inner):
            def counted(*args, **kw):
                calls[slot] += 1
                return inner(*args, **kw)
            return counted

        for module in (scalars, diffpoly, completion):
            monkeypatch.setattr(module, "poly_gcd", counter(0, module.poly_gcd))
        monkeypatch.setattr(RationalFunction, "__init__", counter(1, RationalFunction.__init__))
        assert cli.main(["symmetry", str(INPUTS / f"{name}.pde")]) == 0
        capsys.readouterr()
        assert tuple(calls) == COUNTER_PINS[name]


class TestPrintedDeterminingSystems:
    """The determining equations are primitive over Z[x], and what ``symmetry``
    prints of them is input that completes to the basis it prints."""

    @pytest.mark.parametrize("name", sorted(COUNTER_PINS))
    def test_printed_system_reads_back_and_completes_to_the_printed_basis(self, capsys, name):
        from involute import cli
        from involute.symmetry import determining_context
        path = INPUTS / f"{name}.pde"
        pf = parse_problem(path.read_text())
        ctx = determining_context(pf.symmetry_problem())[0]
        assert cli.main(["symmetry", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert cli.main(["symmetry", str(path)]) == 0
        out = capsys.readouterr().out.split("\n\n")[1].splitlines()
        text = (f"vars: {' '.join(ctx.variables)}\nfuncs: {' '.join(ctx.functions)}\n"
                + "".join(f"eq: {e}\n" for e in doc["determining_system"]))
        eqs = parse_problem(text).linear_system()
        opts = CompletionOptions(main=pf.ranking())
        basis = minimal_involutive_basis(eqs, opts)
        assert cli._basis(basis, ctx) == (out, doc["basis"])

    def test_equations_are_primitive_without_a_reduced_quotient(self, monkeypatch):
        # no reducing RationalFunction constructor and no division into
        # quotients: each equation is its primitive form over denominator 1
        from involute.diffpoly import LinearDiffPoly

        def fail(*args):
            raise AssertionError("a reduced quotient was built")

        problems = [parse_problem((INPUTS / f"{name}.pde").read_text()).symmetry_problem()
                    for name in sorted(COUNTER_PINS)]
        monkeypatch.setattr(RationalFunction, "__init__", fail)
        monkeypatch.setattr(LinearDiffPoly, "over", fail)
        grlex = Ranking("grlex")
        for problem in problems:
            _, eqs = determining_system(problem)
            for e in eqs:
                assert e.const.is_zero() and all(c.den.is_one() for c in e.terms.values())
                assert scalars.content([c.num for c in e.terms.values()]).is_one()
                assert e.terms[e.ld(grlex)].num.leading()[1] > 0


class TestKnownSolutionsAnnihilate:
    def test_diffusion_three_parameter_family(self):
        # xi_t = c1*t, xi_x = c1*x + c2*t + c3, eta = c2 over (y, x, t, c1, c2, c3)
        pf = load_problem("diffusion.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        total = 6

        def P(terms):
            return MultivarPolynomial(total, terms)

        assigns = {
            0: P({(0, 0, 1, 1, 0, 0): 1}),
            1: P({(0, 1, 0, 1, 0, 0): 1, (0, 0, 1, 0, 1, 0): 1,
                  (0, 0, 0, 0, 0, 1): 1}),
            2: P({(0, 0, 0, 0, 1, 0): 1}),
        }
        for e in eqs:
            assert substitute_solution(e, assigns, total).is_zero()

    def test_harry_dym_five_parameter_family(self):
        # xi_t = c1 + c2*t, xi_x = c3 + c4*x + c5*x^2,
        # eta = (c4 - c2/3 + 2*c5*x) * y over (y, x, t, c1..c5)
        pf = load_problem("harrydym.pde")
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        total = 8

        def P(terms):
            return MultivarPolynomial(total, terms)

        assigns = {
            0: P({(0, 0, 0, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 1, 0, 0, 0): 1}),
            1: P({(0, 0, 0, 0, 0, 1, 0, 0): 1, (0, 1, 0, 0, 0, 0, 1, 0): 1,
                  (0, 2, 0, 0, 0, 0, 0, 1): 1}),
            2: P({(1, 0, 0, 0, 0, 0, 1, 0): 1,
                  (1, 0, 0, 0, 1, 0, 0, 0): Fraction(-1, 3),
                  (1, 1, 0, 0, 0, 0, 0, 1): 2}),
        }
        for e in eqs:
            assert substitute_solution(e, assigns, total).is_zero()

    def test_translations_solve_trivial_equation(self):
        # y_t = 0: constant xi's and zero eta annihilate the system
        pf, _ = system("""
            vars: t x
            funcs: y
            solve: D[y,t] = 0
        """)
        det_ctx, eqs = determining_system(pf.symmetry_problem())
        total = 5  # (y, x, t, c1, c2)

        def P(terms):
            return MultivarPolynomial(total, terms)

        assigns = {
            0: P({(0, 0, 0, 1, 0): 1}),
            1: P({(0, 0, 0, 0, 1): 1}),
            2: P({}),
        }
        for e in eqs:
            assert substitute_solution(e, assigns, total).is_zero()


class TestSymmetryDimension:
    def test_diffusion(self):
        pf = load_problem("diffusion.pde")
        dim, basis, det_ctx = symmetry_dimension(pf.symmetry_problem())
        assert dim.finite and dim.value == 3

    def test_harry_dym(self):
        pf = load_problem("harrydym.pde")
        dim, basis, det_ctx = symmetry_dimension(pf.symmetry_problem())
        assert dim.finite and dim.value == 5
        # five multiplier-free generators: xi_t, d_t xi_t, xi_x, eta, d_x eta
        gens = {(det_ctx.functions[j], tuple(v))
                for j, dec in dim.decompositions.items()
                for v, mult in dec.entries()}
        assert gens == {("xi_t", (0, 0, 0)), ("xi_t", (0, 0, 1)),
                        ("xi_x", (0, 0, 0)), ("eta_y", (0, 0, 0)),
                        ("eta_y", (0, 1, 0))}

    def test_transport_infinite(self):
        pf = load_problem("transport.pde")
        dim, basis, det_ctx = symmetry_dimension(pf.symmetry_problem())
        assert not dim.finite


class TestDetOrderOverride:
    def test_explicit_default_order(self):
        import textwrap
        from involute import parse_problem
        pf = load_problem("diffusion.pde")
        base = pf.symmetry_problem()
        pf2 = parse_problem(textwrap.dedent("""
            vars: t x
            funcs: y
            detvars: y x t
            solve: D[y,t] = -y*D[y,x] + t*D[y,x,x]
        """))
        override = pf2.symmetry_problem()
        ctx_a, eqs_a = determining_system(base)
        ctx_b, eqs_b = determining_system(override)
        assert ctx_a == ctx_b
        assert norm_set(eqs_a, DRL) == norm_set(eqs_b, DRL)

    def test_alternative_order_same_dimension(self):
        import textwrap
        from involute import parse_problem
        pf = parse_problem(textwrap.dedent("""
            vars: t x
            funcs: y
            detvars: t x y
            solve: D[y,t] = -y*D[y,x] + t*D[y,x,x]
        """))
        dim, basis, det_ctx = symmetry_dimension(pf.symmetry_problem())
        assert det_ctx.variables == ("t", "x", "y")
        assert dim.finite and dim.value == 3


class TestMisuse:
    """Messages for misuse from library code, which the parser never makes."""

    def test_equal_polynomials_hash_alike(self):
        s = dp(2, 1)
        a, b = s["x"](0) * s["d"](0, 1, 0), s["d"](0, 1, 0) * s["x"](0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1

    def test_total_derivative_of_an_unknown_symbol(self):
        with pytest.raises(ValueError, match=r"^unknown symbol \('q', 0\)$"):
            DiffPolynomial.symbol(1, 1, ("q", 0)).total_derivative(0)
