import hashlib
import json
import sys

import pytest

from involute import (CapExceeded, CompletionOptions, Division, NoFiniteBasis, Ranking,
                      basis_from, conventional_normal_form, groebner_oracle,
                      involutive_normal_form, minimal_involutive_basis,
                      parse_problem, s_polynomial, verify_involutive)
from involute import completion
from involute.scalars import MultivarPolynomial, RationalFunction
from involute.symmetry import determining_system
from conftest import (PROBLEMS, freeze_pommaret_indexes, load_problem, norm_set, system,
                      verify_partial_involutive)


GRL = Ranking("grlex")

JANET3_TEXT = """
    vars: x1 x2 x3
    funcs: y
    eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]
    eq: D[y,{0,2,0}]
"""

JANET3_BASIS = """
    vars: x1 x2 x3
    funcs: y
    eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]
    eq: D[y,{1,2,0}]
    eq: D[y,{1,1,2}]
    eq: D[y,{1,0,4}]
    eq: D[y,{0,2,0}]
    eq: D[y,{0,1,2}]
    eq: D[y,{0,0,4}]
"""

# the published ten rows; the lex-induced division also forces an eleventh
# (LEX_INDUCED_FORCED_ROW)
LEX_INDUCED_TABLE = """
    vars: x1 x2 x3
    funcs: y
    eq: D[y,{2,1,0}] - D[y,{0,0,2}]
    eq: D[y,{2,0,3}]
    eq: D[y,{2,0,2}]
    eq: D[y,{2,0,1}] - x2*D[y,{0,0,3}]
    eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]
    eq: D[y,{0,2,1}]
    eq: D[y,{0,2,0}]
    eq: D[y,{0,1,3}]
    eq: D[y,{0,1,2}]
    eq: D[y,{0,0,4}]
"""

# the x3-prolongation of the table's first row: its leader D[y,{2,1,1}] lies
# in the ideal but has no lex-induced involutive divisor among the ten
# published leaders, and its tail D[y,{0,0,3}] is not a leading derivative
LEX_INDUCED_FORCED_ROW = """
    vars: x1 x2 x3
    funcs: y
    eq: D[y,{2,1,1}] - D[y,{0,0,3}]
"""

GROEBNER_COLUMN = """
    vars: x1 x2 x3
    funcs: y
    eq: D[y,{2,0,0}] - x2*D[y,{0,0,2}]
    eq: D[y,{0,2,0}]
    eq: D[y,{0,1,2}]
    eq: D[y,{0,0,4}]
"""

FOURVAR_BASIS = """
    vars: x1 x2 x3 x4
    funcs: y
    eq: D[y,{1,0,0,0}] + x2*D[y,{0,0,0,1}] + y
    eq: D[y,{0,1,0,0}] + x1*D[y,{0,0,0,1}]
    eq: D[y,{0,0,1,0}] - D[y,{0,0,0,1}]
"""


def complete_text(text, division, **kw):
    pf, eqs = system(text)
    opts = CompletionOptions(division=division, main=pf.ranking(), **kw)
    return pf, minimal_involutive_basis(eqs, opts)


class TestNormalForm:
    def test_empty_reducers(self):
        pf, eqs = system(JANET3_TEXT)
        assert involutive_normal_form(eqs[0], [], Division.JANET, GRL) == eqs[0]

    def test_self_reduction(self):
        pf, eqs = system(JANET3_TEXT)
        f = eqs[0].normalize(GRL)
        assert involutive_normal_form(f, [f], Division.JANET, GRL).is_zero()

    def test_prolongation_reduces_to_zero(self):
        pf, basis = complete_text(JANET3_TEXT, Division.JANET)
        _, probe = system("""
            vars: x1 x2 x3
            funcs: y
            eq: D[y,{0,3,0}]
        """)
        inv = involutive_normal_form(probe[0], list(basis.elements),
                                     Division.JANET, GRL)
        conv = conventional_normal_form(probe[0], list(basis.elements), GRL)
        assert inv.is_zero() and conv.is_zero()

    def test_agrees_with_conventional_fixed_point(self):
        # an involutive normal form cannot be reduced further conventionally
        pf, basis = complete_text(JANET3_TEXT, Division.JANET)
        _, probe = system("""
            vars: x1 x2 x3
            funcs: y
            eq: D[y,{1,1,1}] + x1*D[y,{0,0,3}] + y
        """)
        nf = involutive_normal_form(probe[0], list(basis.elements),
                                    Division.JANET, GRL)
        assert conventional_normal_form(nf, list(basis.elements), GRL) == nf

    @pytest.mark.parametrize("division, want", [
        (Division.POMMARET, "y"), (Division.LEX_INDUCED, "y"), (Division.JANET, "0")])
    def test_the_divisor_with_the_lowest_leader_reduces(self, division, want):
        # D[y,x] and D[y,{2}] both divide D[y,{3}] involutively, except under
        # Janet, whose cones do not overlap; reducing by D[y,x] - y first ends
        # at y, reducing by D[y,{2}] first ends at 0
        _, G = system("vars: x\nfuncs: y\neq: D[y,x] - y\neq: D[y,{2}]")
        _, (p,) = system("vars: x\nfuncs: y\neq: D[y,{3}]")
        assert involutive_normal_form(p, G, division, GRL).format(GRL) == want


class TestJanetExample:
    @pytest.mark.parametrize("division", [Division.JANET, Division.POMMARET])
    def test_seven_element_basis(self, division):
        pf, basis = complete_text(JANET3_TEXT, division)
        _, want = system(JANET3_BASIS)
        assert norm_set(basis.elements, GRL) == norm_set(want, GRL)
        assert verify_involutive(basis)

    def test_same_basis_under_lex_main_ranking(self):
        pf, eqs = system(JANET3_TEXT)
        opts = CompletionOptions(division=Division.JANET, main=Ranking("lex"))
        basis = minimal_involutive_basis(eqs, opts)
        _, want = system(JANET3_BASIS)
        assert norm_set(basis.elements, GRL) == norm_set(want, GRL)

    def test_lex_induced_contains_table_and_verifies(self):
        pf, basis = complete_text(JANET3_TEXT, Division.LEX_INDUCED)
        _, table = system(LEX_INDUCED_TABLE)
        got = norm_set(basis.elements, GRL)
        assert norm_set(table, GRL) <= got
        assert verify_involutive(basis)
        assert groebner_oracle(list(basis.elements), GRL)

    def test_lex_induced_table_misses_one_prolongation(self):
        # the published ten rows do not close up: the x3-prolongation of the
        # element led by D[y,{2,1,0}] is irreducible, so an eleventh element
        # led by D[y,{2,1,1}] is forced
        pf, table = system(LEX_INDUCED_TABLE)
        opts = CompletionOptions(division=Division.LEX_INDUCED, main=GRL)
        ten = basis_from(table, opts)
        assert not verify_involutive(ten)
        pf, basis = complete_text(JANET3_TEXT, Division.LEX_INDUCED)
        extra = norm_set(basis.elements, GRL) - norm_set(table, GRL)
        _, eleventh = system(LEX_INDUCED_FORCED_ROW)
        assert extra == norm_set(eleventh, GRL)

    def test_groebner_column(self):
        pf, gb = system(GROEBNER_COLUMN)
        assert groebner_oracle(gb, GRL)

    def test_input_pair_not_groebner(self):
        pf, eqs = system(JANET3_TEXT)
        assert not groebner_oracle(eqs, GRL)

    def test_singleton_groebner(self):
        pf, eqs = system(JANET3_TEXT)
        assert groebner_oracle(eqs[:1], GRL)


class TestFourVariableExample:
    @pytest.mark.parametrize("division", [Division.JANET, Division.POMMARET])
    def test_three_equation_completion(self, division):
        pf = load_problem("fourvar.pde")
        opts = CompletionOptions(division=division, main=pf.ranking())
        basis = minimal_involutive_basis(pf.linear_system(), opts)
        _, want = system(FOURVAR_BASIS)
        assert norm_set(basis.elements, pf.ranking()) == norm_set(want, pf.ranking())


class TestLewyExample:
    @pytest.mark.parametrize("division", list(Division))
    def test_already_involutive(self, division):
        pf = load_problem("lewy.pde")
        eqs = pf.linear_system()
        opts = CompletionOptions(division=division, main=pf.ranking())
        basis = minimal_involutive_basis(eqs, opts)
        assert norm_set(basis.elements, pf.ranking()) == norm_set(eqs, pf.ranking())
        assert verify_involutive(basis)


class TestCriterion:
    def test_same_output_fewer_reductions(self):
        pf, eqs = system(JANET3_TEXT)
        results = {}
        for flag in (True, False):
            trace = []
            opts = CompletionOptions(division=Division.JANET, main=GRL,
                                     use_criterion=flag)
            basis = minimal_involutive_basis(eqs, opts, trace=trace)
            reductions = sum(1 for e in trace if not e["criterion"])
            results[flag] = (norm_set(basis.elements, GRL), reductions)
        assert results[True][0] == results[False][0]
        assert results[True][1] < results[False][1]

    def test_criterion_skips_are_recorded(self):
        pf, eqs = system(JANET3_TEXT)
        trace = []
        opts = CompletionOptions(division=Division.JANET, main=GRL)
        minimal_involutive_basis(eqs, opts, trace=trace)
        assert any(e["criterion"] for e in trace)


class TestAlgorithmProperties:
    @pytest.mark.parametrize("division", [Division.JANET, Division.LEX_INDUCED])
    def test_completion_ranking_independence(self, division):
        for text in (JANET3_TEXT, FOURVAR_BASIS):
            pf, eqs = system(text)
            out = []
            for comp_scheme in ("grlex", "lex"):
                opts = CompletionOptions(division=division, main=GRL,
                                         completion=Ranking(comp_scheme))
                out.append(norm_set(minimal_involutive_basis(eqs, opts).elements, GRL))
            assert out[0] == out[1]

    @pytest.mark.parametrize("division", list(Division))
    def test_idempotence(self, division):
        pf, basis = complete_text(JANET3_TEXT, division)
        opts = basis.options
        again = minimal_involutive_basis(list(basis.elements), opts)
        assert norm_set(again.elements, GRL) == norm_set(basis.elements, GRL)

    def test_ideal_preserved(self):
        pf, eqs = system(JANET3_TEXT)
        for division in Division:
            opts = CompletionOptions(division=division, main=GRL)
            basis = minimal_involutive_basis(eqs, opts)
            assert groebner_oracle(list(basis.elements), GRL)
            for f in eqs:
                assert conventional_normal_form(f, list(basis.elements), GRL).is_zero()

    def test_minimality(self):
        pf, basis = complete_text(JANET3_TEXT, Division.JANET)
        from involute import in_involutive_cone, separations
        sets = basis.monomial_sets()
        for j, us in sets.items():
            seps = separations(us, Division.JANET)
            for u in us:
                others = [v for v in us if v != u]
                assert not any(in_involutive_cone(u, v, seps[v].multiplicative)
                               for v in others)

    def test_cap_exceeded_carries_partial(self):
        pf, eqs = system(JANET3_TEXT)
        opts = CompletionOptions(division=Division.JANET, main=GRL, cap=2)
        with pytest.raises(CapExceeded) as err:
            minimal_involutive_basis(eqs, opts)
        assert len(err.value.partial.elements) >= 2

    def test_rejects_empty_input(self):
        pf, eqs = system(JANET3_TEXT)
        with pytest.raises(ValueError):
            minimal_involutive_basis([], CompletionOptions())

    @pytest.mark.parametrize("build", [minimal_involutive_basis, basis_from])
    def test_one_message_for_an_empty_system(self, build):
        pf, eqs = system(JANET3_TEXT)
        with pytest.raises(ValueError, match="^input system is empty or all zero$"):
            build([eqs[0] - eqs[0]], CompletionOptions())

    def test_basis_from_makes_elements_monic_and_rejects_shared_leaders(self):
        pf, eqs = system(JANET3_TEXT)
        opts = CompletionOptions(main=GRL)
        doubled = basis_from([eqs[0] + eqs[0]], opts)
        assert doubled.elements == (eqs[0].normalize(GRL),)
        with pytest.raises(ValueError, match="not pairwise distinct"):
            basis_from([eqs[0], eqs[0] + eqs[0]], opts)


class TestPartialInvolutivity:
    def test_gradations(self):
        pf, eqs = system(JANET3_TEXT)
        opts = CompletionOptions(division=Division.JANET, main=GRL)
        incomplete = basis_from(eqs, opts)
        assert not verify_involutive(incomplete)
        leaders = list(incomplete.leaders)
        # below every leader: vacuous
        low = leaders[-1]
        from involute import Derivative, MultiIndex
        bottom = Derivative(0, MultiIndex((0, 0, 0)))
        assert verify_partial_involutive(incomplete, bottom)
        # far above every prolongation: same as the full check
        top = Derivative(0, MultiIndex((9, 9, 9)))
        assert verify_partial_involutive(incomplete, top) == verify_involutive(incomplete)
        # the completed basis is partially involutive up to anything
        basis = minimal_involutive_basis(eqs, opts)
        assert verify_partial_involutive(basis, top)
        assert verify_partial_involutive(basis, bottom)

    def test_strict_threshold(self):
        # the input pair fails first at the x1-prolongation of D[y,{0,2,0}],
        # whose leader is D[y,{1,2,0}]: checks strictly below it still pass
        pf, eqs = system(JANET3_TEXT)
        opts = CompletionOptions(division=Division.JANET, main=GRL)
        incomplete = basis_from(eqs, opts)
        from involute import Derivative, MultiIndex
        at = Derivative(0, MultiIndex((1, 2, 0)))
        above = Derivative(0, MultiIndex((1, 2, 1)))
        assert verify_partial_involutive(incomplete, at)
        assert not verify_partial_involutive(incomplete, above)

    def test_s_polynomial_definition(self):
        pf, eqs = system(JANET3_TEXT)
        f, g = (e.normalize(GRL) for e in eqs)
        s = s_polynomial(f, g, GRL)
        gamma = f.ld(GRL).lcm(g.ld(GRL))
        assert s == (f.prolong(gamma.index / f.ld(GRL).index)
                     - g.prolong(gamma.index / g.ld(GRL).index))

    def test_s_polynomial_of_two_functions(self):
        _, (f, g) = system("vars: x1 x2\nfuncs: y z\neq: D[y,{1,0}]\neq: D[z,{0,1}]\n")
        with pytest.raises(ValueError) as err:
            s_polynomial(f, g, GRL)
        assert str(err.value) == "S-polynomial requires leaders of the same function"


class TestChainCriterionDirect:
    def _setup(self, division=Division.JANET):
        from involute.completion import Triple, _cone_indexes
        pf, eqs = system(JANET3_BASIS)
        G = [f.normalize(GRL) for f in eqs]
        triples = {f.ld(GRL): Triple(f, f.ld(GRL), set(), i, f.ld(GRL))
                   for i, f in enumerate(G)}
        return G, triples, _cone_indexes(triples, division)

    def test_empty_triples(self):
        from involute import chain_criterion
        pf, eqs = system(JANET3_TEXT)
        f = eqs[0].normalize(GRL)
        assert not chain_criterion(f.ld(GRL), f.ld(GRL), {}, {}, GRL, GRL.key(f.ld(GRL)))

    def test_lcm_of_equal_ancestors(self):
        # an element whose leader equals another's leader with ancestor equal
        # to theta fires exactly when theta ranks below the leader
        from involute import chain_criterion
        G, triples, indexes = self._setup()
        f = G[0]  # any basis element; probe its own leader with a low theta
        low = G[-1].ld(GRL)
        probe = f
        fired = chain_criterion(probe.ld(GRL), low, triples, indexes, GRL,
                                GRL.key(probe.ld(GRL)))
        theta = low.lcm(f.ld(GRL)) if low.indet == f.ld(GRL).indet else low
        assert fired == (GRL.key(theta) < GRL.key(f.ld(GRL)))

    def test_different_functions_never_fire(self):
        from involute import chain_criterion
        from involute.completion import Triple, _cone_indexes
        pf = None
        _, eqs = system("""
            vars: x1 x2
            funcs: u v
            eq: D[u,{1,0}]
            eq: D[v,{1,0}]
        """)
        G = [f.normalize(GRL) for f in eqs]
        triples = {G[1].ld(GRL): Triple(G[1], G[1].ld(GRL), set(), 0, G[1].ld(GRL))}
        probe = G[1].prolong((0, 1))
        # ancestor theta belongs to the other function: must not fire
        assert not chain_criterion(probe.ld(GRL), G[0].ld(GRL), triples,
                                   _cone_indexes(triples, Division.JANET), GRL,
                                   GRL.key(probe.ld(GRL)))


class TestChainCriterionLeaders:
    def test_no_leader_derived_per_call(self, monkeypatch):
        # the loop passes the leader its candidate entry holds, and triples
        # carry theirs: the criterion derives none
        from involute import LinearDiffPoly, completion
        pf, eqs = system((PROBLEMS / "janet3.pde").read_text())
        opts = CompletionOptions(division=Division.JANET, main=pf.ranking())
        real_ld, real_criterion = LinearDiffPoly.ld, completion.chain_criterion
        inside, per_call, sizes = [False], [], []

        def ld(self, ranking):
            if inside[0]:
                per_call[-1] += 1
            return real_ld(self, ranking)

        def criterion(lead, theta, triples, *rest):
            per_call.append(0)
            sizes.append(len(triples))
            inside[0] = True
            try:
                return real_criterion(lead, theta, triples, *rest)
            finally:
                inside[0] = False

        monkeypatch.setattr(LinearDiffPoly, "ld", ld)
        monkeypatch.setattr(completion, "chain_criterion", criterion)
        minimal_involutive_basis(eqs, opts)
        assert per_call and max(sizes) > 1
        assert max(per_call) == 0

    def test_loop_derives_one_leader_per_triple_made(self, monkeypatch):
        # ld is called once per input equation and once per adjoined normal
        # form, the two sources of triples; never on a prolongation
        from involute import LinearDiffPoly, completion
        pf = load_problem("janet3.pde")
        opts = CompletionOptions(division=Division.JANET, main=Ranking("lex"), completion=GRL)
        real_ld, real_triple = LinearDiffPoly.ld, completion.Triple
        calls, made = [0], [0]

        def ld(self, ranking):
            calls[0] += 1
            return real_ld(self, ranking)

        class CountingTriple(real_triple):
            def __init__(self, *args):
                super().__init__(*args)
                made[0] += 1

        monkeypatch.setattr(LinearDiffPoly, "ld", ld)
        monkeypatch.setattr(completion, "Triple", CountingTriple)
        minimal_involutive_basis(pf.linear_system(), opts)
        assert calls[0] == made[0] == 16


class TestProlongationKeyMemo:
    def test_scan_derives_each_prolongation_leader_once(self, monkeypatch):
        # the leader of (triple, x) is derived when x turns nonmultiplicative
        # for the triple and its candidate is queued, not on each examination;
        # on this input that is at most once per triple made
        import sys
        from collections import Counter
        from involute import Derivative, completion
        # the seed-7 recipe set (4,5,5): its lex-induced completion examines
        # 141 prolongations, so a cap of 100 stops the loop midway
        pf, eqs = system("vars: x1 x2 x3 x4\nfuncs: y\n" + "".join(
            "eq: D[y,{%s}]\n" % ",".join(map(str, u))
            for u in [(1, 0, 0, 3), (3, 0, 1, 0), (4, 3, 0, 4), (0, 1, 5, 5), (4, 0, 4, 4)]))
        opts = CompletionOptions(division=Division.LEX_INDUCED, main=pf.ranking(), cap=100)
        with pytest.raises(CapExceeded) as plain:
            minimal_involutive_basis(eqs, opts)

        made, derived = Counter(), Counter()
        real_triple, real_differentiate = completion.Triple, Derivative.differentiate

        class CountingTriple(real_triple):
            def __init__(self, poly, ancestor, processed, serial, leader, key=None):
                super().__init__(poly, ancestor, processed, serial, leader, key)
                made[leader] += 1

        def differentiate(self, i):
            if sys._getframe(1).f_globals.get("__name__") == "involute.completion":
                derived[self, i] += 1
            return real_differentiate(self, i)

        monkeypatch.setattr(completion, "Triple", CountingTriple)
        monkeypatch.setattr(Derivative, "differentiate", differentiate)
        with pytest.raises(CapExceeded) as counted:
            minimal_involutive_basis(eqs, opts)
        assert derived
        assert all(k <= made[d] for (d, _), k in derived.items())
        got, want = counted.value.partial, plain.value.partial
        assert got.elements == want.elements
        assert got.prolongations_examined == want.prolongations_examined == opts.cap + 1


def _trace_pin(eqs, ctx, opts):
    """(trace length, prolongations examined, digest of the trace entries)."""
    trace = []
    basis = minimal_involutive_basis(eqs, opts, trace=trace)
    text = json.dumps([dict(e, leader=e["leader"].format(ctx)) for e in trace])
    return len(trace), basis.prolongations_examined, hashlib.sha256(text.encode()).hexdigest()[:16]


class TestTracePins:
    """The order in which the loop examines prolongations and merges queue
    elements.  Every input displaces elements back to the queue, and the
    completion ranking differs from the main one, so the gate (only
    prolongations ranked below the lowest queue element) picks out of order."""

    @pytest.mark.parametrize("name, division, pin", [
        ("janet3.pde", Division.JANET, (27, 18, "b42ce7d5003642e0")),
        # under Pommaret the loop runs under Janet: the same trace
        ("janet3.pde", Division.POMMARET, (27, 18, "b42ce7d5003642e0")),
        ("janet3.pde", Division.LEX_INDUCED, (28, 16, "164f485098b013e6")),
    ])
    def test_janet3_lex_main_grlex_completion(self, name, division, pin):
        pf = load_problem(name)
        opts = CompletionOptions(division=division, main=Ranking("lex"), completion=GRL)
        assert _trace_pin(pf.linear_system(), pf.context(), opts) == pin

    @pytest.mark.parametrize("division, pin", [
        (Division.JANET, (7, 4, "5bcf149ef47b8571")),
        (Division.POMMARET, (7, 4, "5bcf149ef47b8571")),
        (Division.LEX_INDUCED, (6, 3, "9d54ed90052bddfa")),
    ])
    def test_fourvar_grlex_main_lex_completion(self, division, pin):
        pf = load_problem("fourvar.pde")
        opts = CompletionOptions(division=division, main=GRL, completion=Ranking("lex"))
        assert _trace_pin(pf.linear_system(), pf.context(), opts) == pin

    @pytest.mark.parametrize("completion, pin", [
        (None, (93, 19, "a1e02e869caa6b6b")),
        (Ranking("lex"), (104, 28, "d96fef4463fcac0d")),
    ])
    def test_diffusion_determining_system(self, completion, pin):
        ctx, eqs = determining_system(load_problem("diffusion.pde").symmetry_problem())
        opts = CompletionOptions(main=GRL, completion=completion)
        assert _trace_pin(eqs, ctx, opts) == pin


class TestPommaretReadsTheJanetRun:
    """Under Pommaret division the loop runs once, under Janet, and its basis
    is read under Pommaret, or raises NoFiniteBasis with it attached."""

    @pytest.mark.parametrize("name", ["fourvar.pde", "janet3.pde", "lewy.pde",
                                      "pommaret_basis.pde", "quotient_sums.pde"])
    def test_the_janet_basis_with_pommaret_separations(self, monkeypatch, name):
        freeze_pommaret_indexes(monkeypatch)
        pf = load_problem(name)
        opts = CompletionOptions(division=Division.POMMARET, main=pf.ranking())
        basis = minimal_involutive_basis(pf.linear_system(), opts)
        janet = minimal_involutive_basis(pf.linear_system(), opts._replace(division=Division.JANET))
        assert basis.options.division is Division.POMMARET
        assert basis.elements == janet.elements and basis.leaders == janet.leaders
        assert basis.prolongations_examined == janet.prolongations_examined
        # the Pommaret cones of a Pommaret basis lie in its Janet cones, and
        # both partition the leading ideal: the separations agree
        assert basis.separations == janet.separations
        assert verify_involutive(basis)

    def test_a_failing_verdict_keeps_the_janet_partial(self, monkeypatch):
        freeze_pommaret_indexes(monkeypatch)
        pf = load_problem("example1.pde")
        opts = CompletionOptions(division=Division.POMMARET, main=pf.ranking())
        with pytest.raises(NoFiniteBasis) as err:
            minimal_involutive_basis(pf.linear_system(), opts)
        janet = minimal_involutive_basis(pf.linear_system(), opts._replace(division=Division.JANET))
        assert err.value.partial.options.division is Division.JANET
        assert err.value.partial.elements == janet.elements

    @pytest.mark.parametrize("cap", [1, 3])
    def test_a_capped_janet_run_ends_the_run(self, monkeypatch, cap):
        # one CapExceeded, the Janet run's, after cap + 1 examinations
        raised = []

        class Counted(CapExceeded):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                raised.append(self)

        monkeypatch.setattr(completion, "CapExceeded", Counted)
        pf = load_problem("example1.pde")
        opts = CompletionOptions(division=Division.POMMARET, main=pf.ranking(), cap=cap)
        with pytest.raises(CapExceeded) as err:
            minimal_involutive_basis(pf.linear_system(), opts)
        assert raised == [err.value] and not isinstance(err.value, NoFiniteBasis)
        assert err.value.partial.options.division is Division.JANET
        assert err.value.partial.prolongations_examined == cap + 1


class TestFractionFreeLoop:
    def test_completion_does_no_rational_function_arithmetic(self, monkeypatch):
        # 13 of the 31 NLS determining equations, each primitive, have leading
        # coefficients that are not constants; from the inputs to the monic
        # basis that _basis_of builds, the loop works on polynomial coefficients only
        problem = parse_problem((PROBLEMS.parent / "perfbench" / "inputs" / "nls.pde").read_text())
        _, eqs = determining_system(problem.symmetry_problem())
        main = Ranking("degrevlex")
        assert sum(not f.terms[f.ld(main)].num.is_constant() for f in eqs) == 13
        calls = {"loop": 0, "basis": 0}
        where = ["loop"]
        for name in ("__init__", "__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                     "__pow__", "inverse", "partial"):
            def counted(*args, _inner=getattr(RationalFunction, name), **kw):
                calls[where[-1]] += 1
                return _inner(*args, **kw)
            monkeypatch.setattr(RationalFunction, name, counted)
        basis_of = completion._basis_of

        def fenced(*args, **kw):
            where.append("basis")
            try:
                return basis_of(*args, **kw)
            finally:
                where.pop()

        monkeypatch.setattr(completion, "_basis_of", fenced)
        basis = minimal_involutive_basis(eqs, CompletionOptions(main=main))
        assert calls["loop"] == 0
        assert calls["basis"] > 0 and len(basis) > 0

    def test_monic_basis_takes_no_gcd_for_the_leader(self, monkeypatch):
        # the leader's coefficient over itself is 1, and y's coefficient 1
        # over x is reduced: making x*D[y,x] + y monic needs no gcd
        from involute import diffpoly, scalars
        calls = []
        for module in (scalars, diffpoly, completion):
            def counted(*args, _inner=module.poly_gcd):
                calls.append(args)
                return _inner(*args)
            monkeypatch.setattr(module, "poly_gcd", counted)
        pf, eqs = system("vars: x\nfuncs: y\neq: x*D[y,x] + y\n")
        basis = minimal_involutive_basis(eqs, CompletionOptions(main=pf.ranking()))
        assert basis.format() == "D[y,{1}] + 1/x*y"
        assert calls == []


class TestMultipliersKeptAsAList:
    """The pseudo-division multipliers of a normal form are listed, not
    multiplied: only the public normal forms read them."""

    def test_normal_forms_build_no_product_of_multipliers(self, monkeypatch):
        # the NLS determining system has leading coefficients that are not
        # constants, so its normal forms pseudo-divide
        problem = parse_problem((PROBLEMS.parent / "perfbench" / "inputs" / "nls.pde").read_text())
        _, eqs = determining_system(problem.symmetry_problem())
        reduce_code = completion._reduce.__code__
        calls = {"__mul__": [], "poly_gcd": []}

        def from_reduce(name, inner):
            def counted(*args):
                if sys._getframe(1).f_code is reduce_code:
                    calls[name].append(args)
                return inner(*args)
            return counted

        monkeypatch.setattr(MultivarPolynomial, "__mul__",
                            from_reduce("__mul__", MultivarPolynomial.__mul__))
        # _reduce takes a gcd only for a leading coefficient that is not 1
        monkeypatch.setattr(completion, "poly_gcd", from_reduce("poly_gcd", completion.poly_gcd))
        minimal_involutive_basis(eqs, CompletionOptions(main=Ranking("degrevlex")))
        assert any(not lc.is_constant() for lc, _ in calls["poly_gcd"])
        assert calls["__mul__"] == []

    def test_public_normal_forms_divide_by_every_multiplier(self):
        # x1*D[y,x1] - y reduces D[y,{3,0}] in two steps, each multiplying by x1
        pf, eqs = system("vars: x1 x2\nfuncs: y\neq: x1*D[y,{1,0}] - y\n")
        p = system("vars: x1 x2\nfuncs: y\neq: D[y,{3,0}] + D[y,{0,1}]\n")[1][0]
        nf = involutive_normal_form(p, eqs, Division.JANET, pf.ranking())
        assert nf == conventional_normal_form(p, eqs, pf.ranking())
        assert nf.format(pf.ranking()) == "D[y,{0,1}]"


class TestStoredLeaders:
    def test_leading_reads_the_leaders_the_loop_derived(self, monkeypatch):
        from involute.analysis import hilbert_data
        from involute.diffpoly import LinearDiffPoly
        pf, eqs = system((PROBLEMS / "janet3.pde").read_text())
        basis = minimal_involutive_basis(eqs, CompletionOptions(main=pf.ranking()))
        expect = [f.ld(basis.options.main) for f in basis.elements]
        calls = []
        ld = LinearDiffPoly.ld
        monkeypatch.setattr(LinearDiffPoly, "ld", lambda *a: calls.append(a) or ld(*a))
        assert list(basis.leaders) == expect
        assert basis.monomial_sets() == {0: tuple(sorted(d.index for d in expect))}
        hilbert_data(basis)
        assert calls == []


class TestSeparationCache:
    """The completion loop re-files separations only when the basis changes,
    in place through its cone indexes, and never calls ``separations()``."""

    @pytest.mark.parametrize("text, division", [
        ((PROBLEMS / "janet3.pde").read_text(), Division.JANET),
        (JANET3_TEXT, Division.LEX_INDUCED),
    ])
    def test_separations_once_per_basis_change(self, monkeypatch, text, division):
        from involute import monomial
        pf, eqs = system(text)
        opts = CompletionOptions(division=division, main=pf.ranking())
        plain = minimal_involutive_basis(eqs, opts)

        passes, calls = [], []
        real_pass, real = monomial._lex_induced_separations, monomial.separations

        def counting_pass(U, running):
            passes.append((len(U), any(running)))
            return real_pass(U, running)

        def counting(U, kind):
            calls.append(kind)
            return real(U, kind)

        monkeypatch.setattr(monomial, "_lex_induced_separations", counting_pass)
        monkeypatch.setattr(monomial, "separations", counting)
        trace = []
        basis = minimal_involutive_basis(eqs, opts, trace=trace)
        # G grows by at most one element per added prolongation and per queue
        # merge not skipped by the criterion; each such change, with the
        # displacement it causes, is at most one lex-induced separation pass
        # per function, over the tips from the lowest one that came or went,
        # while Janet separations are read off the sorted tips with no such pass
        changes = sum(1 for e in trace
                      if e.get("result") == "added"
                      or (e["stage"] == "queue" and not e["criterion"]))
        assert not calls
        if division is Division.JANET:
            assert not passes
        else:
            assert 1 <= len(passes) <= pf.context().m * (1 + changes)
            # some change re-separates fewer tips than the whole set: the tips
            # ahead of its run have a nonzero column maximum
            assert any(ahead for _, ahead in passes)
        assert basis.elements == plain.elements
        assert basis.separations == plain.separations
        assert basis.prolongations_examined == plain.prolongations_examined


class TestVerifySingleton:
    @pytest.mark.parametrize("division", list(Division))
    def test_single_equation(self, division):
        pf, eqs = system("""
            vars: x1 x2 x3
            funcs: y
            eq: D[y,{1,0,0}]
        """)
        opts = CompletionOptions(division=division, main=GRL)
        assert verify_involutive(basis_from(eqs, opts))


class TestRandomSystems:
    def test_random_linear_systems_complete_cleanly(self):
        import random
        from involute import (Context, Derivative, LinearDiffPoly, MultiIndex,
                              RationalFunction, hilbert_data)
        from conftest import hf_bruteforce
        rng = random.Random(97)
        ctx = Context(("x1", "x2"), ("u",))
        done = 0
        while done < 12:
            eqs = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    d = Derivative(0, MultiIndex((rng.randint(0, 2), rng.randint(0, 2))))
                    c = RationalFunction.const(2, rng.randint(-3, 3))
                    if not c.is_zero():
                        terms[d] = c
                if terms:
                    eqs.append(LinearDiffPoly(ctx, terms))
            if not eqs:
                continue
            for division in (Division.JANET, Division.LEX_INDUCED):
                opts = CompletionOptions(division=division, main=GRL, cap=3000)
                try:
                    basis = minimal_involutive_basis(eqs, opts)
                except CapExceeded:
                    continue
                assert verify_involutive(basis)
                assert groebner_oracle(list(basis.elements), GRL)
                again = minimal_involutive_basis(list(basis.elements), opts)
                assert norm_set(again.elements, GRL) == norm_set(basis.elements, GRL)
                data = hilbert_data(basis)
                for s in range(data.stabilization + 3):
                    assert data.hf(s) == hf_bruteforce(basis, s)
            done += 1

    def test_presentation_sorted_descending(self):
        pf, basis = complete_text(JANET3_TEXT, Division.JANET)
        keys = [GRL.key(f.ld(GRL)) for f in basis.elements]
        assert keys == sorted(keys, reverse=True)
