import bisect
import hashlib
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from involute import (CapExceeded, CompletionOptions, Division, MultiIndex,
                      NoFiniteBasis, Ranking, autoreduce, axioms_check, cartan_characters,
                      complementary_decomposition, complete, in_cone,
                      is_involutive, minimal_involutive_basis, monomials_up_to,
                      quasi_stability_witness, separations)
from involute import monomial
from involute.monomial import ConeIndex, in_involutive_cone
from conftest import (complete_bruteforce, cones_pairwise_disjoint_bruteforce,
                      decomposition_exact_bruteforce, involutive_divisors_bruteforce, mi,
                      pommaret_completion_bruteforce, system)

EX1 = (mi(2, 0, 1), mi(1, 1, 0), mi(1, 0, 2))


class TestSeparations:
    # all nine table cells for the three-element set
    TABLE = {
        Division.JANET: {mi(2, 0, 1): {0, 1, 2}, mi(1, 1, 0): {1, 2},
                         mi(1, 0, 2): {2}},
        Division.POMMARET: {mi(2, 0, 1): {2}, mi(1, 1, 0): {1, 2},
                            mi(1, 0, 2): {2}},
        Division.LEX_INDUCED: {mi(2, 0, 1): {0}, mi(1, 1, 0): {0, 1},
                               mi(1, 0, 2): {0, 1, 2}},
    }

    @pytest.mark.parametrize("kind", list(Division))
    def test_table(self, kind):
        seps = separations(EX1, kind)
        for u, mult in self.TABLE[kind].items():
            assert seps[u].multiplicative == frozenset(mult)
            assert seps[u].nonmultiplicative == frozenset(range(3)) - frozenset(mult)

    def test_pommaret_unit(self):
        assert separations([mi(0, 0, 0)], Division.POMMARET)[
            mi(0, 0, 0)].multiplicative == frozenset(range(3))

    @pytest.mark.parametrize("kind", list(Division))
    def test_partition(self, kind):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 4)
            U = {MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(rng.randint(1, 6))}
            for u, sep in separations(U, kind).items():
                assert sep.multiplicative | sep.nonmultiplicative == frozenset(range(n))
                assert not sep.multiplicative & sep.nonmultiplicative


def multiplicative_by_definition(U, kind):
    """Multiplicative variables of each element of U, straight from the rules."""
    U = set(U)
    n = len(next(iter(U)))
    out = {}
    for u in U:
        if kind is Division.LEX_INDUCED:
            # x_i is nonmultiplicative iff some v <_lex u has v_i > u_i
            nonmult = {i for v in U if v < u for i in range(n) if u[i] < v[i]}
            out[u] = set(range(n)) - nonmult
        elif kind is Division.JANET:
            # x_i is multiplicative iff u_i is maximal among the elements
            # agreeing with u in the first i exponents
            out[u] = {i for i in range(n)
                      if u[i] == max(v[i] for v in U if v[:i] == u[:i])}
        else:
            # x_i is multiplicative iff no variable after x_i occurs in u
            trailing = max((i for i in range(n) if u[i]), default=0)
            out[u] = set(range(trailing, n))
    return out


@st.composite
def monomial_lists(draw):
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, 5)] * n)
    # lists: unsorted, and duplicates are drawn on purpose
    base = draw(st.lists(vector, min_size=1, max_size=8))
    return base + draw(st.lists(st.sampled_from(base), max_size=3))


@settings(max_examples=300, deadline=None)
@given(monomial_lists())
@example([(3,), (0,), (5,), (3,)])
@example([(1, 0, 2), (2, 0, 1), (1, 1, 0), (2, 0, 1)])
def test_separations_match_definitions(U):
    for kind in Division:
        want = multiplicative_by_definition(U, kind)
        got = separations(U, kind)
        assert set(got) == set(want)
        for u, sep in got.items():
            assert sep.multiplicative == frozenset(want[u])


def grown_index(tips, kind):
    """A cone index filled one tip at a time through ``add``, as ``complete``
    fills its index, checking what each addition reports as changed."""
    index = ConeIndex(kind)
    for k, u in enumerate(tips):
        before = dict(index.filed)
        changed = dict(index.add(u))
        for v, sep in separations(tips[:k + 1], kind).items():
            old = before.get(v, frozenset())
            # axiom (d): adding a tip only shrinks the others' multiplicative sets
            assert old <= sep.nonmultiplicative
            assert changed.get(v, frozenset()) == sep.nonmultiplicative - old
    return index


@settings(max_examples=300, deadline=None)
@given(monomial_lists(), st.data())
@example([(3,), (0,), (5,), (3,)], None)
@example([(1, 0, 2), (2, 0, 1), (1, 1, 0), (2, 0, 1)], None)
def test_cone_index_matches_brute_force(U, data):
    n = len(U[0])
    for kind in Division:
        seps = separations(U, kind)
        tips = list(seps)
        # the grown index files the tips in a drawn order, so re-files come in any order
        order = tips if data is None else data.draw(st.permutations(tips))
        indexes = [ConeIndex(kind, tips), grown_index(order, kind)]

        def check(w, skip=None):
            want = [v for v in tips
                    if v is not skip and in_involutive_cone(w, v, seps[v].multiplicative)]
            for index in indexes:
                assert sorted(index.divisors(w, skip)) == sorted(want)
                assert index.covers(w, skip) == bool(want)

        queries = [] if data is None else data.draw(
            st.lists(st.tuples(*[st.integers(0, 7)] * n), max_size=6))
        for w in queries:
            check(w)
        for u in tips:
            check(u, skip=u)
            check(u)
            for i in range(n):
                check(u[:i] + (u[i] + 1,) + u[i + 1:])


@st.composite
def toggle_runs(draw):
    n = draw(st.integers(1, 4))
    # few distinct monomials, so that runs revisit tips and remove them
    return draw(st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=16))


def filed_by_definition(U, kind):
    """The nonmultiplicative set of each element of U, from the definitions."""
    return {u: frozenset(range(len(u))) - frozenset(mult)
            for u, mult in (multiplicative_by_definition(U, kind) if U else {}).items()}


def divisors_by_definition(w, U, kind):
    mult = multiplicative_by_definition(U, kind) if U else {}
    return sorted(v for v in U if in_involutive_cone(w, v, mult[v]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(toggle_runs())
def test_cone_index_add_and_remove_keep_separations(run):
    # each step adds a monomial that is not a tip and removes one that is
    n = len(run[0])
    for kind in Division:
        index, tips = ConeIndex(kind), set()
        for u in map(MultiIndex, run):
            if u in tips:
                tips.remove(u)
                index.remove(u)
            else:
                tips.add(u)
                index.add(u)
            assert index.tips == sorted(tips)
            assert index.filed == filed_by_definition(tips, kind)
            queries = set(tips) | {v.prolongation(i) for v in tips for i in range(n)}
            for w in queries:
                assert sorted(index.divisors(w)) == divisors_by_definition(w, tips, kind)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(toggle_runs(), st.data())
def test_cone_index_drops_several_tips_at_once(run, data):
    # remove(*vs) and add(v, drop) file the tips as the definitions do
    tips = sorted(set(map(MultiIndex, run)))
    drop = data.draw(st.lists(st.sampled_from(tips), unique=True))
    kept = [u for u in tips if u not in drop]
    v = MultiIndex(data.draw(st.tuples(*[st.integers(0, 3)] * len(tips[0]))))
    for kind in Division:
        index = ConeIndex(kind, tips)
        index.remove(*drop)
        assert index.tips == kept
        assert index.filed == filed_by_definition(kept, kind)
        if v not in kept:
            index = ConeIndex(kind, tips)
            index.add(v, drop)
            assert index.tips == sorted(kept + [v])
            assert index.filed == filed_by_definition(index.tips, kind)
            for w in index.tips:
                assert sorted(index.divisors(w)) == divisors_by_definition(w, index.tips, kind)


class RefileSpy(ConeIndex):
    """A cone index that keeps the tips its last re-filing pass was given."""

    __slots__ = ("refiled",)

    def _refile(self, tips):
        self.refiled = list(tips)
        return super()._refile(tips)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(toggle_runs())
def test_cone_index_refiles_only_what_a_change_can_reach(run):
    # Janet: exactly the tips whose separation changes, the added tip among
    # them; lex-induced and Pommaret: those tips and others, the run from the
    # tip that came or went to the first tip past it where the tips before,
    # u aside, dominate u in every column; under Pommaret only an added tip changes
    for kind in Division:
        index = RefileSpy(kind)
        for u in map(MultiIndex, run):
            before = dict(index.filed)
            if u in before:
                index.remove(u)
            else:
                index.add(u)
            tips = index.tips
            changed = {v for v in tips if index.filed[v] != before.get(v)}
            if kind is Division.JANET:
                assert set(index.refiled) == changed
            else:
                assert changed <= set(index.refiled)
                lo = bisect.bisect_left(tips, u)
                end = next((k for k in range(lo + (u in tips), len(tips)) if all(
                    max((v[i] for v in tips[:k] if v != u), default=0) >= u[i]
                    for i in range(len(u)))), len(tips))
                assert index.refiled == tips[lo:end]
            if kind is Division.POMMARET:
                assert changed == (set() if u in before else {u})


class TestInvolutiveDivides:
    @staticmethod
    def divides(u, w, kind):
        """Whether u, an element of EX1, involutively divides w."""
        return in_involutive_cone(w, u, separations(EX1, kind)[u].multiplicative)

    def test_nonmultiplicative_direction(self):
        assert not self.divides(mi(1, 1, 0), mi(2, 1, 0), Division.JANET)

    def test_reflexive(self):
        for kind in Division:
            for u in EX1:
                assert self.divides(u, u, kind)

    def test_lex_induced_free_cone(self):
        assert self.divides(mi(1, 0, 2), mi(1, 3, 5), Division.LEX_INDUCED)


class TestAutoreduce:
    def test_example_set_is_reduced(self):
        assert set(autoreduce(EX1, Division.JANET)) == set(EX1)
        assert cones_pairwise_disjoint_bruteforce(list(EX1), Division.JANET)

    def test_empty(self):
        assert autoreduce((), Division.JANET) == ()

    def test_pommaret_discard(self):
        assert autoreduce([mi(1, 0), mi(1, 1)], Division.POMMARET) == (mi(1, 0),)

    @pytest.mark.parametrize("kind", list(Division))
    def test_output_disjoint(self, kind):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 3)
            U = {MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(rng.randint(1, 6))}
            red = autoreduce(U, kind)
            assert cones_pairwise_disjoint_bruteforce(list(red), kind)


class TestComplete:
    def test_janet_adds_one(self):
        res = complete(EX1, Division.JANET)
        assert set(res) == set(EX1) | {mi(2, 1, 0)}
        assert complete_bruteforce(list(EX1), list(res), Division.JANET)

    def test_lex_induced_adds_one(self):
        res = complete(EX1, Division.LEX_INDUCED)
        assert set(res) == set(EX1) | {mi(1, 1, 1)}
        assert complete_bruteforce(list(EX1), list(res), Division.LEX_INDUCED)

    def test_pommaret_cap(self):
        with pytest.raises(CapExceeded) as err:
            complete(EX1, Division.POMMARET, cap=100)
        assert len(err.value.partial) > len(EX1)

    def test_noetherian_divisions_terminate(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 3)
            U = {MultiIndex(tuple(rng.randint(0, 4) for _ in range(n)))
                 for _ in range(rng.randint(1, 5))}
            for kind in (Division.JANET, Division.LEX_INDUCED):
                res = complete(U, kind, cap=5000)
                assert is_involutive(res, kind)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=4)))
@example([(2, 0, 1), (1, 1, 0), (1, 0, 2)])
@example([(0, 0)])
def test_quasi_stability_decides_pommaret_finiteness(U):
    # a finite Pommaret completion of sets this small had at most 13 elements
    # in 2 300 random sets tried, so a cap of 300 separates the two cases
    brute = pommaret_completion_bruteforce(U, 300)
    witness = quasi_stability_witness(U)
    assert (witness is None) == (brute is not None)
    if brute is not None:
        assert set(complete(U, Division.POMMARET)) == brute
    else:
        assert witness in U
        with pytest.raises(NoFiniteBasis) as err:
            complete(U, Division.POMMARET)
        assert err.value.partial == complete(U, Division.JANET)


RECIPE_CLASSES = ((3, 4, 5), (4, 5, 5), (5, 6, 5), (6, 6, 5), (6, 8, 6))


def _recipe_sets(count=4):
    """The first ``count`` seed-7 recipe sets (n, |U|, dmax), drawn in the
    order (3,4,5) (4,5,5) (5,6,5) (6,6,5) (6,8,6)."""
    rng = random.Random(7)
    return [[MultiIndex(rng.randint(0, dmax) for _ in range(n)) for _ in range(size)]
            for n, size, dmax in RECIPE_CLASSES[:count]]


def _loop(U, kind, scheme="grlex", cap=10000):
    """``minimal_involutive_basis``, which ``complete`` runs under grlex, on
    the equations D[y, u] = 0, u in U, under the ranking ``scheme``."""
    _, eqs = system("vars: " + " ".join(f"x{i + 1}" for i in range(len(U[0])))
                    + "\nfuncs: y\n"
                    + "".join("eq: D[y,{%s}]\n" % ",".join(map(str, u)) for u in U))
    return minimal_involutive_basis(eqs, CompletionOptions(kind, Ranking(scheme), cap=cap))


def _complete(U, kind, scheme, cap):
    """``complete(U, kind, cap=cap)``, whose ranking is grlex, under ``scheme``."""
    if scheme == "grlex":
        return complete(U, kind, cap=cap)
    try:
        return _loop(U, kind, scheme, cap).monomial_sets()[0]
    except CapExceeded as exc:
        exc.partial = exc.partial.monomial_sets()[0]
        raise


def _random_sets(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield [MultiIndex(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 5))]


def assert_complete_meets_oracles(U, kind, cap, scheme="grlex"):
    """``complete`` against the independent oracles: a finished basis lies in
    (U), is involutive and, in at most 4 variables, gives every multiple of
    U an involutive divisor up to 3 degrees past the basis; under Pommaret
    it is the enumerated completion, and the set has a finite one iff
    ``complete`` finishes.  A capped run keeps a partial basis inside (U).
    The cap counts examined prolongations: ``cap = examined`` finishes and
    one less raises."""
    try:
        res, finished = _complete(U, kind, scheme, cap), True
    except CapExceeded as err:
        res, finished = err.partial, False
    assert list(res) == sorted(set(res))
    assert all(in_cone(v, U) for v in res)
    if kind is Division.POMMARET:
        brute = pommaret_completion_bruteforce(U, 300)
        assert finished == (brute is not None)
        assert not finished or set(res) == brute
    if not finished:
        return
    assert is_involutive(res, kind)
    if len(U[0]) <= 4:
        assert complete_bruteforce(U, list(res), kind)
    examined = _loop(U, kind, scheme).prolongations_examined
    assert _complete(U, kind, scheme, max(examined, 1)) == res
    if examined > 1:
        with pytest.raises(CapExceeded):
            _complete(U, kind, scheme, examined - 1)


class TestAgreementWithDifferentialEngine:
    """``complete`` is ``minimal_involutive_basis`` on leaders; these check
    its answers against the oracles of ``assert_complete_meets_oracles``."""

    @pytest.mark.parametrize("kind", list(Division))
    def test_recipe_sets(self, kind):
        cap = 200 if kind is Division.POMMARET else 10000
        for U in _recipe_sets():
            assert_complete_meets_oracles(U, kind, cap)

    @pytest.mark.parametrize("kind", list(Division))
    @pytest.mark.parametrize("scheme, count", [("grlex", 36), ("degrevlex", 12), ("lex", 12)])
    def test_random_sets(self, kind, scheme, count):
        for U in _random_sets(count, 67):
            assert_complete_meets_oracles(U, kind, 80, scheme)

    @pytest.mark.parametrize("kind, scheme, U, size", [
        (Division.LEX_INDUCED, "grlex",
         [(2, 0, 3), (4, 0, 1), (4, 3, 2), (3, 0, 3), (0, 2, 4)], 12),
        (Division.POMMARET, "lex", [(3, 4), (2, 3), (3, 2), (0, 2), (4, 0)], 5),
    ])
    def test_queue_waits_for_lower_prolongations(self, kind, scheme, U, size):
        # the loop used to merge a queue element before the prolongations
        # ranked below it, and kept one element too many here
        U = [MultiIndex(u) for u in U]
        assert len(_complete(U, kind, scheme, 300)) == size
        assert_complete_meets_oracles(U, kind, 300, scheme)

    def test_cap_counts_distinct_prolongations(self):
        U = _recipe_sets()[1]
        assert _loop(U, Division.LEX_INDUCED).prolongations_examined == 141
        assert len(complete(U, Division.LEX_INDUCED, cap=141)) == 66
        with pytest.raises(CapExceeded, match="^completion exceeded 140 prolongation"):
            complete(U, Division.LEX_INDUCED, cap=140)


class TestExcludedRecipeSetsFinish:
    """Sets a re-scanning loop abandoned at the default cap: the minimal
    basis has a unique size, and the result is an involutive set inside (U)
    in whose cones every element of U lies."""

    def _check(self, k, kind, size):
        U = _recipe_sets(5)[k]
        res = complete(U, kind)
        assert len(res) == size
        assert is_involutive(res, kind)
        assert all(in_cone(v, U) for v in res)
        seps = separations(res, kind)
        assert all(involutive_divisors_bruteforce(u, res, kind, seps) for u in U)

    def test_janet_6_8_6(self):
        self._check(4, Division.JANET, 388)

    def test_lex_induced_5_6_5(self):
        self._check(2, Division.LEX_INDUCED, 195)


def _closed_under_witnesses(U):
    """U with each missing x_i^s * t / x_j^(t_j) added, s the largest i-th
    exponent in U, while ``quasi_stability_witness`` finds such a t."""
    U = set(U)
    while (t := quasi_stability_witness(U)) is not None:
        top = [max(u[i] for u in U) for i in range(len(t))]
        for j in range(1, len(t)):
            if t[j]:
                for i in range(j):
                    w = MultiIndex(t[:i] + (t[i] + top[i],) + t[i + 1:j] + (0,) + t[j + 1:])
                    if not in_cone(w, U):
                        U.add(w)
    return sorted(U)


class TestClosedRecipeSet:
    def test_janet_and_pommaret_give_the_same_basis(self):
        # the seed-7 (5,6,5) set, closed to a quasi-stable one, has a finite
        # Pommaret basis, and its Janet completion is the same set
        U = _closed_under_witnesses(_recipe_sets(3)[2])
        assert len(U) == 27
        janet = complete(U, Division.JANET)
        assert len(janet) == 1256
        assert janet == complete(U, Division.POMMARET)
        assert is_involutive(janet, Division.JANET)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4)))
def test_pommaret_basis_of_a_quasi_stable_set_is_its_janet_basis(U):
    # complete(U, POMMARET) reads the minimal Janet basis under Pommaret; on
    # quasi-stable sets it is the enumerated Pommaret completion
    U = _closed_under_witnesses(map(MultiIndex, U))
    assume(len(U) <= 40)
    res = complete(U, Division.POMMARET)
    assert set(res) == pommaret_completion_bruteforce(U, 2000)
    assert cones_pairwise_disjoint_bruteforce(res, Division.POMMARET)


def _digest(V):
    return hashlib.sha256(repr([tuple(v) for v in V]).encode()).hexdigest()[:16]


class TestCompleteRecipePins:
    """``complete`` on the recipe sets: sizes and digests of the lex-sorted
    minimal bases, and the Pommaret verdict on the first two sets, which have
    no finite Pommaret basis; ``TestAgreementWithDifferentialEngine`` checks
    the same sets against the oracles."""

    @pytest.mark.parametrize("k, kind, size, digest", [
        (0, Division.JANET, 4, "63a2016d45b5d898"),
        (1, Division.JANET, 5, "40e4e0d142e4783d"),
        (2, Division.JANET, 47, "9ff166065f679bc9"),
        (3, Division.JANET, 69, "24e80f0bec47871f"),
        (0, Division.LEX_INDUCED, 8, "d443a2ba0b26b0ad"),
        (1, Division.LEX_INDUCED, 66, "44cf99897ab6d407"),
    ])
    def test_completed_set(self, k, kind, size, digest):
        res = complete(_recipe_sets()[k], kind)
        assert (len(res), _digest(res)) == (size, digest)
        assert is_involutive(res, kind)

    @pytest.mark.parametrize("k, witness", [(0, "D[y,{2,1,3}]"), (1, "D[y,{0,1,5,5}]")])
    def test_pommaret_cap_partial(self, k, witness):
        U = _recipe_sets()[k]
        with pytest.raises(NoFiniteBasis) as err:
            complete(U, Division.POMMARET, cap=2000)
        assert str(err.value).endswith(f"the leaders of y are not quasi-stable "
                                       f"(witness {witness})")
        assert err.value.partial == complete(U, Division.JANET, cap=2000)


class TestComplementaryDecomposition:
    def test_janet_compact_table(self):
        U = complete(EX1, Division.JANET)
        dec = complementary_decomposition(U, Division.JANET)
        table = dict(dec.entries())
        # the three rows of the compact table
        assert table[mi(0, 0, 0)] == frozenset({1, 2})
        assert table[mi(1, 0, 0)] == frozenset()
        assert table[mi(2, 0, 0)] == frozenset({0})
        # x1*x3 is in the complement and needs its own multiplier-free cone
        assert table[mi(1, 0, 1)] == frozenset()
        assert len(table) == 4
        assert decomposition_exact_bruteforce(list(U), dec)

    def test_lex_induced_cover(self):
        U = complete(EX1, Division.LEX_INDUCED)
        dec = complementary_decomposition(U, Division.LEX_INDUCED)
        assert decomposition_exact_bruteforce(list(U), dec)
        # normalized tips: every multiplier cone sits at the set degree or above
        q = max(u.degree for u in U)
        assert all(v.degree >= q for v, mult in dec.generators if mult)

    def test_whole_ring(self):
        dec = complementary_decomposition([mi(0, 0, 0)], Division.JANET)
        assert dec.finite_part == () and dec.generators == ()

    @pytest.mark.parametrize("kind", list(Division))
    def test_random_exact_cover(self, kind):
        rng = random.Random(59)
        done = 0
        while done < 15:
            n = rng.randint(1, 3)
            U = {MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(rng.randint(1, 5))}
            try:
                U = complete(U, kind, cap=2000)
            except CapExceeded:
                continue
            dec = complementary_decomposition(U, kind)
            assert decomposition_exact_bruteforce(list(U), dec)
            done += 1


class TestCartanCharacters:
    def test_single_variable(self):
        ch = cartan_characters([mi(1)])
        assert ch.sigma == (0,)
        dec = complementary_decomposition([mi(1)], Division.POMMARET)
        assert dec.finite_part == (mi(0),)

    def test_empty_set(self):
        ch = cartan_characters((), n=2)
        assert ch.q == 0 and ch.sigma == (0, 1)

    def test_finite_complement_all_zero(self):
        U = complete([mi(2, 0, 0), mi(0, 2, 0), mi(0, 1, 2), mi(0, 0, 4)],
                     Division.POMMARET)
        ch = cartan_characters(U)
        dec = complementary_decomposition(U, Division.POMMARET)
        assert ch.sigma == (0, 0, 0)
        assert len(dec.finite_part) == 12
        assert decomposition_exact_bruteforce(list(U), dec)

    def test_requires_involutive(self):
        with pytest.raises(ValueError):
            cartan_characters(EX1)  # not pommaret-complete


class TestAxioms:
    @pytest.mark.parametrize("kind", list(Division))
    def test_example_set(self, kind):
        assert axioms_check(EX1, kind) == []

    def test_singleton(self):
        for kind in Division:
            assert axioms_check([mi(2, 1)], kind) == []

    @pytest.mark.parametrize("kind", list(Division))
    def test_randomized(self, kind):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 4)
            U = {MultiIndex(tuple(rng.randint(0, 3) for _ in range(n)))
                 for _ in range(rng.randint(1, 8))}
            assert axioms_check(U, kind) == []

    # broken rules in place of the separations, one per reported axiom; every
    # rule gives all multiplicative positions or none, so (a) holds throughout
    @pytest.mark.parametrize("rule, U, report", [
        # every variable multiplicative: the cones of x1 and x2 meet at x1*x2
        (lambda U: {u: set(range(len(u))) for u in U}, [mi(1, 0), mi(0, 1)],
         ["(b) violated for x2, x1: cones meet but neither contains the other's tip"]),
        # x1 lies in the cone of 1 but has the larger multiplicative set
        (lambda U: {u: {0, 1} if any(u) else {0} for u in U}, [mi(0, 0), mi(1, 0)],
         ["(c) violated for 1 <| x1"]),
        # multiplicative variables that only the full set grants
        (lambda U: {u: set(range(len(u))) if len(U) > 1 else set() for u in U},
         [mi(1, 0), mi(2, 0)],
         ["(d) violated for x1 in subset {x1}", "(d) violated for x1^2 in subset {x1^2}"]),
    ])
    def test_violation_reports(self, monkeypatch, rule, U, report):
        # a fresh index separates the whole set in one lex-induced pass
        monkeypatch.setattr(monomial, "_lex_induced_separations", lambda U, before: rule(U))
        assert axioms_check(U, Division.LEX_INDUCED) == report


class TestMessages:
    @pytest.mark.parametrize("call, message", [
        (lambda: MultiIndex((1, -2)), "negative exponent in (1, -2)"),
        (lambda: mi(1, 0) / mi(0, 1), "MultiIndex(0, 1) does not divide MultiIndex(1, 0)"),
        (lambda: separations([(1,), (1, 0)], Division.JANET), "monomials of mixed dimension"),
        # a division given by its name, not as a Division
        (lambda: separations([(1, 0)], "janet"), "unknown division 'janet'"),
        (lambda: complete([], Division.JANET), "empty monomial set"),
        (lambda: complementary_decomposition([], Division.JANET),
         "variable count required for an empty set"),
    ])
    def test_value_errors(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_repr(self):
        assert repr(mi(2, 0, 1)) == "MultiIndex(2, 0, 1)"
