import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from involute import (CapExceeded, CompletionOptions, Division, MultiIndex,
                      Ranking, autoreduce, axioms_check, cartan_characters,
                      complementary_decomposition, complete, in_cone,
                      involutive_divides, is_involutive,
                      minimal_involutive_basis, monomials_up_to, separation,
                      separations)
from involute.monomial import ConeIndex, in_involutive_cone
from conftest import (complete_bruteforce, cones_pairwise_disjoint_bruteforce,
                      decomposition_exact_bruteforce, mi, system)

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
        for u, mult in self.TABLE[kind].items():
            sep = separation(u, EX1, kind)
            assert sep.multiplicative == frozenset(mult)
            assert sep.nonmultiplicative == frozenset(range(3)) - frozenset(mult)
            assert sep.mu == len(mult)

    def test_pommaret_unit(self):
        assert separation(mi(0, 0, 0), [mi(0, 0, 0)],
                          Division.POMMARET).multiplicative == frozenset(range(3))

    def test_not_member(self):
        with pytest.raises(ValueError):
            separation(mi(1, 1, 1), EX1, Division.JANET)

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
            seps = separations(tips, kind)
            assert index.filed == {v: sep.nonmultiplicative for v, sep in seps.items()}
            queries = set(tips) | {v.prolongation(i) for v in tips for i in range(n)}
            for w in queries:
                want = [v for v in tips if in_involutive_cone(w, v, seps[v].multiplicative)]
                assert sorted(index.divisors(w)) == sorted(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(toggle_runs(), st.data())
def test_cone_index_drops_several_tips_at_once(run, data):
    # remove(*vs) and add(v, drop) file the tips as an index built afresh does
    tips = sorted(set(map(MultiIndex, run)))
    drop = data.draw(st.lists(st.sampled_from(tips), unique=True))
    kept = [u for u in tips if u not in drop]
    v = MultiIndex(data.draw(st.tuples(*[st.integers(0, 3)] * len(tips[0]))))
    for kind in Division:
        index = ConeIndex(kind, tips)
        index.remove(*drop)
        assert index.tips == kept
        assert index.filed == ConeIndex(kind, kept).filed
        if v not in kept:
            index = ConeIndex(kind, tips)
            index.add(v, drop)
            fresh = ConeIndex(kind, kept + [v])
            assert index.tips == fresh.tips
            assert index.filed == fresh.filed
            for w in fresh.tips:
                assert sorted(index.divisors(w)) == sorted(fresh.divisors(w))


class TestInvolutiveDivides:
    def test_nonmultiplicative_direction(self):
        assert not involutive_divides(mi(1, 1, 0), mi(2, 1, 0), EX1, Division.JANET)

    def test_reflexive(self):
        for kind in Division:
            for u in EX1:
                assert involutive_divides(u, u, EX1, kind)

    def test_lex_induced_free_cone(self):
        assert involutive_divides(mi(1, 0, 2), mi(1, 3, 5), EX1, Division.LEX_INDUCED)


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


RECIPE_CLASSES = ((3, 4, 5), (4, 5, 5), (5, 6, 5), (6, 6, 5), (6, 8, 6))


def _recipe_sets(count=4):
    """The first ``count`` seed-7 recipe sets (n, |U|, dmax), drawn in the
    order (3,4,5) (4,5,5) (5,6,5) (6,6,5) (6,8,6)."""
    rng = random.Random(7)
    return [[MultiIndex(rng.randint(0, dmax) for _ in range(n)) for _ in range(size)]
            for n, size, dmax in RECIPE_CLASSES[:count]]


def _differential(U, kind, cap, scheme="grlex"):
    """(finished, lex-sorted leaders, prolongations examined) of
    ``minimal_involutive_basis`` on the equations D[y, u] = 0, u in U."""
    _, eqs = system("vars: " + " ".join(f"x{i + 1}" for i in range(len(U[0])))
                    + "\nfuncs: y\n"
                    + "".join("eq: D[y,{%s}]\n" % ",".join(map(str, u)) for u in U))
    opts = CompletionOptions(division=kind, main=Ranking(scheme), cap=cap)
    try:
        basis, finished = minimal_involutive_basis(eqs, opts), True
    except CapExceeded as err:
        basis, finished = err.partial, False
    leaders = tuple(sorted(d.index for d in basis.leading()))
    return finished, leaders, basis.prolongations_examined


def _monomial(U, kind, cap, scheme="grlex"):
    try:
        return True, complete(U, kind, scheme, cap=cap)
    except CapExceeded as err:
        return False, err.partial


def _random_sets(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield [MultiIndex(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 5))]


def assert_engines_agree(U, kind, cap, scheme="grlex"):
    """``complete`` is ``minimal_involutive_basis`` on leaders alone: the same
    basis, the same verdict under the cap, the same partial basis when capped,
    and a cap that counts the same prolongations."""
    finished, leaders, examined = _differential(U, kind, cap, scheme)
    assert _monomial(U, kind, cap, scheme) == (finished, leaders)
    if finished:
        assert is_involutive(leaders, kind)
        assert complete(U, kind, scheme, cap=max(examined, 1)) == leaders
        if examined > 1:
            with pytest.raises(CapExceeded):
                complete(U, kind, scheme, cap=examined - 1)


class TestAgreementWithDifferentialEngine:
    @pytest.mark.parametrize("kind", list(Division))
    def test_recipe_sets(self, kind):
        cap = 200 if kind is Division.POMMARET else 10000
        for U in _recipe_sets():
            assert_engines_agree(U, kind, cap)

    @pytest.mark.parametrize("kind", list(Division))
    @pytest.mark.parametrize("scheme, count", [("grlex", 36), ("degrevlex", 12), ("lex", 12)])
    def test_random_sets(self, kind, scheme, count):
        for U in _random_sets(count, 67):
            assert_engines_agree(U, kind, 80, scheme)

    @pytest.mark.parametrize("kind, scheme, U, size", [
        (Division.LEX_INDUCED, "grlex",
         [(2, 0, 3), (4, 0, 1), (4, 3, 2), (3, 0, 3), (0, 2, 4)], 12),
        (Division.POMMARET, "lex", [(3, 4), (2, 3), (3, 2), (0, 2), (4, 0)], 5),
    ])
    def test_queue_waits_for_lower_prolongations(self, kind, scheme, U, size):
        # the differential loop used to merge a queue element before the
        # prolongations ranked below it, and kept one element too many here
        U = [MultiIndex(u) for u in U]
        finished, leaders, _ = _differential(U, kind, 300, scheme)
        assert finished and len(leaders) == size
        assert_engines_agree(U, kind, 300, scheme)

    def test_cap_counts_distinct_prolongations(self):
        U = _recipe_sets()[1]
        assert _differential(U, Division.LEX_INDUCED, 10000)[2] == 141
        assert len(complete(U, Division.LEX_INDUCED, cap=141)) == 66
        with pytest.raises(CapExceeded, match="^completion exceeded 140 prolongation"):
            complete(U, Division.LEX_INDUCED, cap=140)


class TestExcludedRecipeSetsFinish:
    """Sets the re-scanning loop abandoned at the default cap."""

    def test_janet_6_8_6(self):
        U = _recipe_sets(5)[4]
        res = complete(U, Division.JANET)
        assert len(res) == 388
        assert _differential(U, Division.JANET, 10000)[:2] == (True, res)

    def test_lex_induced_5_6_5(self):
        U = _recipe_sets()[2]
        res = complete(U, Division.LEX_INDUCED)
        assert len(res) == 195
        assert _differential(U, Division.LEX_INDUCED, 10000)[:2] == (True, res)


def _digest(V):
    return hashlib.sha256(repr([tuple(v) for v in V]).encode()).hexdigest()[:16]


class TestCompleteRecipePins:
    """``complete`` on the recipe sets: sizes and digests of the lex-sorted
    minimal bases, and of the partial bases once 2000 distinct Pommaret
    prolongations are examined; ``TestAgreementWithDifferentialEngine``
    checks the same sets against the differential engine."""

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

    @pytest.mark.parametrize("k, size, digest", [
        (0, 1004, "687c9812445dfb19"),
        (1, 818, "3f732142eee9b378"),
    ])
    def test_pommaret_cap_partial(self, k, size, digest):
        with pytest.raises(CapExceeded) as err:
            complete(_recipe_sets()[k], Division.POMMARET, cap=2000)
        partial = err.value.partial
        assert (len(partial), _digest(partial)) == (size, digest)


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
            assert axioms_check(U, kind, degree_margin=2) == []
