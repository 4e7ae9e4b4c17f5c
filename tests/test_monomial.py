import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from involute import (CapExceeded, Division, MultiIndex, autoreduce,
                      axioms_check, cartan_characters,
                      complementary_decomposition, complete, in_cone,
                      involutive_divides, is_involutive, monomials_up_to,
                      separation, separations)
from involute.monomial import ConeIndex, in_involutive_cone
from conftest import (complete_bruteforce, cones_pairwise_disjoint_bruteforce,
                      decomposition_exact_bruteforce, mi)

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


@settings(max_examples=300, deadline=None)
@given(monomial_lists(), st.data())
@example([(3,), (0,), (5,), (3,)], None)
@example([(1, 0, 2), (2, 0, 1), (1, 1, 0), (2, 0, 1)], None)
def test_cone_index_matches_brute_force(U, data):
    n = len(U[0])
    for kind in Division:
        seps = separations(U, kind)
        tips = list(seps)
        index = ConeIndex(tips, seps)

        def check(w, skip=None):
            want = [v for v in tips
                    if v is not skip and in_involutive_cone(w, v, seps[v].multiplicative)]
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


def _recipe_sets():
    """The seed-7 recipe sets (n, |U|, dmax) = (3,4,5) (4,5,5) (5,6,5) (6,6,5)."""
    rng = random.Random(7)
    return [[MultiIndex(rng.randint(0, dmax) for _ in range(n)) for _ in range(size)]
            for n, size, dmax in ((3, 4, 5), (4, 5, 5), (5, 6, 5), (6, 6, 5))]


def _digest(V):
    return hashlib.sha256(repr([tuple(v) for v in V]).encode()).hexdigest()[:16]


class TestCompleteRecipePins:
    """``complete`` on the recipe sets: sizes and digests of the lex-sorted
    results, recorded before the cone index replaced the linear cone scan."""

    @pytest.mark.parametrize("k, kind, size, digest", [
        (0, Division.JANET, 6, "66df15573e075962"),
        (1, Division.JANET, 21, "8048a59c4a55bbda"),
        (2, Division.JANET, 53, "62b4a14d5ab7ec7d"),
        (3, Division.JANET, 92, "bc4af92a51ff4d56"),
        (0, Division.LEX_INDUCED, 8, "d443a2ba0b26b0ad"),
        (1, Division.LEX_INDUCED, 66, "44cf99897ab6d407"),
    ])
    def test_completed_set(self, k, kind, size, digest):
        res = complete(_recipe_sets()[k], kind)
        assert (len(res), _digest(res)) == (size, digest)
        assert is_involutive(res, kind)

    @pytest.mark.parametrize("k, size, digest", [
        (0, 46, "47717ea55edfa8fd"),
        (1, 38, "e8e181cc06444911"),
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
