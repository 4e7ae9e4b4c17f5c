"""Multiindex arithmetic and involutive divisions on monomial sets.

Variables are indexed 0..n-1 and ordered by priority: position 0 is the
highest variable of the fixed order.  The three divisions (Janet, Pommaret,
lexicographically induced) all arise from a partition of the variables into
multiplicative and nonmultiplicative ones per element of a finite set, so the
involutive cone of an element is the monoid generated by its multiplicative
variables.  ``complete`` has no loop of its own: it runs
``completion.minimal_involutive_basis`` on the equations D[y, u] = 0, where
every involutive normal form is 0 or the monomial itself.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from enum import Enum
from typing import NamedTuple

from .scalars import power_product


class MultiIndex(tuple):
    """Exponent vector in NN^n; doubles as the monomial x^alpha."""

    def __new__(cls, exponents):
        t = tuple(int(e) for e in exponents)
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in {t!r}")
        return super().__new__(cls, t)

    @classmethod
    def unit(cls, n):
        return cls((0,) * n)

    @property
    def degree(self):
        return sum(self)

    def is_one(self):
        return not any(self)

    def __mul__(self, other):
        # a sum of nonnegative exponents needs no check
        return tuple.__new__(MultiIndex, map(operator.add, self, other))

    def prolongation(self, i):
        """x_i * self, built without re-validating the exponents."""
        return tuple.__new__(MultiIndex, self[:i] + (self[i] + 1,) + self[i + 1:])

    def __truediv__(self, other):
        q = [a - b for a, b in zip(self, other)]
        if any(x < 0 for x in q):
            raise ValueError(f"{other!r} does not divide {self!r}")
        return MultiIndex(q)

    def divides(self, other):
        return len(self) == len(other) and all(a <= b for a, b in zip(self, other))

    def lcm(self, other):
        return tuple.__new__(MultiIndex, map(max, self, other))

    def format(self, names=None):
        if self.is_one():
            return "1"
        return power_product(zip(names or [f"x{i+1}" for i in range(len(self))], self))

    def __repr__(self):
        return f"MultiIndex{tuple(self)!r}"


class Division(Enum):
    JANET = "janet"
    POMMARET = "pommaret"
    LEX_INDUCED = "lexinduced"


class Separation(NamedTuple):
    """Partition of the variables for one element of a monomial set."""

    multiplicative: frozenset
    nonmultiplicative: frozenset


DEFAULT_CAP = 10000  # prolongations a completion may examine unless told otherwise


class CapExceeded(RuntimeError):
    """A completion exceeded its prolongation budget; partial work attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoFiniteBasis(CapExceeded):
    """No finite Pommaret basis exists, so any cap would be exceeded; the
    completed Janet basis, whose leaders showed it, is the partial result."""


def _check_set(U):
    """U as a lex-sorted list of distinct MultiIndex values of one dimension."""
    U = [u if isinstance(u, MultiIndex) else MultiIndex(u) for u in U]
    if U:
        n = len(U[0])
        if any(len(u) != n for u in U):
            raise ValueError("monomials of mixed dimension")
    return sorted(set(U))


def _pommaret_multiplicative(u):
    # x_i is multiplicative iff no variable after x_i occurs in u
    return set(range(max((i for i, e in enumerate(u) if e), default=0), len(u)))


def _lex_induced_separations(U, running):
    # U is a run of lex-sorted tips and ``running`` the column maxima of the
    # tips ahead of it (empty if there are none), so x_i is nonmultiplicative
    # for u iff running[i], or the i-th exponent of a tip before u in U, is larger
    positions = range(len(U[0]))
    running = running or [0] * len(positions)
    out = {}
    for u in U:
        out[u] = {i for i in positions if u[i] >= running[i]}
        running = list(map(max, running, u))
    return out


def separations(U, kind):
    """Multiplicative-variable map for every element of U under the division."""
    index = ConeIndex(kind, U)
    return {u: index.separation(u) for u in index.tips}


def in_involutive_cone(w, v, multiplicative):
    """True iff w = v * x^beta with beta supported on ``multiplicative``.

    Compares exponents position by position; no quotient is built.
    """
    for i, (a, b) in enumerate(zip(w, v)):
        if a != b and (a < b or i not in multiplicative):
            return False
    return True


class ConeIndex:
    """Involutive divisor search over a monomial set that changes in place.

    The index owns its division and its lex-sorted tips, and keeps every tip
    filed under its nonmultiplicative variables in the current set.  w lies in
    the cone of v iff the two agree on v's nonmultiplicative variables and
    w >= v on the others.  Tips are grouped by their set of nonmultiplicative
    variables, and inside a group a dict maps the exponents on those
    variables to the tips, so a query makes one lookup per group.  The tips
    that extend a prefix are one run of the sorted tips, the tips below one
    node of a Janet tree (Gerdt, Blinkov, Yanovich, CASC 2001); separations
    and the tips a change can reach are read off these runs by bisection.
    """

    __slots__ = ("kind", "tips", "groups", "filed", "ahead")

    def __init__(self, kind, U=()):
        # nonmultiplicative set -> (that set, getter of the exponents on it,
        # {exponents: tips}, multiplicative positions); tip -> its group's set
        if not isinstance(kind, Division):
            raise ValueError(f"unknown division {kind!r}")
        self.kind = kind
        self.tips = _check_set(U)
        self.groups = {}
        self.filed = {}
        self.ahead = []  # column maxima of the tips ahead of the last lex reach
        self._refile(self.tips)

    def add(self, v, drop=()):
        """Adjoin tip v, after dropping the tips in ``drop``, in one re-filing
        pass; returns (tip, variables new to its nonmultiplicative set) for v
        and for every tip whose separation that changed."""
        marks = [self._drop(u) for u in drop] + [self._toggled(v)]
        bisect.insort(self.tips, v)
        return self._refile(self._reach(marks, v))

    def remove(self, *vs):
        """Drop tips vs and re-file, in one pass, the tips whose separation
        that changes."""
        self._refile(self._reach([self._drop(v) for v in vs]))

    def _drop(self, v):
        del self.tips[bisect.bisect_left(self.tips, v)]
        self._unfile(v)
        return self._toggled(v)

    def _toggled(self, v):
        # on the tips without v: under Janet division u[:i+1] for the tips u
        # whose x_i v's coming or going toggles, or None; v itself otherwise.
        # v[:i] is v's longest common prefix with a neighbour at its
        # insertion point, and v[i] tops the run of v[:i] iff the tip after
        # v leaves that run; the tip before v then ends it
        if self.kind is not Division.JANET:
            return v
        tips, k = self.tips, bisect.bisect_left(self.tips, v)
        before = _common_prefix(v, tips[k - 1]) if k else -1
        after = _common_prefix(v, tips[k]) if k < len(tips) else -1
        return tips[k - 1][:before + 1] if before > after else None

    def _reach(self, marks, *new):
        # the tips whose separation a change can alter, in lex order, from the
        # marks of the tips that came or went and the tip added, if any: under
        # Janet the runs below the toggled prefixes, otherwise the tips from
        # the lowest one that came or went up to the first tip, past the one
        # added, where the column maxima of the tips before it that stayed
        # dominate every tip that came or went: from there on no running
        # maximum, so no separation, can change (under Pommaret, only the
        # tip added changes); the column maxima of the tips ahead of the run
        # stay in ``ahead`` for the lex-induced pass that re-files it
        if self.kind is Division.JANET:
            return self._below(marks, *new)
        if not marks:
            return []
        tips = self.tips
        lo = k = bisect.bisect_left(tips, min(marks))
        end = bisect.bisect_right(tips, new[0], lo) if new else lo
        top = [max(column) for column in zip(*marks)]
        stayed = self.ahead = [max(column) for column in zip(*tips[:lo])] or [0] * len(top)
        while k < len(tips) and (k < end or not all(map(operator.ge, stayed, top))):
            if tips[k] not in new:
                stayed = list(map(max, stayed, tips[k]))
            k += 1
        return tips[lo:k]

    def _below(self, prefixes, *extra):
        # the tips that extend a prefix (a run of the lex-sorted tips), then
        # extra, in lex order: one change's run comes before the tip it adds
        out, tips = [], self.tips
        for p in filter(None, prefixes):
            lo = bisect.bisect_left(tips, p)
            out += tips[lo:bisect.bisect_left(tips, p[:-1] + (p[-1] + 1,), lo)]
        return out + list(extra) if len(prefixes) == 1 else sorted({*out, *extra})

    def separation(self, v):
        """The separation of tip v in the current set."""
        nonmult = self.filed[v]
        return Separation(frozenset(range(len(v))) - nonmult, nonmult)

    def _refile(self, tips):
        # file each of tips under its nonmultiplicative set, moving a tip whose
        # set changed; returns (tip, variables new to its set) per changed tip
        changed = []
        if not tips:
            return changed
        allv = frozenset(range(len(tips[0])))
        if self.kind is Division.JANET:
            seps = self._janet(tips)
        elif self.kind is Division.LEX_INDUCED:  # a lex reach is a run of the tips
            seps = _lex_induced_separations(tips, self.ahead)
        else:
            seps = {u: _pommaret_multiplicative(u) for u in tips}
        for v, mult in seps.items():
            nonmult, old = allv - mult, self.filed.get(v)
            if nonmult == old:
                continue
            if old is not None:
                self._unfile(v)
            if nonmult not in self.groups:
                self.groups[nonmult] = (nonmult, _exponents_on(sorted(nonmult)), {},
                                        tuple(sorted(mult)))
            # the group's own copy of the set is shared by all its tips
            nonmult, exponents, table, _ = self.groups[nonmult]
            table.setdefault(exponents(v), []).append(v)
            self.filed[v] = nonmult
            new = nonmult if old is None else nonmult - old
            if new:
                changed.append((v, new))
        return changed

    def _janet(self, tips):
        # multiplicative positions of each of tips: x_i is multiplicative for
        # u iff u[i] is the i-th exponent of the last tip that extends u[:i],
        # which ends the run of u[:i]; the runs of u's prefixes narrow from
        # the whole list, so each end is found by bisection inside the last
        every, out = self.tips, {}
        for u in tips:
            hi, mult = len(every), set()
            for i, e in enumerate(u):
                if every[hi - 1][i] == e:
                    mult.add(i)
                else:
                    hi = bisect.bisect_left(every, u[:i] + (e + 1,), 0, hi)
            out[u] = mult
        return out

    def _unfile(self, v):
        nonmult = self.filed.pop(v)
        _, exponents, table, _ = self.groups[nonmult]
        key = exponents(v)
        table[key].remove(v)
        if not table[key]:
            del table[key]
            if not table:
                del self.groups[nonmult]

    def divisors(self, w, skip=None):
        """Yield the tips, other than ``skip``, whose involutive cone contains w."""
        for _, exponents, table, mult in self.groups.values():
            for v in table.get(exponents(w), ()):
                if v is not skip and all(w[i] >= v[i] for i in mult):
                    yield v

    def covers(self, w, skip=None):
        """True iff w lies in the involutive cone of a tip other than ``skip``."""
        return next(self.divisors(w, skip), None) is not None


def _common_prefix(u, v):
    # the length of the longest common prefix of two distinct tips
    i = 0
    while u[i] == v[i]:
        i += 1
    return i


def _exponents_on(positions):
    # itemgetter takes at least one position; one position gives a bare int
    if not positions:
        return lambda w: ()
    return operator.itemgetter(*positions)


def _cones_intersect(u, su, v, sv):
    # the cones meet iff they share their least candidate, lcm(u, v)
    w = u.lcm(v)
    return (in_involutive_cone(w, u, su.multiplicative)
            and in_involutive_cone(w, v, sv.multiplicative))


def autoreduce(U, kind):
    """Maximal subset with pairwise disjoint involutive cones.

    Discards, smallest first in lexicographic order, any element lying in the
    involutive cone of another element, until none remains.
    """
    index = ConeIndex(kind, U)
    while True:
        victims = [u for u in index.tips if index.covers(u, skip=u)]
        if not victims:
            return tuple(index.tips)
        index.remove(min(victims))


def complete(U, kind, cap=DEFAULT_CAP):
    """Minimal involutive basis of the monomial ideal generated by U, as a
    lex-sorted tuple: ``completion.minimal_involutive_basis`` on the
    equations D[y, u] = 0, u in U, under the grlex ranking.  A CapExceeded,
    NoFiniteBasis included, carries the lex-sorted leaders of its partial
    basis as ``partial``.
    """
    from .completion import CompletionOptions, minimal_involutive_basis
    from .diffpoly import Context, Derivative, LinearDiffPoly

    opts = CompletionOptions(division=kind, cap=cap)
    U = _check_set(U)
    if not U:
        raise ValueError("empty monomial set")
    ctx = Context(tuple(f"x{i + 1}" for i in range(len(U[0]))), ("y",))
    try:
        basis = minimal_involutive_basis(
            [LinearDiffPoly.from_derivative(ctx, Derivative(0, u)) for u in U], opts)
    except CapExceeded as exc:
        exc.partial = exc.partial.monomial_sets()[0]
        raise
    return basis.monomial_sets()[0]


def quasi_stability_witness(U):
    """A minimal generator of (U) showing that the ideal is not quasi-stable,
    or None if it is.

    (U) has a finite Pommaret basis iff it is quasi-stable (Seiler,
    *Involution*, 2010, ch. 5).  Here the last variable is always
    multiplicative, and (U) is quasi-stable iff for every minimal generator
    t, every j with t_j > 0 and every i < j, x_i^s * t / x_j^(t_j) lies in
    (U) for some s; s, the largest exponent of x_i among the generators,
    is enough.
    """
    gens = []
    for u in sorted(_check_set(U), key=sum):
        if not in_cone(u, gens):
            gens.append(u)
    gens.sort()
    n = len(gens[0]) if gens else 0
    top = [max(g[i] for g in gens) for i in range(n)]
    for t in gens:
        for j in range(1, n):
            if t[j]:
                for i in range(j):
                    w = list(t)
                    w[i] += top[i]
                    w[j] = 0
                    if not in_cone(w, gens):
                        return t
    return None


def is_involutive(U, kind):
    """Autoreduced and locally complete: the involutive cones partition the ideal."""
    index = ConeIndex(kind, U)
    if any(index.covers(u, skip=u) for u in index.tips):
        return False
    return all(index.covers(u.prolongation(i)) for u in index.tips for i in index.filed[u])


def in_cone(w, U):
    """Ordinary monomial-ideal membership."""
    w = w if isinstance(w, MultiIndex) else MultiIndex(w)
    return any(u.divides(w) for u in U)


def monomials_of_degree(n, d):
    """All exponent vectors in n variables of total degree exactly d."""
    if n == 0:
        if d == 0:
            yield MultiIndex(())
        return
    for head in range(d + 1):
        for tail in monomials_of_degree(n - 1, d - head):
            yield MultiIndex((head,) + tuple(tail))


def monomials_up_to(n, d):
    for k in range(d + 1):
        yield from monomials_of_degree(n, k)


class ComplementaryDecomposition(NamedTuple):
    """Disjoint cone decomposition of the complement of a monomial ideal.

    ``finite_part`` lists standalone monomials; ``generators`` pairs a cone
    tip with the variable positions along which it may be multiplied.
    """

    finite_part: tuple
    generators: tuple
    nvars: int

    def entries(self):
        """Uniform view: every finite-part element as a multiplier-free cone."""
        return tuple((v, frozenset()) for v in self.finite_part) + tuple(self.generators)


def _split_decompose(us, k, front):
    """Disjoint cone decomposition of the complement, one variable at a time.

    ``us`` is a set of exponent tuples over ``k`` active variables; splitting
    is on the first variable (Janet grouping) or the last.  Returns pairs of
    (tuple over the active variables, multiplier position set).
    """
    if any(not any(u) for u in us):
        return []
    if not us:
        return [((0,) * k, frozenset(range(k)))]
    i = 0 if front else k - 1
    d = max(u[i] for u in us)
    out = []

    def reinsert(sub, a, saturated):
        for v, s in sub:
            full = v[:i] + (a,) + v[i:]
            if front:
                shifted = frozenset(x + 1 for x in s)
            else:
                shifted = frozenset(s)
            if saturated:
                shifted |= {i}
            out.append((full, shifted))

    for a in range(d):
        ua = {u[:i] + u[i + 1:] for u in us if u[i] <= a}
        reinsert(_split_decompose(ua, k - 1, front), a, False)
    ud = {u[:i] + u[i + 1:] for u in us}
    reinsert(_split_decompose(ud, k - 1, front), d, True)
    return out


def _janet_decomposition(U, n):
    cones = _split_decompose({tuple(u) for u in U}, n, front=True)
    gens = tuple(sorted(((MultiIndex(v), frozenset(s)) for v, s in cones),
                        key=operator.itemgetter(0)))
    return ComplementaryDecomposition((), gens, n)


def _pommaret_decomposition(U, n):
    q = max((u.degree for u in U), default=0)
    finite = []
    gens = []
    for w in monomials_up_to(n, q):
        if in_cone(w, U):
            continue
        if w.degree < q:
            finite.append(w)
        else:
            gens.append((w, frozenset(_pommaret_multiplicative(w))))
    return ComplementaryDecomposition(tuple(finite), tuple(gens), n)


def _normalized_lex_decomposition(U, n):
    # Constructive route: split on the last variable, then push the low part
    # of every multiplier cone into the finite set so the remaining cone tips
    # sit at the degree of the basis.
    cones = _split_decompose({tuple(u) for u in U}, n, front=False)
    q = max((u.degree for u in U), default=0)
    finite = []
    gens = []
    for v, s in cones:
        v = MultiIndex(v)
        if not s:
            finite.append(v)
            continue
        if v.degree >= q:
            gens.append((v, frozenset(s)))
            continue
        svars = sorted(s)
        for extra in monomials_up_to(len(svars), q - v.degree):
            w = list(v)
            for pos, e in zip(svars, extra):
                w[pos] += e
            if v.degree + extra.degree < q:
                finite.append(MultiIndex(w))
            else:
                gens.append((MultiIndex(w), frozenset(
                    svars[i] for i in _pommaret_multiplicative(extra))))
    finite = sorted(set(finite))
    gens = sorted(gens, key=operator.itemgetter(0))
    return ComplementaryDecomposition(tuple(finite), tuple(gens), n)


def complementary_decomposition(U, kind, n=None):
    """Decompose the complement of (U) into disjoint cones with multipliers.

    Requires a ``kind``-involutive input (or an empty set with ``n`` given).
    Janet uses the compact grouped form; Pommaret takes the finite part below
    the degree of the basis plus all complement monomials at that degree with
    their Pommaret multipliers; the lexicographically induced division uses
    the generic constructive decomposition normalized to the basis degree.
    """
    U = _check_set(U)
    if not U:
        if n is None:
            raise ValueError("variable count required for an empty set")
        return ComplementaryDecomposition(
            (), ((MultiIndex.unit(n), frozenset(range(n))),), n)
    n = len(U[0])
    if not is_involutive(U, kind):
        raise ValueError(f"set is not {kind.value}-involutive")
    if kind is Division.JANET:
        return _janet_decomposition(U, n)
    if kind is Division.POMMARET:
        return _pommaret_decomposition(U, n)
    return _normalized_lex_decomposition(U, n)


class CartanCharacters(NamedTuple):
    """Counts of degree-q Pommaret generators by number of multipliers."""

    q: int
    sigma: tuple


def cartan_characters(U, n=None):
    U = _check_set(U)
    dec = complementary_decomposition(U, Division.POMMARET, n=n)
    q = max((u.degree for u in U), default=0)
    sigma = [0] * dec.nvars
    for _, mult in dec.generators:
        if mult:
            sigma[len(mult) - 1] += 1
    return CartanCharacters(q, tuple(sigma))


def axioms_check(U, kind):
    """Report violations of the involutive-division axioms (b)-(d) on U.

    (a) holds by construction: every division here is a separation of the
    variables, so the multiplicative monomials of an element are closed under
    divisors.  (b) uses an exact cone-intersection test; (c) and (d) are
    exact, (d) over all subsets for small sets and a fixed sample otherwise.
    """
    U = _check_set(U)
    seps = separations(U, kind)
    report = []

    for u, v in itertools.combinations(U, 2):
        if _cones_intersect(u, seps[u], v, seps[v]):
            if not (in_involutive_cone(u, v, seps[v].multiplicative)
                    or in_involutive_cone(v, u, seps[u].multiplicative)):
                report.append(f"(b) violated for {u.format()}, {v.format()}: "
                              f"cones meet but neither contains the other's tip")

    for u in U:
        for v in U:
            if v != u and in_involutive_cone(v, u, seps[u].multiplicative):
                if not seps[v].multiplicative <= seps[u].multiplicative:
                    report.append(f"(c) violated for {u.format()} <| {v.format()}")

    if len(U) <= 6:
        subsets = []
        for r in range(1, len(U) + 1):
            subsets.extend(itertools.combinations(U, r))
    else:
        import random
        rng = random.Random(1729)
        subsets = [tuple(rng.sample(U, rng.randint(1, len(U))))
                   for _ in range(50)]
    for sub in subsets:
        sub = _check_set(sub)
        sub_seps = separations(sub, kind)
        for u in sub:
            if not seps[u].multiplicative <= sub_seps[u].multiplicative:
                report.append(f"(d) violated for {u.format()} in subset "
                              f"{{{', '.join(v.format() for v in sub)}}}")
    return report
