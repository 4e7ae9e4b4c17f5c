"""Involutive reduction and completion of linear differential systems.

The completion loop keeps its basis G as bookkeeping triples (poly, ancestor,
processed variables) keyed by leading derivative, and one ``monomial.ConeIndex``
per function over those leaders, which finds involutive divisors and keeps
their separations as elements come and go.  It runs under Janet or lex-induced
division; under Pommaret it runs under Janet (``minimal_involutive_basis``).
Leaders in G are pairwise distinct: an adjoined normal form's leader lies in
no cone, and every leader lies in its own.  One examination step takes the
lowest nonmultiplicative prolongation, under the completion ranking, led below
the lowest element of the queue Q, or else that queue element; skips it if the
chain criterion holds for its leader; otherwise reduces it to its involutive
normal form and adjoins that unless it is zero (a nonzero constant raises
InconsistentSystem).  Prolongations come from one sorted list of candidates,
fed with the variables each re-filing of a cone index makes nonmultiplicative;
an entry whose triple has left G, or whose variable has turned multiplicative
or been processed, is dropped when reached.  Every element led above a newly
found lower leader is displaced back into Q, in one re-filing of each index it
touches, which keeps the final basis minimal.  ``monomial.complete`` is this
routine on the equations D[y, u] = 0.  It works over Z[x], on primitive
elements (polynomial coefficients of content 1), by pseudo-division (Geddes,
Czapor and Labahn, 1992, ch. 7).  Equations enter through
``LinearDiffPoly.cleared`` and ``.primitive``; ``LinearDiffPoly.over`` returns
to Q(x) only for the monic basis and the public normal forms.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from functools import partial, reduce
from itertools import count
from operator import attrgetter, mul, sub
from typing import NamedTuple

from .diffpoly import Derivative, Ranking
from .monomial import CapExceeded, ConeIndex, Division, NoFiniteBasis, quasi_stability_witness
from .scalars import _rat_normalize, poly_gcd

MESSAGE_LIMIT = 200  # characters, at most, of an InconsistentSystem message from the loop

class CompletionOptions(NamedTuple("CompletionOptions", [
        ("division", Division), ("main", Ranking), ("completion", Ranking), ("cap", int),
        ("use_criterion", bool)])):
    __slots__ = ()

    def __new__(cls, division=Division.JANET, main=Ranking(), completion=None, cap=10000,
                use_criterion=True):
        if cap < 1:
            raise ValueError("cap must be at least 1")
        return super().__new__(cls, division, main, completion or main, cap, use_criterion)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: keep the checks of __new__
        return cls(*fields)


class InconsistentSystem(ValueError):
    """An equation or a prolongation reduced to a nonzero constant: 0 = c."""


def _inconsistent(t, c, x, ranking):
    """InconsistentSystem for triple t's element, or its prolongation by x unless x is None,
    with remainder c, primitive over Z; past MESSAGE_LIMIT, t goes by its leader, c by its size."""
    names, f, c = t.poly.ctx.variables, t.poly.format(ranking), _rat_normalize(c)
    text = (f"the equation {f} = 0" if x is None else
            f"the prolongation of {f} = 0 by {names[x]}") + f" reduces to {c.format(names)} = 0"
    if len(text) > MESSAGE_LIMIT:
        text = (("" if x is None else f"the prolongation by {names[x]} of ") + "the equation led by "
                f"{t.leader.format(t.poly.ctx)} reduces to c = 0, c of total degree "
                f"{c.total_degree()} with {len(c.terms)} terms")
    return InconsistentSystem(text)


def _input_system(F):
    """The nonzero equations of F: raises if there are none, or if one is a constant."""
    work = [f for f in F if not f.is_zero()]
    if not work:
        raise ValueError("input system is empty or all zero")
    for f in work:
        if not f.terms:
            c = _rat_normalize(f.const.num).format(f.ctx.variables)  # c/d = 0 states c = 0
            raise InconsistentSystem(f"an input equation reduces to {c} = 0")
    return work


class Triple:
    """Basis element with its prolongation ancestor and processed variables.

    ``leader`` is the element's leading derivative and ``key`` its sort key
    under the main ranking, fixed when the triple is made.
    """

    __slots__ = ("poly", "ancestor", "processed", "serial", "leader", "key")

    def __init__(self, poly, ancestor, processed, serial, leader, key=None):
        self.poly = poly
        self.ancestor = ancestor
        self.processed = set(processed)
        self.serial = serial
        self.leader = leader
        self.key = key


class InvolutiveBasis:
    """Completed system: monic elements, their leaders under the main ranking,
    their separations, options used."""

    __slots__ = ("elements", "leaders", "separations", "options", "prolongations_examined")

    def __init__(self, elements, leaders, separations, options, prolongations_examined=0):
        self.elements, self.leaders, self.separations = elements, leaders, separations
        self.options, self.prolongations_examined = options, prolongations_examined

    def __len__(self):
        return len(self.elements)

    def monomial_sets(self):
        return _leader_sets(self.leaders)

    def format(self):
        return "\n".join(f.format(self.options.main) for f in self.elements)


_key = attrgetter("key")


def _leader_sets(leaders):
    """The sorted multiindices of the derivatives ``leaders``, by function."""
    out = {}
    for d in leaders:
        out.setdefault(d.indet, []).append(d.index)
    return {j: tuple(sorted(us)) for j, us in out.items()}


def _by_leader(polys, ranking):
    """Triples of the primitive elements of ``polys`` keyed by leader; the
    first of any that share one."""
    triples = {}
    for i, f in enumerate(polys):
        lead = f.ld(ranking)
        if lead not in triples:
            f = f.cleared()[1].primitive(lead)
            triples[lead] = Triple(f, lead, (), i, lead, ranking.key(lead))
    return triples


def _cone_indexes(leaders, division):
    """One cone index per function over the multiindices of its leaders."""
    return {j: ConeIndex(division, us) for j, us in _leader_sets(leaders).items()}


def _reduce(p, ranking, reducer_for):
    """Full reduction of p over Z[x]; ``reducer_for`` gives the triple that
    reduces a derivative, or None.  Returns (h, ms): h is m*p minus prolongations
    of reducers, for m the product of the pseudo-division multipliers in the
    list ``ms``.  Each step reduces the highest-ranked term that has a reducer;
    a derivative's reducer, and its key if it has one, are found once per call."""
    h, ms = p, []
    found = {}  # derivative -> (key, derivative, reducer), or None without a reducer
    while True:
        for d in h.terms:
            if d not in found:
                t = reducer_for(d)
                found[d] = None if t is None else (ranking.key(d), d, t)
        best = max(filter(None, map(found.__getitem__, h.terms)), default=None)
        if best is None:
            break
        _, d, t = best
        a = h.terms[d]
        f, lead = t.poly, t.leader
        lc = f.terms[lead]
        theta_f = f.prolong(map(sub, d.index, lead.index))
        if lc.is_one():
            h = h + theta_f.scale(-a)
        else:  # h <- (lc/g)*h - (a/g)*theta_f, g = gcd(lc, a)
            g = poly_gcd(lc, a)
            if not g.is_one():
                lc, a = lc.divexact(g), a.divexact(g)
            h = h.scale(lc) + theta_f.scale(-a)
            ms.append(lc)
    return h, ms


def _involutive_nf(p, triples, indexes, ranking):
    """Involutive normal form of p modulo triples keyed by leader, whose
    leaders ``indexes`` holds; the divisor with the lowest leader reduces."""

    def reducer_for(term):
        index = indexes.get(term.indet)
        if index is None:
            return None
        best = None
        for v in index.divisors(term.index):
            t = triples[Derivative(term.indet, v)]
            if best is None or t.key < best.key:
                best = t
        return best

    return _reduce(p, ranking, reducer_for)


def involutive_normal_form(p, G, division, ranking):
    """Full involutive normal form of p modulo the elements of G.

    No term of the result lies in the involutive cone of any leading
    derivative of G; of two elements with one leader, the first reduces.
    """
    triples = _by_leader(G, ranking)
    lcm, q = p.cleared()
    h, ms = _involutive_nf(q, triples, _cone_indexes(triples, division), ranking)
    return h.over(reduce(mul, ms, lcm))


def conventional_normal_form(p, G, ranking):
    """Ordinary (non-involutive) full normal form; the independent reducer."""
    triples = _by_leader(G, ranking).values()

    def reducer_for(term):
        return min((t for t in triples if t.leader.indet == term.indet
                    and t.leader.index.divides(term.index)), key=_key, default=None)

    lcm, q = p.cleared()
    h, ms = _reduce(q, ranking, reducer_for)
    return h.over(reduce(mul, ms, lcm))


def s_polynomial(f, g, ranking):
    """Differential S-polynomial of two elements with same-function leaders."""
    df, dg = f.ld(ranking), g.ld(ranking)
    if df.indet != dg.indet:
        raise ValueError("S-polynomial requires leaders of the same function")
    gamma = df.index.lcm(dg.index)
    pf = f.normalize(ranking).prolong(gamma / df.index)
    pg = g.normalize(ranking).prolong(gamma / dg.index)
    return pf - pg


def groebner_oracle(F, ranking):
    """True iff all pairwise S-polynomials reduce to zero conventionally."""
    F = [f.normalize(ranking) for f in F if not f.is_zero()]
    for i in range(len(F)):
        for j in range(i + 1, len(F)):
            if F[i].ld(ranking).indet != F[j].ld(ranking).indet:
                continue
            rem = conventional_normal_form(s_polynomial(F[i], F[j], ranking), F, ranking)
            if not rem.is_zero():
                return False
    return True


def chain_criterion(lead, theta, triples, indexes, ranking_c, key_lead):
    """Involutive analogue of the Buchberger chain criterion.

    True if some triple (f, ancestor, _) has a leader involutively dividing
    ``lead``, the leader of the element examined, found in the cone index of
    its function, while lcm(theta, ancestor) ranks strictly below ``lead``
    under the completion ranking, whose key of ``lead`` is ``key_lead``.
    Ancestors attached to a different function never qualify.
    """
    index = indexes.get(lead.indet)
    for v in index.divisors(lead.index) if index is not None else ():
        ancestor = triples[Derivative(lead.indet, v)].ancestor
        if theta.indet == ancestor.indet and ranking_c.key(theta.lcm(ancestor)) < key_lead:
            return True
    return False


def _basis_of(triples, indexes, opts, examined=0):
    order = sorted(triples.values(), key=_key, reverse=True)
    seps = tuple(indexes[t.leader.indet].separation(t.leader.index) for t in order)
    return InvolutiveBasis(tuple(t.poly.over(t.poly.terms[t.leader]) for t in order),
                           tuple(t.leader for t in order), seps, opts, examined)


def minimal_involutive_basis(F, opts=None, trace=None):
    """Complete a finite system to its minimal involutive basis.

    Raises CapExceeded (with the partial basis attached) once the number of
    examined nonmultiplicative prolongations passes ``opts.cap``.  Pommaret
    division is not noetherian: under it the loop, traced and capped, runs under
    Janet, and NoFiniteBasis, a CapExceeded with that basis attached, is raised
    if the leaders of some function are not quasi-stable; else the Janet basis
    with Pommaret separations is the minimal Pommaret basis.  The leaders generate
    the leading ideal I of their function, which depends on the ranking alone,
    and a quasi-stable I has its minimal Janet basis J(I) as Pommaret basis.
    Proof, with the positions of ``monomial`` and k(w) the last one where w is
    nonzero: let P(I) hold the w in I that are 1 or have w / x_k(w) outside I.
    (i) A Pommaret basis of I is P(I): w in I is u * x^b for one u in it, b
    zero before k(u); b != 0 puts x_k(w) in x^b, and w = u with w / x_k(w) =
    u' * x^b' in I puts w in the cone of u' too, as k(u') <= k(w).  (ii) The
    slices I_a = {w' : (a, w') in I} ascend from the first nonempty one, at
    lo, to the first of the constant ones, at s.  As the first position is
    Janet multiplicative on the elements of largest first exponent d alone,
    the Janet bases of I are the unions over a in [lo, d] of {a} x (a Janet
    basis of I_a), d >= s, and J(I), inside each and returned by the loop, is
    the union over [lo, s] of {a} x J(I_a).  (iii) If P(I) is finite, the
    slices are the whole ring from s on, or each nonempty one would hold an
    element of P(I), so P(I) slices as {1} = J(I_s) at s and as P(I_a) = J(I_a)
    at a in [lo, s), by induction on the number of positions.  The system's
    elements all reduce to 0 under either division: each leader lies in a cone.
    """
    opts = opts or CompletionOptions()
    run = opts._replace(division=Division.JANET) if opts.division is Division.POMMARET else opts
    main, comp = opts.main, opts.completion
    work = _input_system(F)

    serials = count(1)

    def new_triple(poly, ancestor, processed, leader):
        return Triple(poly, ancestor, processed, next(serials), leader, main.key(leader))

    # G, keyed by leader, and one cone index per function (module docstring)
    triples, indexes = {}, defaultdict(partial(ConeIndex, run.division))
    # the nonmultiplicative prolongations, sorted lowest first under the
    # completion ranking: (completion key, serial, x, main key, leader of the
    # triple, leader of the prolongation)
    candidates = []

    def adjoin(t, drop=()):
        triples[t.leader] = t
        for v, new in indexes[t.leader.indet].add(t.leader.index, drop):
            u = triples[Derivative(t.leader.indet, v)]
            if u is not t:
                # x was multiplicative for u since u last processed it
                u.processed -= new
            for x in new - u.processed:
                lead = u.leader.differentiate(x)
                bisect.insort(candidates,
                              (comp.key(lead), u.serial, x, main.key(lead), u.leader, lead))

    def adjoin_normal_form(r, leader, ancestor, processed):
        """Adjoin r, the nonzero normal form of an element led by ``leader``."""
        lead = r.ld(main)
        r = r.primitive(lead)
        dropped = defaultdict(list)
        if lead != leader:
            # a lower leader starts its own ancestry and displaces every
            # element ranked above it back to the queue
            ancestor, processed, key = lead, (), main.key(lead)
            for old in [u for u in triples.values() if u.key > key]:
                bisect.insort(Q, (old.key, old.serial, old))
                del triples[old.leader]
                dropped[old.leader.indet].append(old.leader.index)
        # each index a displacement touches is re-filed once
        adjoin(new_triple(r, ancestor, processed, lead), dropped.pop(lead.indet, ()))
        for j, tips in dropped.items():
            indexes[j].remove(*tips)

    def next_candidate(gate):
        """The lowest unprocessed nonmultiplicative prolongation led below
        ``gate`` (any, if None), as (triple, x, leader, completion key of the
        leader), or None; stale entries met on the way are dropped."""
        i = 0
        while i < len(candidates):
            comp_key, made, x, key, leader, lead = candidates[i]
            t = triples.get(leader)
            if (t is None or t.serial != made or x in t.processed
                    or x not in indexes[leader.indet].filed[leader.index]):
                del candidates[i]
            elif gate is None or key < gate:
                del candidates[i]
                return t, x, lead, comp_key
            else:
                i += 1
        return None

    lds = [f.ld(main) for f in work]
    work = [f.cleared()[1].primitive(d) for f, d in zip(work, lds)]
    start = min(range(len(work)), key=lambda i: (main.key(lds[i]), i))
    adjoin(new_triple(work[start], lds[start], set(), lds[start]))
    Q = []  # the queue, sorted lowest first: (main key, serial, triple)
    for i, (f, d) in enumerate(zip(work, lds)):
        if i != start:
            t = new_triple(f, d, set(), d)
            Q.append((t.key, t.serial, t))
    Q.sort()
    examined = 0

    while True:
        # the normal strategy: the lowest nonmultiplicative prolongation led
        # below the lowest queue element, else that queue element
        best = next_candidate(Q[0][0] if Q else None)
        if best is not None:
            t, x, lead, comp_key = best
            examined += 1
            if examined > opts.cap:
                raise CapExceeded(
                    f"completion exceeded {opts.cap} prolongation examinations",
                    partial=_basis_of(triples, indexes, run, examined))
            t.processed.add(x)
            p, processed = t.poly.differentiate(x), ()
        elif Q:
            t, x = Q.pop(0)[2], None
            p, lead, processed = t.poly, t.leader, t.processed
            comp_key = comp.key(lead)
        else:
            break
        # one examination: criterion, normal form, then adjoin, raise or drop
        skip = opts.use_criterion and chain_criterion(lead, t.ancestor, triples, indexes, comp,
                                                      comp_key)
        status = "criterion"
        if not skip:
            r = _involutive_nf(p, triples, indexes, main)[0]
            if r.is_zero():
                status = "zero"
            elif not r.terms:
                raise _inconsistent(t, r.const, x, main)
            else:
                status = "added"
                adjoin_normal_form(r, lead, t.ancestor, processed)
        if trace is not None:
            trace.append({"stage": "queue", "leader": t.leader, "criterion": skip} if x is None
                         else {"stage": "prolongation", "leader": t.leader, "variable": x,
                               "criterion": skip, "result": status})

    if run is not opts:  # Pommaret: the Janet basis, if its leaders are quasi-stable
        for j, index in sorted(indexes.items()):
            if (witness := quasi_stability_witness(index.tips)) is not None:
                ctx = work[0].ctx
                raise NoFiniteBasis(f"no finite Pommaret basis, so any cap is exceeded: the "
                                    f"leaders of {ctx.functions[j]} are not quasi-stable "
                                    f"(witness {Derivative(j, witness).format(ctx)})",
                                    partial=_basis_of(triples, indexes, run, examined))
        indexes = _cone_indexes(triples, Division.POMMARET)
    return _basis_of(triples, indexes, opts, examined)


def basis_from(elements, opts=None):
    """Wrap an existing system (monic, distinct leaders) without completing."""
    opts = opts or CompletionOptions()
    work = _input_system(elements)
    triples = _by_leader(work, opts.main)
    if len(triples) != len(work):
        raise ValueError("leading derivatives are not pairwise distinct")
    return _basis_of(triples, _cone_indexes(triples, opts.division), opts)


def verify_involutive(basis):
    """Local involutivity: every nonmultiplicative prolongation reduces to 0."""
    main = basis.options.main
    triples = _by_leader(basis.elements, main)
    indexes = _cone_indexes(triples, basis.options.division)
    return all(_involutive_nf(t.poly.differentiate(x), triples, indexes, main)[0].is_zero()
               for t in triples.values()
               for x in indexes[t.leader.indet].filed[t.leader.index])
