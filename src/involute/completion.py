"""Involutive reduction and completion of linear differential systems.

The completion routine keeps its basis G as bookkeeping triples (poly,
ancestor, processed-variables) keyed by leading derivative, and one
``monomial.ConeIndex`` per function over those leaders, which keeps their
separations as elements come and go and finds involutive divisors.  Leaders
in G are pairwise distinct: an adjoined normal form's leader lies in no cone,
and every leader lies in its own.  Elements of a queue Q are merged in
lowest-leader first; before each merge, the nonmultiplicative prolongations
whose leaders rank below it are examined lowest first under the completion
ranking, with a chain criterion to skip prolongations that cannot
contribute.  Every element whose leader exceeds a newly found lower leader
is displaced back into the queue, in one re-filing of each index it touches,
which keeps the final basis minimal.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from .diffpoly import Derivative, Ranking
from .monomial import CapExceeded, ConeIndex, Division

__all__ = [
    "CompletionOptions", "InvolutiveBasis", "Triple", "CapExceeded", "InconsistentSystem",
    "involutive_normal_form", "conventional_normal_form",
    "minimal_involutive_basis", "chain_criterion", "basis_from",
    "verify_involutive", "verify_partial_involutive",
    "groebner_oracle", "s_polynomial", "conventional_autoreduce",
]


@dataclass(frozen=True)
class CompletionOptions:
    division: Division = Division.JANET
    main: Ranking = Ranking()
    completion: Ranking = None
    cap: int = 10000
    use_criterion: bool = True
    autoreduce_input: bool = False

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if self.completion is None:
            object.__setattr__(self, "completion", self.main)


class InconsistentSystem(ValueError):
    """An equation or a prolongation reduced to a nonzero constant: 0 = c."""


def _nonzero_constant(poly, what):
    return InconsistentSystem(f"{what} reduces to {poly.const.format(poly.ctx.variables)} = 0")


class Triple:
    """Basis element with its prolongation ancestor and processed variables.

    ``leader`` is the element's leading derivative and ``key`` its sort key
    under the main ranking, fixed when the triple is made.  ``prolonged``
    maps a variable x to the main and completion keys of the leader's
    derivative by x, filled by the completion loop on first use.
    """

    __slots__ = ("poly", "ancestor", "processed", "serial", "leader", "key", "prolonged")

    def __init__(self, poly, ancestor, processed, serial, leader, key=None):
        self.poly = poly
        self.ancestor = ancestor
        self.processed = set(processed)
        self.serial = serial
        self.leader = leader
        self.key = key
        self.prolonged = {}


@dataclass(frozen=True)
class InvolutiveBasis:
    """Completed system: monic elements, their separations, options used."""

    elements: tuple
    separations: tuple
    options: CompletionOptions
    ancestors: tuple = ()
    prolongations_examined: int = 0

    def __len__(self):
        return len(self.elements)

    def leading(self):
        return [f.ld(self.options.main) for f in self.elements]

    def monomial_sets(self):
        out = {}
        for f in self.elements:
            d = f.ld(self.options.main)
            out.setdefault(d.indet, []).append(d.index)
        return {j: tuple(sorted(us)) for j, us in out.items()}

    def format(self):
        return "\n".join(f.format(self.options.main) for f in self.elements)


_key = attrgetter("key")


def _by_leader(polys, ranking):
    """Triples of ``polys`` keyed by leader; the first of any that share one."""
    triples = {}
    for i, f in enumerate(polys):
        lead = f.ld(ranking)
        if lead not in triples:
            triples[lead] = Triple(f, lead, (), i, lead, ranking.key(lead))
    return triples


def _cone_indexes(leaders, division):
    """One cone index per function over the multiindices of its leaders."""
    tips = {}
    for d in leaders:
        tips.setdefault(d.indet, []).append(d.index)
    return {j: ConeIndex(division, us) for j, us in tips.items()}


def _reduce(p, ranking, reducer_for):
    """Generic full reduction loop; ``reducer_for`` gives the triple that
    reduces a derivative, or None."""
    h = p
    while h.terms:
        for d, a in h.sorted_terms(ranking):
            t = reducer_for(d)
            if t is not None:
                break
        else:
            return h
        f, lead = t.poly, t.leader
        lc = f.terms[lead]
        h = h.sub_scaled(f.prolong(d.index / lead.index), a if lc.is_one() else a / lc)
    return h


def _involutive_nf(p, triples, indexes, ranking):
    """Involutive normal form of p modulo triples keyed by leader, whose
    leaders ``indexes`` holds; the divisor with the lowest leader reduces."""

    def reducer_for(term):
        index = indexes.get(term.indet)
        if index is None:
            return None
        return min((triples[Derivative(term.indet, v)] for v in index.divisors(term.index)),
                   key=_key, default=None)

    return _reduce(p, ranking, reducer_for)


def involutive_normal_form(p, G, division, ranking):
    """Full involutive normal form of p modulo the elements of G.

    No term of the result lies in the involutive cone of any leading
    derivative of G; of two elements with one leader, the first reduces.
    """
    G = list(G)
    if not G:
        return p
    triples = _by_leader(G, ranking)
    return _involutive_nf(p, triples, _cone_indexes(triples, division), ranking)


def conventional_normal_form(p, G, ranking):
    """Ordinary (non-involutive) full normal form; the independent reducer."""
    G = list(G)
    if not G:
        return p
    triples = _by_leader(G, ranking).values()

    def reducer_for(term):
        return min((t for t in triples if t.leader.indet == term.indet
                    and t.leader.index.divides(term.index)), key=_key, default=None)

    return _reduce(p, ranking, reducer_for)


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


def conventional_autoreduce(F, ranking):
    """Mutual conventional reduction until stable; drops zeros, keeps monic."""
    work = [f.normalize(ranking) for f in F if not f.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            rest = work[:i] + work[i + 1:]
            r = conventional_normal_form(work[i], rest, ranking)
            if r.is_zero():
                work.pop(i)
                changed = True
                break
            if not r.terms:
                raise _nonzero_constant(r, f"the equation {work[i].format(ranking)} = 0")
            r = r.normalize(ranking)
            if r != work[i]:
                work[i] = r
                changed = True
                break
    return work


def chain_criterion(p, theta, triples, indexes, ranking_c, main):
    """Involutive analogue of the Buchberger chain criterion.

    True if some triple (f, ancestor, _) has a leader involutively dividing
    ld(p), found in the cone index of its function, while lcm(theta, ancestor)
    ranks strictly below ld(p) under the completion ranking.  Ancestors
    attached to a different function never qualify.
    """
    lead = p.ld(main)
    key_lead = ranking_c.key(lead)
    index = indexes.get(lead.indet)
    for v in index.divisors(lead.index) if index is not None else ():
        ancestor = triples[Derivative(lead.indet, v)].ancestor
        if theta.indet == ancestor.indet and ranking_c.key(theta.lcm(ancestor)) < key_lead:
            return True
    return False


def _basis_of(triples, indexes, opts, examined=0, ancestors=False):
    order = sorted(triples.values(), key=_key, reverse=True)
    seps = tuple(indexes[t.leader.indet].separation(t.leader.index) for t in order)
    anc = tuple(t.ancestor for t in order) if ancestors else ()
    return InvolutiveBasis(tuple(t.poly for t in order), seps, opts, anc, examined)


def minimal_involutive_basis(F, opts=None, trace=None):
    """Complete a finite system to its minimal involutive basis.

    Raises CapExceeded (with the partial basis attached) once the number of
    examined nonmultiplicative prolongations passes ``opts.cap``; Pommaret
    division is not noetherian, so that outcome is expected for inputs with
    no finite Pommaret basis.
    """
    opts = opts or CompletionOptions()
    main, comp = opts.main, opts.completion
    work = [f for f in F if not f.is_zero()]
    if not work:
        raise ValueError("input system is empty or all zero")
    for f in work:
        if not f.terms:
            raise _nonzero_constant(f, "an input equation")
    work = [f.normalize(main) for f in work]
    if opts.autoreduce_input:
        work = conventional_autoreduce(work, main)

    serial = 0

    def new_triple(poly, ancestor, processed, leader):
        nonlocal serial
        serial += 1
        return Triple(poly, ancestor, processed, serial, leader, main.key(leader))

    # G, keyed by leader, and one cone index per function (module docstring)
    triples, indexes = {}, defaultdict(partial(ConeIndex, opts.division))

    def nonmultiplicative(t):
        return indexes[t.leader.indet].filed[t.leader.index]

    def adjoin(t, drop=()):
        triples[t.leader] = t
        indexes[t.leader.indet].add(t.leader.index, drop)

    def adjoin_normal_form(r, leader, ancestor, processed=()):
        """Adjoin r, the nonzero normal form of an element led by ``leader``."""
        r = r.normalize(main)
        lead = r.ld(main)
        dropped = defaultdict(list)
        if lead != leader:
            # a lower leader starts its own ancestry and displaces every
            # element ranked above it back to the queue
            ancestor, processed, key = lead, (), main.key(lead)
            for old in [u for u in triples.values() if u.key > key]:
                Q.append(old)
                del triples[old.leader]
                dropped[old.leader.indet].append(old.leader.index)
        # each index a displacement touches is re-filed once
        adjoin(new_triple(r, ancestor, processed, lead), dropped.pop(lead.indet, ()))
        for j, tips in dropped.items():
            indexes[j].remove(*tips)
        # an adjunction only adds nonmultiplicative variables (axiom (d)), a
        # displacement may take some away
        for u in triples.values():
            u.processed &= nonmultiplicative(u)

    lds = [f.ld(main) for f in work]
    start = min(range(len(work)), key=lambda i: (main.key(lds[i]), i))
    adjoin(new_triple(work[start], lds[start], set(), lds[start]))
    Q = [new_triple(f, d, set(), d) for i, (f, d) in enumerate(zip(work, lds)) if i != start]
    examined = 0

    while True:
        # examine nonmultiplicative prolongations by the normal strategy, below
        # the lowest queue element
        while True:
            gate = min((t.key for t in Q), default=None)
            best = None
            for t in triples.values():
                for x in nonmultiplicative(t) - t.processed:
                    keys = t.prolonged.get(x)
                    if keys is None:
                        lead = t.leader.differentiate(x)
                        keys = t.prolonged[x] = (main.key(lead), comp.key(lead))
                    if gate is not None and not keys[0] < gate:
                        continue
                    cand_key = (keys[1], t.serial, x)
                    if best is None or cand_key < best[0]:
                        best = (cand_key, t, x)
            if best is None:
                break
            _, t, x = best
            examined += 1
            if examined > opts.cap:
                raise CapExceeded(
                    f"completion exceeded {opts.cap} prolongation examinations",
                    partial=_basis_of(triples, indexes, opts, examined))
            t.processed.add(x)
            p = t.poly.differentiate(x)
            skip = opts.use_criterion and chain_criterion(
                p, t.ancestor, triples, indexes, comp, main)
            status = "criterion"
            if not skip:
                r = _involutive_nf(p, triples, indexes, main)
                if r.is_zero():
                    status = "zero"
                elif not r.terms:
                    raise _nonzero_constant(r, f"the prolongation of {t.poly.format(main)} = 0 "
                                               f"by {t.poly.ctx.variables[x]}")
                else:
                    status = "added"
                    adjoin_normal_form(r, p.ld(main), t.ancestor)
            if trace is not None:
                trace.append({"stage": "prolongation", "leader": t.leader,
                              "variable": x, "criterion": skip, "result": status})
        if not Q:
            break
        # merge the lowest queue element
        t = Q.pop(min(range(len(Q)), key=lambda i: (Q[i].key, Q[i].serial)))
        skip = opts.use_criterion and chain_criterion(
            t.poly, t.ancestor, triples, indexes, comp, main)
        if trace is not None:
            trace.append({"stage": "queue", "leader": t.leader, "criterion": skip})
        if skip:
            continue
        r = _involutive_nf(t.poly, triples, indexes, main)
        if r.is_zero():
            continue
        if not r.terms:
            raise _nonzero_constant(r, f"the equation {t.poly.format(main)} = 0")
        adjoin_normal_form(r, t.leader, t.ancestor, t.processed)

    return _basis_of(triples, indexes, opts, examined, ancestors=True)


def basis_from(elements, opts=None):
    """Wrap an existing system (monic, distinct leaders) without completing."""
    opts = opts or CompletionOptions()
    work = [f.normalize(opts.main) for f in elements if not f.is_zero()]
    if not work:
        raise ValueError("empty system")
    leaders = [f.ld(opts.main) for f in work]
    if len(set(leaders)) != len(leaders):
        raise ValueError("leading derivatives are not pairwise distinct")
    triples = _by_leader(work, opts.main)
    return _basis_of(triples, _cone_indexes(triples, opts.division), opts)


def verify_involutive(basis):
    """Local involutivity: every nonmultiplicative prolongation reduces to 0."""
    return _prolongations_reduce(basis, lambda theta: True)


def verify_partial_involutive(basis, vartheta):
    """Involutivity restricted to prolongations ranked below ``vartheta``.

    Only nonmultiplicative prolongations whose leading derivative precedes
    ``vartheta`` under the completion ranking are required to vanish.
    """
    comp = basis.options.completion
    bound = comp.key(vartheta)
    return _prolongations_reduce(basis, lambda theta: comp.key(theta) < bound)


def _prolongations_reduce(basis, wanted):
    """All nonmultiplicative prolongations whose leader is ``wanted`` reduce to 0."""
    main = basis.options.main
    triples = _by_leader(basis.elements, main)
    indexes = _cone_indexes(triples, basis.options.division)
    return all(_involutive_nf(t.poly.differentiate(x), triples, indexes, main).is_zero()
               for t in triples.values()
               for x in indexes[t.leader.indet].filed[t.leader.index]
               if wanted(t.leader.differentiate(x)))
