"""Involutive reduction and completion of linear differential systems.

The completion routine keeps a set G of monic generators together with
bookkeeping triples (poly, ancestor, processed-variables).  Elements of a
queue Q are merged in lowest-leader first; before each merge, the
nonmultiplicative prolongations whose leaders rank below it are examined
lowest first under the completion ranking, with a chain criterion to skip
prolongations that cannot contribute.  Every element
whose leader exceeds a newly found lower leader is displaced back into the
queue, which keeps the final basis minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffpoly import Ranking
from .monomial import CapExceeded, Division, in_involutive_cone, separations

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


def _separation_data(G, division, ranking, leaders=None):
    """Leading-monomial sets per function and the separation of each element."""
    if leaders is None:
        leaders = [g.ld(ranking) for g in G]
    sets = {}
    for d in leaders:
        sets.setdefault(d.indet, set()).add(d.index)
    seps_by_j = {j: separations(us, division) for j, us in sets.items()}
    elem_seps = [seps_by_j[d.indet][d.index] for d in leaders]
    return sets, seps_by_j, leaders, elem_seps


def _reduction_data(G, division, ranking, leaders=None, keys=None):
    """What involutive reduction modulo G needs: separations by function, and
    per element its leader, the leader's ranking key and its separation."""
    _, seps_by_j, leaders, elem_seps = _separation_data(G, division, ranking, leaders)
    if keys is None:
        keys = [ranking.key(d) for d in leaders]
    return seps_by_j, leaders, keys, elem_seps


def _reduce(p, G, ranking, leaders, keys, reducer_for):
    """Generic full reduction loop; ``reducer_for`` yields candidate indices
    in increasing order, and the one with the lowest leader is used."""
    if not G:
        return p
    h = p
    while h.terms:
        for d, a in h.sorted_terms(ranking):
            idx = min(reducer_for(d), key=keys.__getitem__, default=None)
            if idx is not None:
                break
        else:
            return h
        f, lead = G[idx], leaders[idx]
        lc = f.terms[lead]
        h = h.sub_scaled(f.prolong(d.index / lead.index), a if lc.is_one() else a / lc)
    return h


def _involutive_nf(p, G, ranking, data):
    """Involutive normal form of p modulo G, given ``_reduction_data`` of G."""
    _, leaders, keys, elem_seps = data

    def reducer_for(term):
        for idx, (lead, sep) in enumerate(zip(leaders, elem_seps)):
            if lead.indet == term.indet and in_involutive_cone(term.index, lead.index,
                                                               sep.multiplicative):
                yield idx

    return _reduce(p, G, ranking, leaders, keys, reducer_for)


def involutive_normal_form(p, G, division, ranking):
    """Full involutive normal form of p modulo the elements of G.

    No term of the result lies in the involutive cone of any leading
    derivative of G; reducers are scanned lowest leader first.
    """
    G = list(G)
    if not G:
        return p
    return _involutive_nf(p, G, ranking, _reduction_data(G, division, ranking))


def conventional_normal_form(p, G, ranking):
    """Ordinary (non-involutive) full normal form; the independent reducer."""
    G = list(G)
    if not G:
        return p
    leaders = [g.ld(ranking) for g in G]

    def reducer_for(term):
        for idx, lead in enumerate(leaders):
            if lead.indet == term.indet and lead.index.divides(term.index):
                yield idx

    return _reduce(p, G, ranking, leaders, [ranking.key(d) for d in leaders], reducer_for)


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


def chain_criterion(p, theta, triples, seps_by_j, ranking_c, main):
    """Involutive analogue of the Buchberger chain criterion.

    True if some triple (f, ancestor, _) has a leader involutively dividing
    ld(p) for the same function while lcm(theta, ancestor) ranks strictly
    below ld(p) under the completion ranking.  Ancestors attached to a
    different function never qualify.
    """
    lead = p.ld(main)
    key_lead = ranking_c.key(lead)
    for t in triples:
        fl = t.leader
        if fl.indet != lead.indet or not in_involutive_cone(
                lead.index, fl.index, seps_by_j[fl.indet][fl.index].multiplicative):
            continue
        if theta.indet != t.ancestor.indet:
            continue
        if ranking_c.key(theta.lcm(t.ancestor)) < key_lead:
            return True
    return False


def _basis_of(G, opts, ancestors=None, examined=0, seps_by_j=None):
    order = sorted(range(len(G)), key=lambda i: opts.main.key(G[i].ld(opts.main)),
                   reverse=True)
    elements = tuple(G[i] for i in order)
    if seps_by_j is None:
        _, seps_by_j, _, _ = _separation_data(elements, opts.division, opts.main)
    leaders = [f.ld(opts.main) for f in elements]
    seps = tuple(seps_by_j[d.indet][d.index] for d in leaders)
    anc = tuple(ancestors[i] for i in order) if ancestors else ()
    return InvolutiveBasis(elements, seps, opts, anc, examined)


def minimal_involutive_basis(F, opts=None, trace=None):
    """Complete a finite system to its minimal involutive basis.

    Raises CapExceeded (with the partial basis attached) once the number of
    examined nonmultiplicative prolongations passes ``opts.cap``; Pommaret
    division is not noetherian, so that outcome is expected for inputs with
    no finite Pommaret basis.
    """
    opts = opts or CompletionOptions()
    main, comp = opts.main, opts.completion
    division = opts.division
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

    lds = [f.ld(main) for f in work]
    start = min(range(len(work)), key=lambda i: (main.key(lds[i]), i))
    T = [new_triple(work[start], lds[start], set(), lds[start])]
    G = [work[start]]
    Q = [new_triple(f, d, set(), d) for i, (f, d) in enumerate(zip(work, lds)) if i != start]
    examined = 0
    # _reduction_data of G; set to None wherever G changes, rebuilt on demand.
    # T[i].poly is G[i]: both grow by append and shrink together in displace.
    data = None

    def basis_data():
        nonlocal data
        if data is None:
            data = _reduction_data(G, division, main, [t.leader for t in T],
                                   [t.key for t in T])
        return data

    def displace(key_h):
        """Move every triple with leader key above ``key_h`` back to the queue."""
        nonlocal T, G, data
        kept = []
        for t in T:
            if t.key > key_h:
                Q.append(t)
                G.remove(t.poly)
                data = None
            else:
                kept.append(t)
        T = kept
        for t, sep in zip(T, basis_data()[3]):
            t.processed &= sep.nonmultiplicative

    while True:
        # examine nonmultiplicative prolongations by the normal strategy, below
        # the lowest queue element
        while True:
            seps_by_j, _, _, elem_seps = basis_data()
            gate = None
            if Q:
                gate = min(t.key for t in Q)
            best = None
            for t, sep in zip(T, elem_seps):
                for x in sep.nonmultiplicative - t.processed:
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
                    partial=_basis_of(G, opts, examined=examined, seps_by_j=seps_by_j))
            t.processed.add(x)
            p = t.poly.differentiate(x)
            skip = opts.use_criterion and chain_criterion(
                p, t.ancestor, T, seps_by_j, comp, main)
            status = "criterion"
            if not skip:
                r = _involutive_nf(p, G, main, basis_data())
                if r.is_zero():
                    status = "zero"
                elif not r.terms:
                    raise _nonzero_constant(r, f"the prolongation of {t.poly.format(main)} = 0 "
                                               f"by {t.poly.ctx.variables[x]}")
                else:
                    status = "added"
                    r = r.normalize(main)
                    G.append(r)
                    data = None
                    lead = r.ld(main)
                    if lead == p.ld(main):
                        T.append(new_triple(r, t.ancestor, set(), lead))
                    else:
                        T.append(new_triple(r, lead, set(), lead))
                        displace(T[-1].key)
            if trace is not None:
                trace.append({"stage": "prolongation", "leader": t.leader,
                              "variable": x, "criterion": skip, "result": status})
        if not Q:
            break
        # merge the lowest queue element
        t = Q.pop(min(range(len(Q)), key=lambda i: (Q[i].key, Q[i].serial)))
        skip = opts.use_criterion and chain_criterion(
            t.poly, t.ancestor, T, basis_data()[0], comp, main)
        if trace is not None:
            trace.append({"stage": "queue", "leader": t.leader, "criterion": skip})
        if skip:
            continue
        r = _involutive_nf(t.poly, G, main, basis_data())
        if r.is_zero():
            continue
        if not r.terms:
            raise _nonzero_constant(r, f"the equation {t.poly.format(main)} = 0")
        r = r.normalize(main)
        G.append(r)
        data = None
        lead = r.ld(main)
        if lead == t.leader:
            T.append(new_triple(r, t.ancestor, set(), lead))
            T[-1].processed = t.processed & basis_data()[3][-1].nonmultiplicative
        else:
            T.append(new_triple(r, lead, set(), lead))
            displace(T[-1].key)

    ancestors = {id(t.poly): t.ancestor for t in T}
    return _basis_of(G, opts, [ancestors[id(g)] for g in G], examined, basis_data()[0])


def basis_from(elements, opts=None):
    """Wrap an existing system (monic, distinct leaders) without completing."""
    opts = opts or CompletionOptions()
    work = [f.normalize(opts.main) for f in elements if not f.is_zero()]
    if not work:
        raise ValueError("empty system")
    leaders = [f.ld(opts.main) for f in work]
    if len(set(leaders)) != len(leaders):
        raise ValueError("leading derivatives are not pairwise distinct")
    return _basis_of(work, opts)


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
    G = list(basis.elements)
    main = basis.options.main
    data = _reduction_data(G, basis.options.division, main)
    return all(_involutive_nf(f.differentiate(x), G, main, data).is_zero()
               for f, sep in zip(G, data[3]) for x in sep.nonmultiplicative
               if wanted(f.ld(main).differentiate(x)))
