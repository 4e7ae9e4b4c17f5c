import heapq
import signal
import textwrap
from pathlib import Path

import pytest

from involute import (Division, MultiIndex, RationalFunction, in_cone, in_involutive_cone,
                      involutive_normal_form, monomials_up_to, parse_problem,
                      separations)
from involute.monomial import ConeIndex
from involute.scalars import MultivarPolynomial

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


WALL_LIMIT_S = 60  # far above the slowest test (about 3 s)


@pytest.fixture(scope="session")
def problems_path():
    return PROBLEMS


def _wall_limit_expired(signum, frame):
    raise TimeoutError(f"test ran past its {WALL_LIMIT_S} s wall limit")


@pytest.fixture(autouse=True)
def wall_limit():
    """Fail a test that stalls, instead of holding up the run (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _wall_limit_expired)
    signal.alarm(WALL_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def load_problem(name):
    return parse_problem((PROBLEMS / name).read_text())


def system(text):
    pf = parse_problem(textwrap.dedent(text))
    return pf, pf.linear_system()


def freeze_pommaret_indexes(monkeypatch):
    """Make ``ConeIndex.add`` and ``.remove`` raise on a Pommaret index: the
    completion reads such an index as built."""
    for name in ("add", "remove"):
        def guarded(self, *args, _method=getattr(ConeIndex, name), _name=name):
            if self.kind is Division.POMMARET:
                raise AssertionError(f"ConeIndex.{_name} on a Pommaret index")
            return _method(self, *args)

        monkeypatch.setattr(ConeIndex, name, guarded)


def norm_set(eqs, ranking):
    return frozenset(f.normalize(ranking) for f in eqs)


def mi(*exps):
    return MultiIndex(exps)


# -- independent oracles -----------------------------------------------------

def involutive_divisors_bruteforce(w, U, kind, seps=None):
    seps = seps if seps is not None else separations(U, kind)
    return [u for u in U if in_involutive_cone(w, u, seps[u].multiplicative)]


def cones_pairwise_disjoint_bruteforce(U, kind, extra_degree=3):
    """Def-style autoreducedness check by plain enumeration."""
    if not U:
        return True
    n = len(U[0])
    bound = max(u.degree for u in U) + extra_degree
    seps = separations(U, kind)
    for w in monomials_up_to(n, bound):
        if len(involutive_divisors_bruteforce(w, U, kind, seps)) > 1:
            return False
    return True


def complete_bruteforce(U, completed, kind, extra_degree=3):
    """Every multiple of U up to the bound has an involutive divisor."""
    n = len(U[0])
    bound = max(u.degree for u in completed) + extra_degree
    seps = separations(completed, kind)
    for u in U:
        for w in monomials_up_to(n, bound - u.degree):
            if not involutive_divisors_bruteforce(u * w, completed, kind, seps):
                return False
    return True


def pommaret_completion_bruteforce(U, cap):
    """The Pommaret completion of U, or None once it passes ``cap`` elements.

    Plain enumeration, lowest degree first: a candidate is adjoined unless an
    element v = w[:k] + (c, 0, ..., 0) with 0 < c <= w[k] is there (the
    Pommaret divisors of w), and then its nonmultiplicative prolongations,
    by the variables before its last nonzero exponent, become candidates.
    """
    n = len(U[0])
    zero = (0,) * n
    basis = set()
    heap = [(sum(u), tuple(u)) for u in set(U)]
    heapq.heapify(heap)
    while heap:
        _, w = heapq.heappop(heap)
        if zero in basis or any(w[:k] + (c,) + zero[k + 1:] in basis
                                for k in range(n) for c in range(1, w[k] + 1)):
            continue
        basis.add(w)
        if len(basis) > cap:
            return None
        for i in range(max((k for k, e in enumerate(w) if e), default=0)):
            p = w[:i] + (w[i] + 1,) + w[i + 1:]
            heapq.heappush(heap, (sum(p), p))
    return basis


def verify_partial_involutive(basis, vartheta):
    """Partial involutivity up to ``vartheta``: every nonmultiplicative
    prolongation whose leader ranks below ``vartheta`` under the completion
    ranking has involutive normal form 0 modulo the basis."""
    opts = basis.options
    bound = opts.completion.key(vartheta)
    return all(involutive_normal_form(f.differentiate(x), basis.elements, opts.division,
                                      opts.main).is_zero()
               for f, sep in zip(basis.elements, basis.separations)
               for x in sep.nonmultiplicative
               if opts.completion.key(f.ld(opts.main).differentiate(x)) < bound)


def decomposition_exact_bruteforce(U, dec, extra_degree=3):
    """Each complement monomial in exactly one cone, ideal members in none."""
    n = dec.nvars
    bound = max([u.degree for u in U] + [v.degree for v, _ in dec.entries()] + [0])
    for w in monomials_up_to(n, bound + extra_degree):
        hits = sum(1 for v, mult in dec.entries() if in_involutive_cone(w, v, mult))
        expected = 0 if in_cone(w, U) else 1
        if hits != expected:
            return False
    return True


def hf_bruteforce(basis, s):
    ctx = basis.elements[0].ctx
    sets = basis.monomial_sets()
    count = 0
    for j in range(ctx.m):
        us = sets.get(j, ())
        count += sum(1 for w in monomials_up_to(ctx.n, s) if not in_cone(w, us))
    return count


def lift_rational(rf, total):
    """Embed a rational function into a wider variable context (appended vars)."""
    def lift_poly(p):
        return MultivarPolynomial(total, {tuple(e) + (0,) * (total - p.nvars): c
                                          for e, c in p.terms.items()})
    return RationalFunction(lift_poly(rf.num), lift_poly(rf.den))


def substitute_solution(eq, assignments, total):
    """Plug explicit expressions (polynomials over extended vars) into a
    determining equation; returns the resulting rational function."""
    acc = RationalFunction.zero(total)
    for d, c in eq.terms.items():
        p = assignments[d.indet]
        for i, e in enumerate(d.index):
            for _ in range(e):
                p = p.partial(i)
        acc = acc + lift_rational(c, total) * RationalFunction(p)
    return acc + lift_rational(eq.const, total)
