"""Checks of the CLI's outputs that do not use involute.

Each check takes the ``expect`` specification of an invocation, the exit
code, standard output and standard error, and returns a ``Verdict``.  The
monomial checks count monomials directly; the symmetry and paper examples
compare against hand-written tables.
"""

import itertools
import json
from fractions import Fraction
from math import comb
from typing import NamedTuple

INFINITE = "infinite"

# Lie point-symmetry group dimensions, from the literature.
SYMMETRY_DIMENSIONS = {
    "kdv": 4, "burgers": 5, "nls": 5, "zk": 5, "boussinesq": 4,
    "harrydym": 5, "diffusion": 3,
    "heat": INFINITE, "kp": INFINITE, "euler2d": INFINITE, "transport": INFINITE,
}

# Coordinates of each symmetry input's determining system, in the order of
# the printed exponent vectors: the dependent variables, then the independent
# ones in reverse, which is involute's default determining order.
SYMMETRY_COORDINATES = {
    "kdv": "u x t", "burgers": "u x t", "heat": "u x t", "nls": "u v x t",
    "zk": "u y x t", "kp": "u y x t", "boussinesq": "u v x t", "euler2d": "w p y x t",
    "harrydym": "y x t", "diffusion": "y x t", "transport": "y x t",
}

# Parametric derivatives of each order, from order 0, of the determining
# systems with an infinite group.  These counts belong to the system, not to
# the basis printed for it.  Beyond the last order listed, each continues as
# the polynomial of degree below n that its last n entries fix.
PARAMETRIC_PER_ORDER = {
    # the 6-dimensional group plus any heat solution, which has 1 parametric
    # derivative of order 0 and 2 of each higher order
    "heat": (3, 5, 3, 2, 2, 2),
    # the determining system is eta_t = eta_x, (tau + xi)_t = (tau + xi)_x:
    # 3 C(s+2, 2) derivatives of order s, s (s+1) of them principal
    "transport": (3, 7, 12, 18, 25),
    # three arbitrary functions of t, one parametric derivative each per order
    "kp": (4, 5, 3, 3, 3, 3, 3),
    "euler2d": (5, 6, 3, 3, 3, 3, 3, 3),
}

# Parametric derivatives of problems/janet3.pde, as the paper lists them.
JANET3_PARAMETRIC = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                     (0, 1, 1), (0, 0, 2), (1, 1, 1), (1, 0, 2), (0, 0, 3), (1, 0, 3)}

# Pommaret initial data of problems/fourvar.pde, as the paper lists them.
FOURVAR_INITIAL_DATA = {((0, 0, 0, 0), "constant", ()), ((0, 0, 0, 1), "function", ("x4",))}

# Above this many monomials in one degree, count by inclusion-exclusion.
BRUTE_FORCE_LIMIT = 3000


class Verdict(NamedTuple):
    ok: bool
    reason: str = ""
    basis_size: int = 0


def fail(reason):
    return Verdict(False, reason)


# -- monomial arithmetic -------------------------------------------------------

def divides(u, w):
    return all(a <= b for a, b in zip(u, w))


def in_ideal(w, U):
    return any(divides(u, w) for u in U)


def lcm(vs, n):
    return tuple(max((v[i] for v in vs), default=0) for i in range(n))


def monomials_of_degree(n, s):
    """All exponent vectors of length n and total degree s."""
    if n == 1:
        yield (s,)
        return
    for first in range(s, -1, -1):
        for rest in monomials_of_degree(n - 1, s - first):
            yield (first,) + rest


def _count_of_degree(n, s):
    return comb(s + n - 1, n - 1) if s >= 0 else 0


def standard_count(U, n, s):
    """Number of degree-s monomials outside the ideal generated by U."""
    if _count_of_degree(n, s) <= BRUTE_FORCE_LIMIT:
        return sum(1 for w in monomials_of_degree(n, s) if not in_ideal(w, U))
    total = 0
    for k in range(len(U) + 1):
        for S in itertools.combinations(U, k):
            total += (-1) ** k * _count_of_degree(n, s - sum(lcm(S, n)))
    return total


def cone_count(degree, k, s):
    """Number of degree-s monomials in a cone of ``k`` variables over one of ``degree``."""
    r = s - degree
    if r < 0:
        return 0
    if not k:
        return 1 if r == 0 else 0
    return _count_of_degree(k, r)


def in_cone(w, v, mult):
    """True iff w lies in the cone of v over the variables ``mult``."""
    return all(b >= a if i in mult else b == a for i, (a, b) in enumerate(zip(v, w)))


def cones_meet(v, mv, w, mw):
    """True iff the cones v*[mv] and w*[mw] share a monomial."""
    for i, (a, b) in enumerate(zip(v, w)):
        if i in mv and i in mw:
            continue
        if i in mv and b < a or i in mw and a < b:
            return False
        if i not in mv and i not in mw and a != b:
            return False
    return True


def overlap_error(cones):
    for (v, mv), (w, mw) in itertools.combinations(cones, 2):
        if cones_meet(v, mv, w, mw):
            return f"cones of {v} and {w} overlap"
    return ""


def same_ideal(B, U):
    return all(in_ideal(b, U) for b in B) and all(in_ideal(u, B) for u in U)


def exact_cover_error(cones, U, n):
    """Why the cones do not partition the ideal of U, or '' when they do.

    The cones must lie in the ideal and be pairwise disjoint; then they
    partition it iff in every degree they hold as many monomials as the
    ideal.  Both counts are polynomials in the degree from ``top - n`` on,
    so checking every degree up to ``top`` covers all degrees.
    """
    B = [v for v, _ in cones]
    if not same_ideal(B, U):
        return "basis does not generate the input ideal"
    overlap = overlap_error(cones)
    if overlap:
        return overlap
    top = max(sum(lcm(U, n)), max(sum(v) for v in B)) + n
    for s in range(top + 1):
        ideal = _count_of_degree(n, s) - standard_count(U, n, s)
        covered = sum(cone_count(sum(v), len(m), s) for v, m in cones)
        if covered != ideal:
            return f"degree {s}: cones hold {covered} monomials, the ideal {ideal}"
    return ""


# -- output parsing -------------------------------------------------------------

def _doc(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _cones(doc):
    """(leader, multiplicative indices) per basis element; None if not monic.

    The leader is the grlex-highest derivative, the ranking every input
    checked this way uses.
    """
    names = doc["variables"]
    cones = []
    for el in doc["basis"]:
        lead = max(el["terms"], key=lambda t: (sum(t["index"]), t["index"]))
        if lead["coefficient"] != "1":
            return None
        cones.append((tuple(lead["index"]),
                      frozenset(names.index(x) for x in el["multiplicative"])))
    return cones


# -- checks per kind ------------------------------------------------------------

def _check_complete(doc, U):
    if any(el["constant"] != "0" or len(el["terms"]) != 1 for el in doc["basis"]):
        return fail("basis element is not a monomial")
    cones = _cones(doc)
    if cones is None:
        return fail("basis element is not monic")
    err = exact_cover_error(cones, [tuple(u) for u in U], len(U[0]))
    return fail(err) if err else Verdict(True, basis_size=len(cones))


def multiplicative(B, division):
    """Multiplicative variable indices of each element of B under the division.

    Variables are numbered as the CLI numbers them.  Janet: i is multiplicative
    for u iff u has the largest i-degree among the elements agreeing with u in
    the variables before i.  Pommaret: the variables from u's last nonzero
    exponent on.  Lex-induced: every variable in which no lexicographically
    smaller element has a larger exponent.
    """
    n = len(B[0])
    if division == "janet":
        return [frozenset(i for i in range(n)
                          if u[i] == max(v[i] for v in B if v[:i] == u[:i]))
                for u in B]
    if division == "pommaret":
        return [frozenset(range(max((i for i, e in enumerate(u) if e), default=0), n))
                for u in B]
    if division == "lexinduced":
        return [frozenset(i for i in range(n) if not any(v < u and v[i] > u[i] for v in B))
                for u in B]
    raise ValueError(f"unknown division {division!r}")


def _check_monomial(doc, U, division):
    B = [tuple(b) for b in doc["completed"]]
    err = exact_cover_error(list(zip(B, multiplicative(B, division))),
                            [tuple(u) for u in U], len(U[0]))
    return fail(err) if err else Verdict(True, basis_size=len(B))


def _check_hilbert(doc, U):
    U = [tuple(u) for u in U]
    n = len(U[0])
    hp = [Fraction(c) for c in doc["polynomial"]]
    stab = doc["stabilization"]
    samples = doc["samples"]
    upto = list(itertools.accumulate(
        standard_count(U, n, t) for t in range(max(s for s, _ in samples) + 1)))
    for s, value in samples:
        if value != upto[s]:
            return fail(f"HF({s}) = {value}, counted {upto[s]}")
        if s >= stab and sum(c * s ** k for k, c in enumerate(hp)) != upto[s]:
            return fail(f"HP({s}) differs from HF({s}) = {upto[s]}")
    pure = all(any(u[i] == sum(u) for u in U) for i in range(n))
    if not pure:
        want = INFINITE
    else:
        top = sum(lcm(U, n))
        want = sum(standard_count(U, n, s) for s in range(top + 1))
    if doc["dimension"] != want:
        return fail(f"dimension {doc['dimension']}, counted {want}")
    return Verdict(True)


def _extend(counts, upto, n):
    """``counts`` continued to index ``upto`` by a zero n-th difference."""
    counts = list(counts)
    while len(counts) <= upto:
        counts.append(-sum((-1) ** j * comb(n, j) * counts[-j] for j in range(1, n + 1)))
    return counts


def _check_symmetry(doc, name):
    want = SYMMETRY_DIMENSIONS[name]
    if doc["dimension"] != want:
        return fail(f"symmetry dimension {doc['dimension']}, expected {want}")
    # There are as many unknown infinitesimals as coordinates, n of each.
    # The printed cones must be disjoint per infinitesimal; then they leave
    # n C(s+n-1, n-1) minus their count of the derivatives of order s
    # parametric.  Beyond the highest leader that count is a polynomial of
    # degree below n, so n more orders fix it for good.
    coords = SYMMETRY_COORDINATES[name].split()
    n = len(coords)
    cones = {}
    for el in doc["basis"]:
        lead = el["terms"][0]
        if sum(lead["index"]) != max(sum(t["index"]) for t in el["terms"]):
            return fail(f"leader {lead} is not of the highest order in its element")
        mult = frozenset(coords.index(x) for x in el["multiplicative"])
        cones.setdefault(lead["function"], []).append((tuple(lead["index"]), mult))
    for function, own in cones.items():
        overlap = overlap_error(own)
        if overlap:
            return fail(f"{function}: {overlap}")
    every = [c for own in cones.values() for c in own]
    top = max(sum(v) for v, _ in every)
    upto = max(top + n, len(PARAMETRIC_PER_ORDER.get(name, ())) - 1)
    parametric = [n * _count_of_degree(n, s) - sum(cone_count(sum(v), len(m), s)
                                                   for v, m in every)
                  for s in range(upto + 1)]
    if want == INFINITE:
        expected = _extend(PARAMETRIC_PER_ORDER[name], upto, n)
        if parametric != expected:
            return fail(f"the printed cones leave {parametric} parametric derivatives "
                        f"of orders 0 to {upto}, expected {expected}")
    elif any(parametric[top + 1:]) or sum(parametric) != want:
        return fail(f"the printed cones leave {parametric} parametric derivatives "
                    f"of orders 0 to {upto}, expected {want} in all")
    return Verdict(True, basis_size=len(doc["basis"]))


def _check_fourvar(doc):
    got = {(tuple(e["derivative"]), e["kind"], tuple(e["multipliers"]))
           for e in doc["initial_data"]}
    if len(doc["basis"]) != 3 or got != FOURVAR_INITIAL_DATA:
        return fail(f"{len(doc['basis'])} elements, initial data {sorted(got)}")
    if doc["dimension"] != INFINITE:
        return fail(f"dimension {doc['dimension']}, expected infinite")
    return Verdict(True, basis_size=3)


def _check_janet3(doc):
    cones = _cones(doc)
    if cones is None:
        return fail("basis element is not monic")
    overlap = overlap_error(cones)
    if overlap:
        return fail(overlap)
    # beyond the highest leader the parametric count per degree is a
    # polynomial of degree below 3, so 3 more empty degrees prove it is 0
    top = max(sum(v) for v, _ in cones) + 3
    parametric = {w for s in range(top + 1) for w in monomials_of_degree(3, s)
                  if not any(in_cone(w, v, m) for v, m in cones)}
    if parametric != JANET3_PARAMETRIC:
        return fail(f"parametric derivatives {sorted(parametric)}")
    return Verdict(True, basis_size=len(cones))


def check(expect, rc, out, err):
    """Verdict on one invocation's exit code and output."""
    kind = expect["kind"]
    if kind == "cap":
        if rc == 2:
            if "cap exceeded" in err:
                return Verdict(True)
            return fail("exit 2 without the cap exceeded message")
        kind = expect["then"]
    if rc != 0:
        return fail(f"exit code {rc}: {err.strip()[-200:]}")
    doc = _doc(out)
    if doc is None:
        return fail("output is not JSON")
    try:
        if kind == "symmetry":
            return _check_symmetry(doc, expect["name"])
        if kind == "complete":
            return _check_complete(doc, expect["U"])
        if kind == "monomial":
            return _check_monomial(doc, expect["U"], expect["division"])
        if kind == "hilbert":
            return _check_hilbert(doc, expect["U"])
        if kind == "fourvar_ivp":
            return _check_fourvar(doc)
        if kind == "janet3_complete":
            return _check_janet3(doc)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return fail(f"malformed output: {exc!r}")
    raise ValueError(f"unknown check {kind!r}")
