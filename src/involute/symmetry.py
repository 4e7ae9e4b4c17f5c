"""Lie point-symmetry determining systems for solved-form polynomial PDEs.

Works with polynomials in the independent variables, the dependent
functions, their derivative symbols, and the derivatives of the unknown
infinitesimal coefficients (one xi per independent variable, one eta per
dependent function, each a function of all x's and y's).  Applying the
prolonged vector field to an equation and eliminating the equation's lead
and its differential consequences leaves a polynomial in the surviving
derivative symbols whose coefficients, linear in the xi/eta derivatives,
form the determining system.  Each determining equation is built with
polynomial coefficients and kept primitive (``LinearDiffPoly.primitive``).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .analysis import solution_dimension
from .completion import CompletionOptions, minimal_involutive_basis
from .diffpoly import Context, Derivative, LinearDiffPoly, Ranking
from .monomial import MultiIndex
from .scalars import (MultivarPolynomial, RationalFunction, SparsePolynomial, exact,
                      power_product, signed_sum, signed_term)


def _add_index(alpha, i):
    return alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]


def _accumulate(res, key, c):
    """Add c to the coefficient of ``key`` in the terms dict ``res``."""
    prev = res.get(key)
    s = c if prev is None else prev + c
    if s:
        res[key] = s if s.__class__ is int else exact(s)
    else:
        del res[key]


class DiffPolynomial(SparsePolynomial):
    """Sparse polynomial over Q in variables, functions and derivative symbols.

    Symbols: ('x', i) and ('y', j) for coordinates, ('d', j, alpha) for the
    derivative of y_j by the multiindex alpha, ('a', k, beta) for derivatives
    of the k-th infinitesimal coefficient (beta runs over x's then y's).  A
    monomial is the sorted tuple of its (symbol, exponent) pairs.
    """

    __slots__ = ("n", "m")

    def __init__(self, n, m, terms=None):
        self.n = n
        self.m = m
        self._set_terms(terms)

    @staticmethod
    def _canon(key):
        merged = {}
        for sym, e in key:
            merged[sym] = merged.get(sym, 0) + int(e)
        return tuple(sorted(item for item in merged.items() if item[1]))

    @staticmethod
    def _key_mul(k1, k2):
        merged = dict(k1)
        for sym, e in k2:
            merged[sym] = merged.get(sym, 0) + e
        return tuple(sorted(merged.items()))

    def _raw(self, terms):
        p = DiffPolynomial.__new__(DiffPolynomial)
        p.n, p.m, p.terms = self.n, self.m, terms
        return p

    def _one(self):
        return self._raw({(): 1})

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n, m):
        return cls(n, m)

    @classmethod
    def const(cls, n, m, c):
        return cls(n, m, {(): c})

    @classmethod
    def symbol(cls, n, m, sym):
        p = cls.__new__(cls)
        p.n, p.m, p.terms = n, m, {((sym, 1),): 1}
        return p

    @classmethod
    def var(cls, n, m, i):
        return cls.symbol(n, m, ("x", i))

    @classmethod
    def func(cls, n, m, j):
        return cls.symbol(n, m, ("y", j))

    @classmethod
    def deriv(cls, n, m, j, alpha):
        alpha = tuple(alpha)
        if not any(alpha):
            return cls.func(n, m, j)
        return cls.symbol(n, m, ("d", j, alpha))

    # -- basic structure -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, DiffPolynomial) and self.n == other.n
                and self.m == other.m and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.m, frozenset(self.terms.items())))

    def symbols(self):
        out = set()
        for key in self.terms:
            out.update(sym for sym, _ in key)
        return out

    def max_order(self):
        return max((sum(sym[2]) for key in self.terms for sym, _ in key
                    if sym[0] == "d"), default=0)

    # -- calculus -------------------------------------------------------------

    def partial_wrt(self, sym):
        """Formal partial derivative with respect to one symbol."""
        res = {}
        for key, c in self.terms.items():
            for pos, (s, e) in enumerate(key):
                if s == sym:
                    # distinct monomials have distinct partials, so nothing cancels
                    lowered = ((s, e - 1),) if e > 1 else ()
                    res[key[:pos] + lowered + key[pos + 1:]] = exact(c * e)
                    break
        return self._raw(res)

    def _d_symbol(self, i, sym):
        """Total derivative of a single symbol by x_i."""
        n, m = self.n, self.m
        head = sym[0]
        if head == "x":
            return DiffPolynomial.const(n, m, 1 if sym[1] == i else 0)
        if head == "y":
            return DiffPolynomial.deriv(n, m, sym[1], _add_index((0,) * n, i))
        if head == "d":
            return DiffPolynomial.deriv(n, m, sym[1], _add_index(sym[2], i))
        if head == "a":
            # D_i a_beta = a_{beta+x_i} + sum_j D[y_j, x_i] * a_{beta+y_j}; 'a' sorts before 'd'
            k, beta = sym[1], sym[2]
            unit = _add_index((0,) * n, i)
            terms = {((("a", k, _add_index(beta, i)), 1),): 1}
            for j in range(m):
                terms[(("a", k, _add_index(beta, n + j)), 1), (("d", j, unit), 1)] = 1
            return self._raw(terms)
        raise ValueError(f"unknown symbol {sym!r}")

    def total_derivative(self, i):
        """Chain-rule total derivative D_i, term by term: each power s^e in a
        term contributes e * s^(e-1) * D_i s times the rest of the term."""
        d_symbol = {}
        key_mul = self._key_mul
        res = {}
        for key, c in self.terms.items():
            for pos, (s, e) in enumerate(key):
                ds = d_symbol.get(s)
                if ds is None:
                    ds = d_symbol[s] = self._d_symbol(i, s).terms
                if not ds:
                    continue
                rest = key[:pos] + (((s, e - 1),) if e > 1 else ()) + key[pos + 1:]
                ce = c * e
                for k2, c2 in ds.items():
                    _accumulate(res, key_mul(rest, k2), ce * c2)
        return self._raw(res)

    def substitute(self, mapping):
        """Replace symbols by polynomials; symbols not mapped stay put."""
        key_mul = self._key_mul
        res = {}
        for key, c in self.terms.items():
            kept, prod = [], None
            for item in key:
                rep = mapping.get(item[0])
                if rep is None:
                    kept.append(item)
                else:
                    power = rep if item[1] == 1 else rep ** item[1]
                    prod = power if prod is None else prod * power
            kept = tuple(kept)  # a sorted key stays sorted
            if prod is None:
                _accumulate(res, kept, c)
                continue
            for k2, c2 in prod.terms.items():
                _accumulate(res, key_mul(kept, k2) if kept else k2, c * c2)
        return self._raw(res)

    def format(self):
        var_names = [f"x{i+1}" for i in range(self.n)]
        func_names = [f"y{j+1}" for j in range(self.m)]
        coeff_names = [f"xi{i+1}" for i in range(self.n)] + [f"eta{j+1}" for j in range(self.m)]

        def sym_str(sym):
            if sym[0] == "x":
                return var_names[sym[1]]
            if sym[0] == "y":
                return func_names[sym[1]]
            if sym[0] == "d":
                return f"D[{func_names[sym[1]]},{{{','.join(map(str, sym[2]))}}}]"
            return f"D[{coeff_names[sym[1]]},{{{','.join(map(str, sym[2]))}}}]"

        return signed_sum(
            signed_term(self.terms[key], power_product((sym_str(sym), e) for sym, e in key))
            for key in sorted(self.terms))

    def __repr__(self):
        return f"DiffPolynomial({self.format()})"


class VectorFieldAnsatz:
    """Point-symmetry generator with unknown coefficients xi_i(x,y), eta_j(x,y)."""

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self._zeta = {}

    def xi(self, i):
        return DiffPolynomial.symbol(self.n, self.m, ("a", i, (0,) * (self.n + self.m)))

    def eta(self, j):
        return DiffPolynomial.symbol(self.n, self.m, ("a", self.n + j, (0,) * (self.n + self.m)))

    def zeta(self, j, path):
        """Prolongation coefficient for the derivative of y_j along ``path``."""
        path = tuple(path)
        if not path:
            raise ValueError("empty prolongation path")
        key = (j, path)
        cached = self._zeta.get(key)
        if cached is not None:
            return cached
        n, m = self.n, self.m
        i = path[-1]
        if len(path) == 1:
            z = self.eta(j).total_derivative(i)
            prefix_alpha = (0,) * n
        else:
            z = self.zeta(j, path[:-1]).total_derivative(i)
            prefix_alpha = [0] * n
            for p in path[:-1]:
                prefix_alpha[p] += 1
            prefix_alpha = tuple(prefix_alpha)
        for q in range(n):
            z = z - (DiffPolynomial.deriv(n, m, j, _add_index(prefix_alpha, q))
                     * self.xi(q).total_derivative(i))
        self._zeta[key] = z
        return z


def apply_prolonged_field(f, ansatz, q):
    """Apply the vector field prolonged to order q to a differential polynomial."""
    if q < f.max_order():
        raise ValueError(f"prolongation order {q} below the order of the equation")
    out = DiffPolynomial.zero(f.n, f.m)
    for sym in sorted(f.symbols()):
        if sym[0] == "x":
            coeff = ansatz.xi(sym[1])
        elif sym[0] == "y":
            coeff = ansatz.eta(sym[1])
        elif sym[0] == "d":
            coeff = ansatz.zeta(sym[1], [i for i, e in enumerate(sym[2]) for _ in range(e)])
        else:
            continue
        out = out + coeff * f.partial_wrt(sym)
    return out


class SolvedEquation(NamedTuple("SolvedEquation", [("lead", tuple), ("rhs", DiffPolynomial)])):
    """lead = rhs, with the lead a derivative symbol absent from the rhs."""

    __slots__ = ()

    def __new__(cls, lead, rhs):  # lead: (function index, multiindex)
        j, alpha = lead
        alpha = tuple(alpha)
        if not any(alpha):
            raise ValueError("the lead of a solved equation must have order >= 1")
        for sym in rhs.symbols():
            if sym[0] == "d" and sym[1] == j and all(b >= a for a, b in zip(alpha, sym[2])):
                raise ValueError("rhs contains the lead or one of its derivatives")
        return super().__new__(cls, (j, alpha), rhs)

    @classmethod
    def _make(cls, fields):  # _replace builds through here: keep the checks of __new__
        return cls(*fields)

    def residual(self):
        n, m = self.rhs.n, self.rhs.m
        return DiffPolynomial.deriv(n, m, *self.lead) - self.rhs


class _LeadSubstituter:
    """Fixed-point elimination of lead symbols and their derivatives."""

    def __init__(self, eqs):
        self.eqs = list(eqs)
        self.cache = {}

    def _rhs_derivative(self, idx, delta):
        key = (idx, delta)
        got = self.cache.get(key)
        if got is not None:
            return got
        if not any(delta):
            out = self.eqs[idx].rhs
        else:
            i = next(k for k, e in enumerate(delta) if e)
            lower = tuple(e - 1 if k == i else e for k, e in enumerate(delta))
            out = self._rhs_derivative(idx, lower).total_derivative(i)
        self.cache[key] = out
        return out

    def _match(self, sym):
        if sym[0] != "d":
            return None
        for idx, eq in enumerate(self.eqs):
            j, alpha = eq.lead
            if sym[1] == j and all(b >= a for a, b in zip(alpha, sym[2])):
                return idx
        return None

    def reduce(self, p):
        for _ in range(200):  # passes before the leads are taken to be circular
            mapping = {}
            for sym in sorted(p.symbols()):
                idx = self._match(sym)
                if idx is not None:
                    j, alpha = self.eqs[idx].lead
                    delta = tuple(b - a for a, b in zip(alpha, sym[2]))
                    mapping[sym] = self._rhs_derivative(idx, delta)
            if not mapping:
                return p
            p = p.substitute(mapping)
        raise ValueError("substitution did not reach a fixed point; circular leads?")


class SymmetryProblem(NamedTuple):
    variables: tuple
    functions: tuple
    equations: tuple
    det_order: tuple = None  # sequence of ('x', i) / ('y', j), highest first

    @property
    def n(self):
        return len(self.variables)

    @property
    def m(self):
        return len(self.functions)


def _default_det_order(n, m):
    return tuple(("y", j) for j in range(m)) + tuple(("x", i) for i in reversed(range(n)))


def determining_context(problem):
    """Context of the determining system induced by the problem's ordering."""
    order = problem.det_order or _default_det_order(problem.n, problem.m)
    if sorted(order) != sorted(_default_det_order(problem.n, problem.m)):
        raise ValueError("determining order must list every coordinate once")
    names = []
    for head, k in order:
        names.append(problem.variables[k] if head == "x" else problem.functions[k])
    dep = tuple([f"xi_{v}" for v in problem.variables]
                + [f"eta_{f}" for f in problem.functions])
    return Context(tuple(names), dep), order


def determining_system(problem):
    """Generate the linear determining system for the infinitesimal coefficients.

    Returns the determining-system context and the deduplicated determining
    equations, primitive over Z[x] on denominator 1 (``cleared`` takes no gcd).
    """
    n, m = problem.n, problem.m
    ansatz = VectorFieldAnsatz(n, m)
    subst = _LeadSubstituter(problem.equations)
    det_ctx, order = determining_context(problem)
    pos = {(head, k): p for p, (head, k) in enumerate(order)}
    nv = n + m

    raw = []
    for eq in problem.equations:
        f = eq.residual()
        g = apply_prolonged_field(f, ansatz, f.max_order())
        raw.append(subst.reduce(g))

    internal = Ranking("grlex", "term")
    zero, one = MultivarPolynomial.zero(nv), MultivarPolynomial.const(nv, 1)
    collected = []
    for g in raw:
        # buckets[surviving derivative symbols][ansatz symbol] = coefficient
        # terms; a term of g is the only one with its three parts, so none add
        buckets = {}
        for key, c in g.terms.items():
            dpart = []
            apart = []
            coeff_exp = [0] * nv
            for sym, e in key:
                if sym[0] == "d":
                    dpart.append((sym, e))
                elif sym[0] == "a":
                    apart.append((sym, e))
                else:
                    coeff_exp[pos[sym]] += e
            # the prolonged field is linear in the ansatz, and the substituted
            # right-hand sides hold no ansatz symbol: one, to the first power
            (asym, e), = apart
            assert e == 1, "invariance condition is not linear in the ansatz"
            bucket = buckets.setdefault(tuple(dpart), {})
            bucket.setdefault(asym, {})[tuple(coeff_exp)] = c
        for bucket in buckets.values():
            terms = {}
            for asym, coeffs in bucket.items():
                k, beta = asym[1], asym[2]
                gamma = [0] * nv
                for i in range(n):
                    gamma[pos[("x", i)]] = beta[i]
                for j in range(m):
                    gamma[pos[("y", j)]] = beta[n + j]
                terms[Derivative(k, MultiIndex(gamma))] = zero._raw(coeffs)
            h = LinearDiffPoly(det_ctx, terms, zero)
            collected.append(h.primitive(h.ld(internal)))
    # distinct equations by leader, then length, then printed form; only
    # equations tied on the first two are formatted
    ranked = sorted(((internal.key(e.ld(internal)), len(e.terms)), i, e)
                    for i, e in enumerate(dict.fromkeys(collected)))
    eqs = []
    for _, group in groupby(ranked, key=itemgetter(0)):
        group = [e for _, _, e in group]
        eqs += sorted(group, key=lambda e: e.format(internal)) if len(group) > 1 else group
    return det_ctx, [LinearDiffPoly(det_ctx, {d: RationalFunction.coprime(c, one)
                                              for d, c in e.terms.items()}) for e in eqs]


def symmetry_dimension(problem, opts=None):
    """Dimension of the symmetry group: complete the determining system.

    Returns (SolutionDimension, InvolutiveBasis, determining context).
    """
    det_ctx, eqs = determining_system(problem)
    opts = opts or CompletionOptions(main=Ranking("degrevlex", "term"))
    basis = minimal_involutive_basis(eqs, opts)
    return solution_dimension(basis), basis, det_ctx
