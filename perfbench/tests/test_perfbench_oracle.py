"""The benchmark's output checks, on sets small enough to check by hand."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import Invocation  # noqa: E402

# x^2, xy, y^3 in (x, y): standard monomials 1, x, y, y^2.
STAIRCASE = [(2, 0), (1, 1), (0, 3)]


def basis_doc(cones, names=("x", "y")):
    return json.dumps({
        "variables": list(names),
        "basis": [{"constant": "0",
                   "terms": [{"function": "y", "index": list(v), "coefficient": "1"}],
                   "multiplicative": [names[i] for i in sorted(m)]}
                  for v, m in cones]})


def test_standard_count_by_hand():
    assert [oracle.standard_count(STAIRCASE, 2, s) for s in range(6)] == [1, 2, 1, 0, 0, 0]


def test_inclusion_exclusion_agrees_with_enumeration(monkeypatch):
    U = [(3, 0, 1), (1, 2, 0), (0, 1, 4), (2, 2, 2)]
    counted = [oracle.standard_count(U, 3, s) for s in range(12)]
    monkeypatch.setattr(oracle, "BRUTE_FORCE_LIMIT", 0)
    assert [oracle.standard_count(U, 3, s) for s in range(12)] == counted


def test_exact_cover_accepts_the_janet_basis_of_x_y():
    # Janet: x is multiplicative for x only where no element has a larger x-degree
    cones = [((1, 0), {0, 1}), ((0, 1), {1})]
    assert oracle.exact_cover_error(cones, [(1, 0), (0, 1)], 2) == ""


def test_exact_cover_rejects_overlap_gap_and_wrong_ideal():
    U = [(1, 0), (0, 1)]
    assert "overlap" in oracle.exact_cover_error([((1, 0), {0, 1}), ((0, 1), {0, 1})], U, 2)
    assert "degree 2" in oracle.exact_cover_error([((1, 0), {0}), ((0, 1), {1})], U, 2)
    assert "ideal" in oracle.exact_cover_error([((1, 0), {0, 1})], U, 2)


def test_complete_check():
    expect = {"kind": "complete", "U": [(1, 0), (0, 1)]}
    good = basis_doc([((1, 0), {0, 1}), ((0, 1), {1})])
    assert oracle.check(expect, 0, good, "") == (True, "", 2)
    bad = basis_doc([((1, 0), {0, 1}), ((0, 1), {0, 1})])
    assert not oracle.check(expect, 0, bad, "").ok
    assert not oracle.check(expect, 1, good, "error").ok
    assert not oracle.check(expect, 0, "not json", "").ok


def test_hilbert_check():
    expect = {"kind": "hilbert", "U": STAIRCASE}
    doc = {"samples": [[0, 1], [1, 3], [2, 4], [3, 4], [4, 4]], "polynomial": ["4"],
           "stabilization": 2, "dimension": 4}
    assert oracle.check(expect, 0, json.dumps(doc), "").ok
    for wrong in ({"samples": [[0, 1], [1, 3], [2, 5]]}, {"polynomial": ["5"]},
                  {"dimension": "infinite"}):
        assert not oracle.check(expect, 0, json.dumps({**doc, **wrong}), "").ok


def test_hilbert_dimension_is_infinite_without_pure_powers():
    expect = {"kind": "hilbert", "U": [(1, 1)]}
    doc = {"samples": [[0, 1], [1, 3], [2, 5]], "polynomial": ["1", "2"],
           "stabilization": 1, "dimension": "infinite"}
    assert oracle.check(expect, 0, json.dumps(doc), "").ok


def test_multiplicative_variables_by_hand():
    B = [(2, 0), (1, 2), (0, 2)]
    assert oracle.multiplicative(B, "janet") == [{0, 1}, {1}, {1}]
    assert oracle.multiplicative(B, "pommaret") == [{0, 1}, {1}, {1}]
    assert oracle.multiplicative([(0, 1), (1, 0)], "lexinduced") == [{0, 1}, {0}]


@pytest.mark.parametrize("division", ["janet", "pommaret"])
def test_monomial_check(division):
    # x^2, y^2 completes by adding x y^2 under both divisions
    expect = {"kind": "monomial", "U": [(2, 0), (0, 2)], "division": division}
    doc = {"completed": [[2, 0], [1, 2], [0, 2]]}
    assert oracle.check(expect, 0, json.dumps(doc), "") == (True, "", 3)
    # the input itself, which is the completed set without the added element
    doc = {"completed": [[2, 0], [0, 2]]}
    assert "degree 3" in oracle.check(expect, 0, json.dumps(doc), "").reason
    doc = {"completed": [[2, 0], [1, 2]]}
    assert not oracle.check(expect, 0, json.dumps(doc), "").ok


def test_cap_check():
    expect = {"kind": "cap", "then": "complete", "U": [(1, 0), (0, 1)]}
    assert oracle.check(expect, 2, "", "cap exceeded: no closure").ok
    assert not oracle.check(expect, 2, "", "error: something else").ok
    assert not oracle.check(expect, 1, "", "error: bad input").ok
    finished = basis_doc([((1, 0), {0, 1}), ((0, 1), {1})])
    assert oracle.check(expect, 0, finished, "").ok


def symmetry_doc(dimension, leaders):
    """Infinitesimals over (a, b); ``leaders`` holds (function, index, multiplicative)."""
    return json.dumps({"dimension": dimension,
                       "basis": [{"terms": [{"function": f, "index": list(v), "coefficient": "1"},
                                            {"function": "g", "index": [0, 0],
                                             "coefficient": "2"}],
                                  "multiplicative": list(m)} for f, v, m in leaders]})


# f and g each have their first derivatives as leaders: only f and g are parametric
TOY = [(f, v, m) for f in "fg" for v, m in (((1, 0), "ab"), ((0, 1), "b"))]


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(oracle.SYMMETRY_COORDINATES, "toy", "a b")
    monkeypatch.setitem(oracle.SYMMETRY_DIMENSIONS, "toy", 2)
    return {"kind": "symmetry", "name": "toy"}


def test_symmetry_check(toy):
    assert oracle.check(toy, 0, symmetry_doc(2, TOY), "") == (True, "", 4)
    assert not oracle.check(toy, 0, symmetry_doc(3, TOY), "").ok
    # a lost element leaves infinitely many parametric derivatives
    assert not oracle.check(toy, 0, symmetry_doc(2, TOY[:3]), "").ok
    # an overlap within one function fails even where the count could hide it
    overlap = TOY + [("f", (1, 1), "b")]
    assert "f: cones" in oracle.check(toy, 0, symmetry_doc(2, overlap), "").reason


def test_infinite_symmetry_check_counts_per_order(toy, monkeypatch):
    monkeypatch.setitem(oracle.SYMMETRY_DIMENSIONS, "toy", oracle.INFINITE)
    # without g's b-leader, g_b, g_bb, ... are parametric: one per order
    monkeypatch.setitem(oracle.PARAMETRIC_PER_ORDER, "toy", (2, 1, 1))
    assert oracle.check(toy, 0, symmetry_doc("infinite", TOY[:3]), "").ok
    # losing another element still leaves an infinite group, but too many derivatives
    assert not oracle.check(toy, 0, symmetry_doc("infinite", TOY[:2]), "").ok
    assert not oracle.check(toy, 0, symmetry_doc("infinite", TOY), "").ok


def test_parametric_counts_extend_as_a_polynomial():
    # transport: (s + 1) (s + 6) / 2 derivatives of order s are parametric
    assert oracle._extend(oracle.PARAMETRIC_PER_ORDER["transport"], 8, 3) == \
        [(s + 1) * (s + 6) // 2 for s in range(9)]


def test_a_wrong_output_counts_as_failed(toy):
    check = run.Checker()
    inv = Invocation("symmetry:toy", ("symmetry", "toy.pde", "--json"), toy)
    right = symmetry_doc(2, TOY)
    wrong = symmetry_doc(2, TOY[:3])
    assert check(inv, 0, right, "").ok
    assert not check(inv, 0, wrong, "").ok
    assert check(inv, 0, right, "").ok
    assert (check.attempted, check.failed) == (3, 1)
