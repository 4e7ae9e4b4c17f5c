"""Self time, inclusive time and wrapper installation of the traced run."""

import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402


def test_self_times_subtract_direct_children():
    spans = [("cli.main", 0.0, 10.0, -1),
             ("completion.x", 1.0, 6.0, 0),
             ("scalars.y", 2.0, 4.0, 1),
             ("scalars.y", 4.5, 5.0, 1),
             ("monomial.z", 7.0, 9.0, 0)]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"cli": 3.0, "completion": 2.5, "scalars": 2.5,
                                 "monomial": 2.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_inclusive_times_count_recursion_once():
    spans = [("scalars.gcd", 0.0, 4.0, -1),
             ("scalars.gcd", 1.0, 2.0, 0),
             ("scalars.gcd", 5.0, 6.0, -1),
             ("cli.main", 0.0, 7.0, -1)]
    assert tracer.inclusive_times(spans) == pytest.approx({"scalars.gcd": 5.0, "cli.main": 7.0})


@pytest.fixture
def fake_package(monkeypatch):
    inner = types.ModuleType("fakepkg.inner")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n", inner.__dict__)
    front = types.ModuleType("fakepkg.front")
    front.run = inner.outer
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    monkeypatch.setitem(sys.modules, "fakepkg.front", front)
    return inner, front


def test_install_rebinds_every_import_and_uninstall_restores(fake_package):
    inner, front = fake_package
    outer, leaf = inner.outer, inner.leaf
    seen = []
    t = tracer.Tracer()
    t.install([("inner.outer", inner, "outer", True, lambda stats, r, e: seen.append(r)),
               ("inner.leaf", inner, "leaf", False, None)], package="fakepkg")
    assert front.run(1) == 4
    t.uninstall()
    assert (inner.outer, inner.leaf, front.run) == (outer, leaf, outer)
    spans, counts, _ = t.take()
    assert [s[0] for s in spans] == ["inner.outer"] and spans[0][3] == -1
    assert counts == {"inner.outer": 1, "inner.leaf": 1}
    assert seen == [4]
    assert t.take()[0] == []
