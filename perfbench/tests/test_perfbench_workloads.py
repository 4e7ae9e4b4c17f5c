"""Inputs are fixed by the seed, and the traced run sees what the CLI does."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402
import monosets  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_generator_is_deterministic_per_seed():
    assert monosets.draw(7) == monosets.draw(7)
    assert monosets.draw(7) != monosets.draw(8)
    sets = monosets.draw(7)
    for (n, size, dmax), U in zip(monosets.CLASSES, sets):
        assert len(U) == size
        assert all(len(u) == n and all(0 <= e <= dmax for e in u) for u in U)


def test_recipe_seed_7_matches_the_roadmap_numbers():
    # the (4,5,5) set whose Janet completion takes 21 elements in
    # `monomial --action complete` and 5 in `complete`
    assert monosets.draw(7)[1] == [(1, 0, 0, 3), (3, 0, 1, 0), (4, 3, 0, 4),
                                   (0, 1, 5, 5), (4, 0, 4, 4)]


def test_seed_only_permutes_the_pass(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, str(tmp_path))
        b = workloads.build(name, 1, str(tmp_path))
        c = workloads.build(name, 2, str(tmp_path))
        assert [i.key for i in a] == [i.key for i in b]
        assert sorted(i.key for i in a) == sorted(i.key for i in c)
        assert len({i.key for i in a}) == len(a)


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [tuple(m) for m in layers.METRICS]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_traced_symmetry_calls_determining_system_twice(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    inv = next(i for i in workloads.build("symmetry", 0, str(tmp_path))
               if i.key == "symmetry:transport")
    check, metrics = run.traced([inv], 0, str(tmp_path))
    assert (check.attempted, check.failed) == (2, 0)
    assert metrics["symmetry.determining_system_calls"][0] == 2
    assert set(metrics) == {name for name, _, _ in layers.METRICS}
