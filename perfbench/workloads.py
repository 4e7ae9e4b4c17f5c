"""The benchmark's workloads: which CLI invocations a pass makes, in which order.

Every invocation runs with ``--json`` and carries the specification its
output is checked against (see ``oracle.py``).  The seed only permutes the
order of a pass.  The monomial sets come from the ROADMAP recipe with its
fixed recipe seed 7: across recipe seeds 0-11 the in-process time of one
``(6,6,5)`` set ranges from 0.1 s to 58 s, so sets drawn from the run's own
seed would make two runs of the same code differ by far more than any bound.
"""

import os
import random
from dataclasses import dataclass

import monosets

RECIPE_SEED = 7
INPUTS = os.path.join("perfbench", "inputs")
WORKLOADS = ("symmetry", "monomial", "pommaret-cap")

SYMMETRY_INPUTS = ("harrydym", "diffusion", "transport", "kdv", "burgers", "heat",
                   "nls", "zk", "kp", "boussinesq", "euler2d")


@dataclass(frozen=True)
class Invocation:
    key: str      # unique within the workload
    argv: tuple   # arguments after ``python -m involute.cli``
    expect: dict  # what oracle.check requires of the outcome


def _inv(key, argv, **expect):
    return Invocation(key, tuple(argv) + ("--json",), expect)


def _write_sets(workdir, sets):
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for (n, size, dmax), U in zip(monosets.CLASSES, sets):
        path = os.path.join(workdir, f"set{n}_{size}_{dmax}.pde")
        comment = (f"Recipe set (n={n}, |U|={size}, dmax={dmax}) drawn with "
                   f"random.Random({RECIPE_SEED}).")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(monosets.to_pde(U, comment))
        paths.append(path)
    return paths


def _symmetry():
    return [_inv(f"symmetry:{name}", ["symmetry", os.path.join(INPUTS, name + ".pde")],
                 kind="symmetry", name=name)
            for name in SYMMETRY_INPUTS]


def _monomial(workdir):
    # (6,8,6) is left out: at recipe seed 7 `complete` takes 31 s and
    # `monomial --action complete` over 130 s.  Lex-induced (5,6,5) hits the
    # cap, so lex-induced runs only the two smallest sets.
    sets = monosets.draw(RECIPE_SEED)
    invs = []
    for k, (U, path) in enumerate(zip(sets, _write_sets(workdir, sets))):
        name = os.path.basename(path)[:-4]
        divisions = ("janet", "lexinduced") if k < 2 else ("janet",)
        for div in divisions:
            invs.append(_inv(f"complete:{div}:{name}",
                             ["complete", path, "--division", div],
                             kind="complete", U=U))
            invs.append(_inv(f"monomial:{div}:{name}",
                             ["monomial", path, "--action", "complete", "--division", div],
                             kind="monomial", U=U, division=div))
        invs.append(_inv(f"hilbert:janet:{name}", ["hilbert", path, "--division", "janet"],
                         kind="hilbert", U=U))
    return invs


def _pommaret_cap(workdir):
    sets = monosets.draw(RECIPE_SEED)[:2]
    paths = _write_sets(workdir, sets)
    example1 = ((2, 0, 1), (1, 1, 0), (1, 0, 2))
    invs = []
    for U, path in [(example1, os.path.join(INPUTS, "example1.pde"))] + list(zip(sets, paths)):
        name = os.path.basename(path)[:-4]
        invs.append(_inv(f"complete:pommaret:{name}",
                         ["complete", path, "--division", "pommaret", "--cap", "300"],
                         kind="cap", then="complete", U=U))
        invs.append(_inv(f"monomial:pommaret:{name}",
                         ["monomial", path, "--action", "complete", "--division", "pommaret",
                          "--cap", "2000"],
                         kind="cap", then="monomial", U=U, division="pommaret"))
    invs.append(_inv("ivp:pommaret:fourvar",
                     ["ivp", os.path.join(INPUTS, "fourvar.pde"), "--division", "pommaret"],
                     kind="fourvar_ivp"))
    invs.append(_inv("complete:pommaret:janet3",
                     ["complete", os.path.join(INPUTS, "janet3.pde"), "--division", "pommaret"],
                     kind="janet3_complete"))
    return invs


def build(workload, seed, workdir):
    """The invocations of one pass, in the order the seed gives."""
    if workload == "symmetry":
        invs = _symmetry()
    elif workload == "monomial":
        invs = _monomial(workdir)
    elif workload == "pommaret-cap":
        invs = _pommaret_cap(workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(invs)
    return invs
