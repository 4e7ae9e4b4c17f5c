"""Seeded random monomial sets, as the ROADMAP recipe draws them.

``random.Random(seed)`` draws the sets in sequence, one per class
``(n, |U|, dmax)``; each set is ``|U|`` exponent vectors of length ``n`` with
entries in ``0..dmax``.  The ROADMAP lists a fifth class ``(6, 8, 6)``; it is
drawn last, so leaving it out does not change the others.
"""

import random

CLASSES = ((3, 4, 5), (4, 5, 5), (5, 6, 5), (6, 6, 5))


def draw(seed):
    """One set per class, as a list of exponent tuples (duplicates kept)."""
    rng = random.Random(seed)
    return [[tuple(rng.randint(0, dmax) for _ in range(n)) for _ in range(size)]
            for n, size, dmax in CLASSES]


def to_pde(U, comment):
    """Problem-file text whose equations are the monomials of U."""
    n = len(U[0])
    lines = [f"# {line}" for line in comment.splitlines()]
    lines.append("vars: " + " ".join(f"x{i + 1}" for i in range(n)))
    lines.append("funcs: y")
    lines.extend("eq: D[y,{%s}]" % ",".join(map(str, u)) for u in U)
    return "\n".join(lines) + "\n"
