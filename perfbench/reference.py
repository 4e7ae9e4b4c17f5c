"""A fixed pure-Python computation that measures how fast the host runs now.

It starts an interpreter, imports what the CLI imports from the standard
library, and multiplies sparse polynomials with rational coefficients, the
kind of work involute does.  It never imports involute, so no change to
the program changes its time.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import json  # noqa: F401
from fractions import Fraction

ROUNDS = 12


def product(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def main():
    p = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    acc = {(0, 0, 0): Fraction(1)}
    for _ in range(ROUNDS):
        acc = product(acc, p)
        acc = {k: v for k, v in acc.items() if sum(k) <= 9}
    return acc


if __name__ == "__main__":
    main()
