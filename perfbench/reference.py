"""A fixed job that gauges how fast the machine runs right now.

    python3 perfbench/reference.py

It does what a relcalc process does, without any relcalc code: it starts an
interpreter, imports numpy and the standard modules relcalc uses, and row
reduces fixed matrices over ``Fraction``.  ``run.py`` runs it between the
measured processes and scales their times by its median CPU time, so that
the host's speed drift cancels while any change to relcalc shows in full.
Nothing in the repository outside this directory changes what it does.
"""

import argparse  # noqa: F401
import json  # noqa: F401
import random
from fractions import Fraction

import numpy  # noqa: F401

MATRICES = 40


def rank(rows: list[list[Fraction]]) -> int:
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def main() -> None:
    rng = random.Random(1)
    total = 0
    for _ in range(MATRICES):
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(12)]
             for _ in range(8)]
        total += rank(m)
    print(total)


if __name__ == "__main__":
    main()
