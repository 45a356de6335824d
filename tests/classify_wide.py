"""Write the classify-wide relation documents: n -> n relations with n
generator pairs, every entry drawn by ``random.Random(seed)``.

    python tests/classify_wide.py OUTDIR

One timing pass is ``relcalc classify OUTDIR/<name>.json`` in a fresh
process; the documents size ``classify`` on wide and large-entry inputs.
"""

import json
import random
import sys
from pathlib import Path

DOCS = {
    # name: (seed, n, complex, digits); digits 0 means entries in [-9, 9]
    "r32": (32, 32, False, 0),
    "c32": (3232, 32, True, 0),
    "r48": (48, 48, False, 0),
    "c24": (2424, 24, True, 0),
    "d1500": (1500, 4, True, 1500),
}


def entry(rng, digits):
    if digits:
        return rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
    return rng.randint(-9, 9)


def scalar(re, im):
    return str(re) if im == 0 else f"{re}{im:+d}i"


def document(seed, n, cplx, digits):
    rng = random.Random(seed)
    generators = []
    for _ in range(n):
        vec = [
            scalar(entry(rng, digits), entry(rng, digits) if cplx else 0)
            for _ in range(2 * n)
        ]
        generators.append([vec[:n], vec[n:]])
    return {
        "kind": "relation",
        "version": "1",
        "dim_in": n,
        "dim_out": n,
        "generators": generators,
    }


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(exist_ok=True)
    for name, spec in DOCS.items():
        (out / f"{name}.json").write_text(json.dumps(document(*spec)) + "\n")
