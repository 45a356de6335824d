"""The classify-wide relation documents: n -> n relations with n generator
pairs, every entry drawn by ``random.Random(seed)``.  They size
``classify`` on wide and large-entry inputs.

    python tests/classify_wide.py OUTDIR
    PYTHONPATH=src python tests/classify_wide.py time OUTDIR/<name>.json K

The first form writes the documents.  The second loads one document once,
then K times empties the memo, rebuilds the relation from its graph rows
and times ``classify`` alone with ``time.process_time()``; it prints the
sum of the K times in seconds.  One timing pass is one such process.
"""

import json
import random
import sys
import time
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


def classify_seconds(path, k):
    """CPU seconds of ``classify`` over k cold runs on one document."""
    from relcalc import subspaces
    from relcalc.documents import load_document
    from relcalc.idempotents import classify
    from relcalc.relations import LinearRelation
    from relcalc.subspaces import Subspace

    e0, total = load_document(path).payload, 0.0
    for _ in range(k):
        subspaces._memo.clear()
        graph = Subspace.from_int_rows(e0.graph._rows, e0.graph.ambient_dim)
        e = LinearRelation(e0.dim_in, e0.dim_out, graph)
        start = time.process_time()
        classify(e)
        total += time.process_time() - start
    return total


if __name__ == "__main__":
    if sys.argv[1] == "time":
        print(classify_seconds(sys.argv[2], int(sys.argv[3])))
    else:
        out = Path(sys.argv[1])
        out.mkdir(exist_ok=True)
        for name, spec in DOCS.items():
            (out / f"{name}.json").write_text(json.dumps(document(*spec)) + "\n")
