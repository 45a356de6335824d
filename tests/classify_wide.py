"""The classify-wide relation documents: n -> n relations with n generator
pairs, every entry drawn by ``random.Random(seed)``.  They size
``classify`` on wide and large-entry inputs.

    python tests/classify_wide.py OUTDIR
    PYTHONPATH=src python tests/classify_wide.py time OUTDIR/<name>.json K
    PYTHONPATH=src python tests/classify_wide.py angles OUTDIR [NAME ...]

The first form writes the documents.  The second loads one document once,
then K times empties the memo, rebuilds the relation from its graph rows
and times ``classify`` alone with ``time.process_time()``; it prints the
sum of the K times in seconds.  One timing pass is one such process.

The third sizes ``relcalc angles``.  For each named shape of ``ANGLES``
(all five by default) it writes two subspace documents, OUTDIR/<name>-s.json
and OUTDIR/<name>-t.json, each spanned by n/2 vectors with entries in
[-9, 9], loads them, and prints the CPU seconds of one
``orthonormal_basis_f64`` of S and of one ``angles_record`` of S and T on an
empty memo.
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

ANGLES = {
    # name: (seed, n, complex); two subspaces of dimension n/2 in F^n
    "a-c32": (32, 32, True),
    "a-c64": (64, 64, True),
    "a-r128": (128, 128, False),
    "a-c128": (1280, 128, True),
    "a-r256": (256, 256, False),
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


def subspace_documents(seed, n, cplx):
    """Two subspace documents, each spanned by n // 2 random vectors."""
    rng = random.Random(seed)
    return [
        {
            "kind": "subspace",
            "version": "1",
            "ambient": n,
            "basis": [
                [scalar(entry(rng, 0), entry(rng, 0) if cplx else 0) for _ in range(n)]
                for _ in range(n // 2)
            ],
        }
        for _ in range(2)
    ]


def angles_seconds(out, name):
    """CPU seconds of one orthonormal_basis_f64 of S and of one
    angles_record of S and T, for the ANGLES shape ``name``."""
    from relcalc import subspaces
    from relcalc.angles import angles_record, orthonormal_basis_f64
    from relcalc.documents import load_document

    s, t = (
        load_document(path).payload
        for path in (out / f"{name}-s.json", out / f"{name}-t.json")
    )
    start = time.process_time()
    orthonormal_basis_f64(s)
    basis = time.process_time() - start
    subspaces._memo.clear()
    start = time.process_time()
    angles_record(s, t)
    return basis, time.process_time() - start


if __name__ == "__main__":
    if sys.argv[1] == "time":
        print(classify_seconds(sys.argv[2], int(sys.argv[3])))
    elif sys.argv[1] == "angles":
        out = Path(sys.argv[2])
        out.mkdir(exist_ok=True)
        for name in sys.argv[3:] or ANGLES:
            for side, doc in zip("st", subspace_documents(*ANGLES[name])):
                (out / f"{name}-{side}.json").write_text(json.dumps(doc) + "\n")
            basis, record = angles_seconds(out, name)
            print(f"{name} orthonormal_basis_f64 {basis:.3f} s angles_record {record:.3f} s")
    else:
        out = Path(sys.argv[1])
        out.mkdir(exist_ok=True)
        for name, spec in DOCS.items():
            (out / f"{name}.json").write_text(json.dumps(document(*spec)) + "\n")
