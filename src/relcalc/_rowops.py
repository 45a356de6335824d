"""Integer row engine for exact linear algebra over the Gaussian rationals.

A row encodes a vector in F^width (F = Q(i)) as ``(den, re, im)`` where
``den`` is a positive integer, ``re``/``im`` are integer sequences of length
``width`` and entry k equals ``(re[k] + i*im[k]) / den``.  Every row that
enters or leaves this module carries both sequences in full; a real row has
an all-zero ``im``.  Inside, an all-zero ``im`` becomes ``None`` on entry,
and the arithmetic keeps that case on a separate code path, which roughly
halves the cost for real data.

All mutation is local to this module; callers receive rows with tuple
components, safe to share.
"""

from __future__ import annotations

from math import gcd

# (den, re, im), ``im`` all zeros for a real row; components are tuples in
# canonical rows.
Row = tuple

# Denominator size at which lazy content reduction kicks in.
_REDUCE_BOUND = 1 << 48

# The all-zero ``im`` of each width up to 64, which every real row this
# module returns at such a width shares: the memo holds thousands of rows,
# and one tuple per row would make them larger.
_ZEROS = tuple((0,) * width for width in range(65))


def zeros(width):
    """The all-zero tuple of length ``width``.  Up to width 64 it is the one
    shared by the real rows of this module.  The sharing only saves memory:
    every test for a real row scans its ``im``."""
    return _ZEROS[width] if width < len(_ZEROS) else (0,) * width


def reduced_row(den, re, im):
    """The row ``(den, re, im)`` with its content divided out, as tuples."""
    den, re, nim = _reduce_content(den, re, im)
    return den, tuple(re), zeros(len(re)) if nim is None else tuple(nim)


def _reduce_content(den, re, im):
    """Divide out gcd(den, entries) and drop an all-zero imaginary part."""
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re) if im is None else gcd(den, *re, *im)
    if g > 1:
        den //= g
        re = [x // g for x in re]
        if im is not None:
            im = [x // g for x in im]
    return den, re, im


def _eliminate(den, pre, pim, dr, vre, vim, col):
    """Return target row minus (its col entry) times the unit-pivot row.

    Pivot row is ``(pre + i*pim)/den`` with entry 1 at ``col``; target is
    ``(vre + i*vim)/dr``.  Result denominator is ``dr*den`` before reduction.
    """
    c = vre[col]
    d = vim[col] if vim is not None else 0
    if d == 0:
        nre = [den * x - c * u for x, u in zip(vre, pre)]
        if pim is None:
            nim = None if vim is None else [den * y for y in vim]
        else:
            base = vim if vim is not None else (0,) * len(vre)
            nim = [den * y - c * w for y, w in zip(base, pim)]
    else:
        if pim is None:
            nre = [den * x - c * u for x, u in zip(vre, pre)]
            nim = [den * y - d * u for y, u in zip(vim, pre)]
        else:
            nre = [den * x - c * u + d * w for x, u, w in zip(vre, pre, pim)]
            nim = [den * y - c * w - d * u for y, w, u in zip(vim, pim, pre)]
    nd = dr * den
    # Content reduction is lazy: correctness never needs it mid-elimination,
    # so pay for the gcd only once the denominator has actually grown.
    if nd < _REDUCE_BOUND:
        if nim is not None and not any(nim):
            nim = None
        return nd, nre, nim
    return _reduce_content(nd, nre, nim)


def _normalize_pivot(re, im, col):
    """Divide a row by its leading entry at ``col``; the row's denominator
    cancels, leaving entry 1 represented as den == re[col]."""
    a = re[col]
    b = im[col] if im is not None else 0
    if b == 0:
        if a < 0:
            re = [-x for x in re]
            if im is not None:
                im = [-x for x in im]
            a = -a
        den = a
    else:
        nre = [a * x + b * y for x, y in zip(re, im)]
        nim = [a * y - b * x for x, y in zip(re, im)]
        re, im = nre, nim
        den = a * a + b * b
    return _reduce_content(den, re, im)


def rref(rows, width):
    """Unique reduced row echelon form over Q(i).

    ``rows`` is an iterable of ``(den, re, im)`` rows; returns
    ``(pivots, out)`` where ``out`` holds canonical rows (tuple components,
    leading entry exactly 1, content-reduced) and ``pivots`` the pivot
    column indices in increasing order.  Each row is cleared by
    :func:`_eliminate`, the same step :func:`member` uses.
    """
    work = []
    for den, re, im in rows:
        if im is not None and not any(im):
            im = None
        if any(re) or im is not None:
            work.append((den, list(re), list(im) if im is not None else None))
    m = len(work)
    pivots = []
    prow = 0
    for col in range(width):
        pr = -1
        for r in range(prow, m):
            _, re, im = work[r]
            if re[col] or (im is not None and im[col]):
                pr = r
                break
        if pr < 0:
            continue
        _, re, im = work[pr]
        work[pr] = work[prow]
        den, pre, pim = work[prow] = _normalize_pivot(re, im, col)
        for r in range(m):
            dr, vre, vim = work[r]
            if r != prow and (vre[col] or (vim is not None and vim[col])):
                work[r] = _eliminate(den, pre, pim, dr, vre, vim, col)
        pivots.append(col)
        prow += 1
    # Lazy elimination can leave shared content behind; canonical uniqueness
    # requires one full reduction per surviving row.
    return pivots, [reduced_row(*row) for row in work[:prow]]


def nullspace(pivots, rows, width):
    """Canonical basis of the right null space of a matrix in RREF.

    ``rows`` must be canonical output of :func:`rref`.  The null space is
    {x : sum_k M[r][k] * x[k] = 0 for all r}; the result is ``(pivots, out)``
    in canonical RREF form, exactly as :func:`rref` returns it.
    """
    pivot_set = set(pivots)
    free = [c for c in range(width) if c not in pivot_set]
    basis = []
    for f in free:
        den_lcm = 1
        for (den, re, im), p in zip(rows, pivots):
            if re[f] or im[f]:
                den_lcm = den_lcm * den // gcd(den_lcm, den)
        vre = [0] * width
        vim = [0] * width
        vre[f] = den_lcm
        for (den, re, im), p in zip(rows, pivots):
            s = den_lcm // den
            vre[p] = -re[f] * s
            vim[p] = -im[f] * s
        basis.append(_reduce_content(1, vre, vim))
    return rref(basis, width)


def residual(pivots, rows, vec):
    """``vec`` with its pivot-column entries eliminated against ``rows``:
    zero in every pivot column, and zero exactly when ``vec`` lies in their
    row space.

    Precondition: the rows are in reduced echelon form on ``pivots``
    (each zero in every other row's pivot column), as :func:`rref` returns
    them, so the residual is v - sum_k v[p_k] * row_k.  Every caller passes
    such rows: a subspace's canonical basis (:func:`member`,
    ``subspaces._sum``, ``subspaces._read_off``), or the canonical graph
    rows that pivot in the second block (``LinearRelation.one_minus``)."""
    dv, vre, vim = vec
    if not any(vim):
        vim = None
    for (den, re, im), col in zip(rows, pivots):
        if vre[col] or (vim is not None and vim[col]):
            pim = im if any(im) else None
            dv, vre, vim = _eliminate(den, re, pim, dv, vre, vim, col)
    return dv, vre, zeros(len(vre)) if vim is None else vim


def member(pivots, rows, vec) -> bool:
    """True if ``vec`` lies in the row space of canonical ``rows``."""
    _, re, im = residual(pivots, rows, vec)
    return not any(re) and not any(im)


def conjugate_row(row):
    den, re, im = row
    if not any(im):
        return row
    return (den, re, tuple(-x for x in im))
