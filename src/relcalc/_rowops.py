"""Integer row engine for exact linear algebra over the Gaussian rationals.

A row encodes a vector in F^width (F = Q(i)) as ``(den, re, im)`` where
``den`` is a positive integer, ``re``/``im`` are integer sequences of length
``width`` and entry k equals ``(re[k] + i*im[k]) / den``.  ``im is None``
means the imaginary part is identically zero; keeping that case on a separate
code path roughly halves the cost for real data.

All mutation is local to this module; callers receive rows with tuple
components, safe to share.
"""

from __future__ import annotations

from math import gcd

# (den, re, im-or-None); components are tuples in canonical rows.
Row = tuple

# Denominator size at which lazy content reduction kicks in.
_REDUCE_BOUND = 1 << 48


def make_row(re, im=None):
    """Integer row with denominator 1. Collapses an all-zero ``im`` to None."""
    if im is not None and not any(im):
        im = None
    return (1, tuple(re), None if im is None else tuple(im))


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
        if den == 1:
            nre = [x - c * u for x, u in zip(vre, pre)]
        else:
            nre = [den * x - c * u for x, u in zip(vre, pre)]
        if pim is None:
            if vim is None:
                nim = None
            elif den == 1:
                nim = list(vim)
            else:
                nim = [den * y for y in vim]
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


def _normalize_pivot(dp, re, im, col):
    """Divide a row by its leading entry at ``col``; the old denominator
    cancels, leaving entry 1 represented as den == re[col]."""
    a = re[col]
    b = im[col] if im is not None else 0
    if b == 0:
        if a == dp:
            # Leading entry already exactly 1; content reduction can wait
            # for the final output pass.
            return dp, re, im
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
        work[prow], work[pr] = work[pr], work[prow]
        den, pre, pim = _normalize_pivot(*work[prow], col)
        work[prow] = (den, pre, pim)
        for r in range(m):
            dr, vre, vim = work[r]
            if r != prow and (vre[col] or (vim is not None and vim[col])):
                work[r] = _eliminate(den, pre, pim, dr, vre, vim, col)
        pivots.append(col)
        prow += 1
        if prow == m:
            break
    # Lazy elimination can leave shared content behind; canonical uniqueness
    # requires one full reduction per surviving row.  A pivot row with den 1
    # has leading entry exactly 1, hence content 1 already; every stored row
    # already has an all-zero ``im`` collapsed to None.
    out = []
    for den, re, im in work[:prow]:
        if den != 1:
            den, re, im = _reduce_content(den, re, im)
        out.append((den, tuple(re), None if im is None else tuple(im)))
    return pivots, out


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
            if re[f] or (im is not None and im[f]):
                den_lcm = den_lcm * den // gcd(den_lcm, den)
        vre = [0] * width
        vim = [0] * width
        vre[f] = den_lcm
        has_im = False
        for (den, re, im), p in zip(rows, pivots):
            s = den_lcm // den
            vre[p] = -re[f] * s
            if im is not None and im[f]:
                vim[p] = -im[f] * s
                has_im = True
        basis.append(_reduce_content(1, vre, vim if has_im else None))
    return rref(basis, width)


def member(pivots, rows, vec) -> bool:
    """True if ``vec`` lies in the row space of canonical ``rows``: the
    residual after eliminating its pivot-column entries is zero.  Needs each
    pivot to be the leading nonzero column of its row."""
    dv, vre, vim = vec
    for (den, re, im), col in zip(rows, pivots):
        if vre[col] or (vim is not None and vim[col]):
            dv, vre, vim = _eliminate(den, re, im, dv, vre, vim, col)
    return not any(vre) and (vim is None or not any(vim))


def conjugate_row(row):
    den, re, im = row
    if im is None:
        return row
    return (den, re, tuple(-x for x in im))
