"""Exact vectors that the unit tests build subspaces and relations from."""

from relcalc import GaussianRational, Subspace

I = GaussianRational(0, 1)


def e(k, n):
    """The k-th standard basis vector of length n."""
    v = [0] * n
    v[k] = 1
    return v


def span(vectors, n):
    return Subspace.span(vectors, n)
