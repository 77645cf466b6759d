"""Sparse multivariate polynomials as {exponent tuple: coefficient} dicts.

A coefficient is a Fraction exactly when it is rational and a Cyc only when
it is not; the zero polynomial is the empty dict.  These are plain functions rather than a class:
the dict representation is shared with the normal-form engine, where keys are
unpacked constantly.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement

from .linalg import _add_term


def pconst(nvars, value):
    if not value:
        return {}
    return {(0,) * nvars: value}


def pscale(a, c):
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def pmul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            _add_term(out, tuple(x + y for x, y in zip(e1, e2)), v1 * v2)
    return out


def pevaluate(p, point):
    """Evaluate at a point (sequence of scalars)."""
    total = 0
    for e, v in p.items():
        term = v
        for i, k in enumerate(e):
            if k:
                term = term * point[i] ** k
        total = term + total
    return total


@cache
def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, in a fixed deterministic order
    (reverse lexicographic); one shared tuple per (nvars, d)."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out, reverse=True))
