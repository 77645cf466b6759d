"""Exact linear algebra over Q and Q(zeta_N).

An entry handed out is a Fraction exactly when it is rational and a Cyc only
when it is not (``cyclotomic`` canonicalizes every result), so
Fraction(0)/Fraction(1) are the only zero/one; an input entry may also be
an int.  All elimination goes through one kernel,
``Echelon``: a sparse reduced row echelon form built one vector at a time.
``kernel_basis`` poses and solves every homogeneous system: the caller's keys
and each key's sparse image in, the kernel's keyed RREF rows out.  ``rref``,
``rank`` and ``solve`` are thin wrappers over ``Echelon``; results satisfy
A.x = b on re-substitution, exactly.  Over Q and over Q(zeta_N) alike the
echelon computes on integers, with one row form: ints and ``IntCyc``s in
Z[zeta_N] over one int denominator per row, combined fraction-free.  It
builds a Fraction or a Cyc only for what it hands out.

Every sparse {key: coeff} map above the scalar layer accumulates through
``_add_term`` and ``_axpy``, which never store a zero and keep a key's first
value as given: the map is canonical when its inputs are.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)
MONE = Fraction(-1)


def _add_term(out, key, value):
    """out[key] += value, dropping the key when the sum is zero; a key's
    first value is stored as given."""
    v = out.get(key)
    if v is not None:
        value = v + value
    if value:
        out[key] = value
    elif v is not None:
        del out[key]


def _axpy(out, vec, c):
    """out += c * vec for sparse {key: coeff} maps, in place; returns out."""
    for k, x in vec.items():
        _add_term(out, k, c * x)
    return out


def _interned(vec, pool):
    """vec with each coefficient swapped for the equal one kept in pool."""
    return {k: pool.setdefault(c, c) for k, c in vec.items()}


def zeros(rows, cols):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(n, cols)
    for i in range(n):
        ai, oi = a[i], out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] = oi[j] + v * bt[j]
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def trace(a):
    t = ZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


class Echelon:
    """Reduced row echelon form of the span of the vectors added so far.

    ``rows`` maps each pivot column to its row, read sparse as
    {column: value}: 1 at its own pivot and absent at every other pivot.
    Pivots fall only in the first ``ncols`` columns; entries beyond them are
    augmented columns, carried along by every row operation.  Vectors are
    dense lists or sparse {column: value} dicts of ints, Fractions and Cycs.

    A row is stored as integer numerators over one positive int
    denominator: ints, and over Q(zeta_N) an ``IntCyc`` in Z[zeta_N] where
    the entry is not rational.  Its numerator at the pivot equals the
    denominator and the integer content of the row is 1, so a stored row is
    canonical.  A new pivot that is not rational is first multiplied by the
    product of its other Galois conjugates, which turns it into its integer
    norm; rows are then combined fraction-free (``_eliminate``).
    """

    __slots__ = ("ncols", "_rows", "_dens")

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}     # pivot -> {column: int or IntCyc numerator}
        self._dens = {}     # pivot -> its row's denominator

    @property
    def rows(self):
        return _Rows(self)

    def __len__(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def _clear(self, res, den):
        """Subtract from res / den, read by ``_numerators``, its multiple of
        every row whose pivot it touches, in place; returns its new den."""
        rows, dens = self._rows, self._dens
        for p in [p for p in res if p in rows]:
            den = _eliminate(res, den, rows[p], dens[p], p)
        return den

    def reduce(self, vec):
        """``(residual, coeffs)`` with vec = residual + sum of
        coeffs[p] * rows[p]; the residual is sparse and vanishes at every
        pivot, and coeffs maps the pivots that vec touches to their
        coefficients."""
        res, den = _numerators(vec)
        rows = self._rows
        coeffs = _scalars({p: c for p, c in res.items() if p in rows}, den)
        return _scalars(res, self._clear(res, den)), coeffs

    def add(self, vec):
        """Extend the span by vec; True when it gave a new pivot."""
        res, den = _numerators(vec)
        self._clear(res, den)
        p = min((j for j in res if j < self.ncols), default=None)
        if p is None:
            return False
        x = res[p]
        if type(x) is not int:
            # times the other Galois conjugates of x, the pivot is its norm
            cof, norm = x.cofactor()
            res = {j: y * cof for j, y in res.items()}
            res[p] = norm
        g = _content(0, res.values())
        if res[p] < 0:
            g = -g
        new = {j: y // g for j, y in res.items()} if g != 1 else res
        rows, dens = self._rows, self._dens
        for q, row in rows.items():
            if p in row:
                dens[q] = _eliminate(row, dens[q], new, new[p], p)
        rows[p] = new
        dens[p] = new[p]
        return True


def _numerators(vec):
    """(entries, den): the nonzero entries of vec, a dense list or a sparse
    dict of ints, Fractions and Cycs, as integer numerators (ints, and
    IntCycs for Cycs) over one positive int den."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    res = {j: c for j, c in items if c}
    den = lcm(*[c.denominator for c in res.values()])
    if den == 1:
        return {j: c.numerator for j, c in res.items()}, 1
    return {j: c.numerator * (den // c.denominator)
            for j, c in res.items()}, den


def _scalars(row, den):
    """The canonical scalars of the integer numerators row over den."""
    if den == 1:
        return {j: Fraction(x) if type(x) is int else x.over(1)
                for j, x in row.items()}
    return {j: Fraction(x, den) if type(x) is int else x.over(den)
            for j, x in row.items()}


def _content(g, values):
    """gcd of g and the integer coordinates of values, ints and IntCycs."""
    try:
        return gcd(g, *values)
    except TypeError:       # an IntCyc among them
        for x in values:
            g = gcd(g, x) if type(x) is int else gcd(g, *x.num)
        return g


def _eliminate(target, tden, row, rden, p):
    """target / tden minus its multiple of row / rden that clears column p,
    in place, for integer rows with row[p] = rden: cross-multiply, then one
    pass dividing by the integer content.  Returns the new denominator of
    target."""
    t = target[p]
    g = gcd(t, rden) if type(t) is int else gcd(rden, *t.num)
    c, m = t // g, rden // g
    if m != 1:
        for j in target:
            target[j] *= m
        tden *= m
    for j, x in row.items():
        v = target.get(j, 0) - c * x
        if v:
            target[j] = v
        else:
            del target[j]
    if tden != 1:
        g = _content(tden, target.values())
        if g != 1:
            for j in target:
                target[j] //= g
            tden //= g
    return tden


class _Rows(Mapping):
    """The rows of an Echelon, {pivot: row}, each read as canonical
    scalars on access."""

    __slots__ = ("_ech",)

    def __init__(self, ech):
        self._ech = ech

    def __getitem__(self, p):
        ech = self._ech
        return _scalars(ech._rows[p], ech._dens[p])

    def __contains__(self, p):
        return p in self._ech._rows

    def __iter__(self):
        return iter(self._ech._rows)

    def __len__(self):
        return len(self._ech._rows)


def echelon(rows, ncols):
    """The Echelon of a list of rows."""
    ech = Echelon(ncols)
    for row in rows:
        ech.add(row)
    return ech


def _width(rows):
    """Columns the rows span: a dense row's length, or a sparse row's
    largest column + 1."""
    return max((max(r, default=-1) + 1 if isinstance(r, dict) else len(r)
                for r in rows), default=0)


def rref(rows, ncols=None):
    """Reduced row echelon form. Returns (new rows, pivot column list)."""
    width = max(_width(rows), ncols or 0)
    ech = echelon(rows, width if ncols is None else ncols)
    pivots = ech.pivots()
    red = []
    for p in pivots:
        dense = [ZERO] * width
        for j, x in ech.rows[p].items():
            dense[j] = x
        red.append(dense)
    return red, pivots


def rank(rows, ncols=None):
    return len(echelon(rows, _width(rows) if ncols is None else ncols))


def kernel_basis(keys, image):
    """RREF rows of the kernel of the linear map that sends each of ``keys``
    to ``image(key)``, a sparse {target: coeff}: each row a sparse
    {key: coeff}, pivots in the order of ``keys``; [] when the map is
    injective."""
    keys = list(keys)
    rows = {}                     # constraint row per target, over positions
    for col, key in enumerate(keys):
        for target, c in image(key).items():
            rows.setdefault(target, {})[col] = c
    # sparsest rows first: the elimination then fills in far less, and a
    # kernel does not depend on the order of its rows
    ech = echelon(sorted(rows.values(), key=len), len(keys))
    free = {f: {f: ONE} for f in range(len(keys)) if f not in ech.rows}
    for p, row in ech.rows.items():
        for j, x in row.items():
            if j in free:
                free[j][p] = -x
    ker = echelon(free.values(), len(keys))
    return [{keys[t]: c for t, c in sorted(ker.rows[p].items())}
            for p in ker.pivots()]


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = _width(rows)
    ech = echelon([dict(r.items() if isinstance(r, dict) else enumerate(r))
                   | {ncols: b} for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in ech.rows:
        return None
    x = [ZERO] * ncols
    for p, row in ech.rows.items():
        x[p] = row.get(ncols, ZERO)
    return x
