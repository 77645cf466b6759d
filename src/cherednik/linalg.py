"""Exact linear algebra over Q and Q(zeta_N).

An entry is a Fraction exactly when it is rational and a Cyc only when it is
not (``cyclotomic`` canonicalizes every result), so Fraction(0)/Fraction(1)
are the only zero/one.  All elimination goes through one kernel,
``Echelon``: a sparse reduced row echelon form built one vector at a time.
``kernel_basis`` poses and solves every homogeneous system: the caller's keys
and each key's sparse image in, the kernel's keyed RREF rows out.  ``rref``,
``rank`` and ``solve`` are thin wrappers over ``Echelon``; results satisfy
A.x = b on re-substitution, exactly.

Every sparse {key: coeff} map above the scalar layer accumulates through
``_add_term`` and ``_axpy``, which never store a zero.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
MONE = Fraction(-1)


def _add_term(out, key, value):
    """out[key] += value, dropping the key when the sum is zero."""
    v = out.get(key, ZERO) + value
    if v:
        out[key] = v
    else:
        out.pop(key, None)


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

    ``rows`` maps each pivot column to its row, stored sparse as
    {column: value}: 1 at its own pivot and absent at every other pivot.
    Pivots fall only in the first ``ncols`` columns; entries beyond them are
    augmented columns, carried along by every row operation.  Vectors are
    dense lists or sparse {column: value} dicts.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    def __len__(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def reduce(self, vec):
        """``(residual, coeffs)`` with vec = residual + sum of
        coeffs[p] * rows[p]; the residual is sparse and vanishes at every
        pivot, and coeffs maps the pivots that vec touches to their
        coefficients."""
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        res = {j: c for j, c in items if c}
        rows = self.rows
        coeffs = {p: c for p, c in res.items() if p in rows}
        for p, c in coeffs.items():
            _axpy(res, rows[p], -c)
        return res, coeffs

    def add(self, vec):
        """Extend the span by vec; True when it gave a new pivot."""
        res, _ = self.reduce(vec)
        p = min((j for j in res if j < self.ncols), default=None)
        if p is None:
            return False
        inv = ONE / res[p]
        new = {j: x * inv for j, x in res.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c:
                _axpy(row, new, -c)
        self.rows[p] = new
        return True


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
