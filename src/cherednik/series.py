"""Graded characters: Laurent polynomials / truncated series in q with exact
rational coefficients.

A GradedCharacter with ``truncation=None`` is an exact Laurent polynomial;
otherwise its coefficients are trusted only for exponents <= truncation, and
every comparison says so.  A character bigraded by t is the list of its
t-slices, slice k the coefficient of t^k; ``payload`` is the one wire form.

The products and quotients by 1 - q^d that the character formulas need run
on integer coefficient lists, q^0 .. q^T: dividing is the running sum
``_divide_by_binomials`` and multiplying the running difference
``_times_binomials``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroPolynomial
from .linalg import ONE, _add_term, _axpy

DEFAULT_TRUNCATION = 24


class GradedCharacter:
    """Map exponent -> rational coefficient, optionally truncated."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs=None, truncation=None):
        cs = {}
        if coeffs:
            for e, v in coeffs.items():
                if not isinstance(v, Fraction):
                    v = Fraction(v)
                if v and (truncation is None or e <= truncation):
                    cs[int(e)] = v
        self.coeffs = cs
        self.truncation = truncation

    # ---- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, truncation=None):
        return cls({}, truncation)

    @classmethod
    def one(cls, truncation=None):
        return cls({0: Fraction(1)}, truncation)

    @classmethod
    def geometric(cls, d, truncation):
        """Series of 1/(1 - q^d) to the given truncation order."""
        if d <= 0:
            raise ValueError("geometric factor needs d > 0")
        return cls({e: Fraction(1) for e in range(0, truncation + 1, d)},
                   truncation)

    # ---- basic data -------------------------------------------------------
    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, e):
        return self.coeffs.get(e, Fraction(0))

    def min_exponent(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no lowest exponent")
        return min(self.coeffs)

    def is_polynomial(self):
        return self.truncation is None

    def value_at_one(self):
        if self.truncation is not None:
            raise ValueError("value at 1 of a truncated series is undefined")
        return sum(self.coeffs.values(), Fraction(0))

    # ---- arithmetic --------------------------------------------------------
    def _join_trunc(self, other):
        ts = [t for t in (self.truncation, other.truncation) if t is not None]
        return min(ts) if ts else None

    def __add__(self, other):
        return GradedCharacter(_axpy(dict(self.coeffs), other.coeffs, ONE),
                               self._join_trunc(other))

    def __neg__(self):
        return GradedCharacter({e: -v for e, v in self.coeffs.items()},
                               self.truncation)

    def __sub__(self, other):
        return self + (-other)

    def _lowest(self):
        """Lowest exponent the series can have, unknown tail included."""
        low = min(self.coeffs, default=0)
        return low if self.truncation is None else min(low, self.truncation + 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        # an operand known to q^T, times one reaching down to q^m < 0, is
        # known to q^(T + m) only
        ts = [a.truncation + min(0, b._lowest())
              for a, b in ((self, other), (other, self))
              if a.truncation is not None]
        t = min(ts) if ts else None
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if t is None or e <= t:
                    _add_term(out, e, v1 * v2)
        return GradedCharacter(out, t)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return GradedCharacter({e: v * c for e, v in self.coeffs.items()},
                               self.truncation)

    def shift(self, k):
        """Multiply by q^k."""
        t = None if self.truncation is None else self.truncation + k
        return GradedCharacter({e + k: v for e, v in self.coeffs.items()}, t)

    def truncate(self, order):
        """Cut at q^order; a truncated series keeps its own order if lower."""
        if self.truncation is not None:
            order = min(order, self.truncation)
        return GradedCharacter(self.coeffs, order)

    def series_inverse(self, truncation):
        """Inverse of a series with nonzero lowest term q^0 coefficient."""
        c0 = self.coeffs.get(0)
        if not c0:
            raise ZeroDivisionError("series inverse needs a unit constant term")
        inv = {0: 1 / c0}
        for e in range(1, truncation + 1):
            s = Fraction(0)
            for k, v in self.coeffs.items():
                if 0 < k <= e:
                    s += v * inv.get(e - k, Fraction(0))
            val = -s / c0
            if val:
                inv[e] = val
        return GradedCharacter(inv, truncation)

    # ---- comparison ---------------------------------------------------------
    def equals(self, other, up_to=None):
        """Exact equality; for truncated operands, up to the shared order."""
        t = self._join_trunc(other)
        if up_to is not None:
            t = up_to if t is None else min(t, up_to)
        if t is None:
            return self.coeffs == other.coeffs
        for e in set(self.coeffs) | set(other.coeffs):
            if e <= t and self[e] != other[e]:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, GradedCharacter):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.truncation, frozenset(self.coeffs.items())))

    # ---- formatting ----------------------------------------------------------
    def __repr__(self):
        t = "" if self.truncation is None else f"; O(q^{self.truncation + 1})"
        return f"GradedCharacter({self}{t})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            if e == 0:
                parts.append(str(v))
            else:
                q = "q" if e == 1 else f"q^{e}"
                if v == 1:
                    parts.append(q)
                elif v == -1:
                    parts.append(f"-{q}")
                else:
                    parts.append(f"{v}*{q}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

    def to_payload(self):
        return payload([self])


def payload(slices):
    """Wire form of sum_k slices[k] * t^k:
    {truncation, terms: [[q_exp, t_exp, num, den]]}, sorted by (q, t)."""
    terms = sorted([e, k, v.numerator, v.denominator]
                   for k, s in enumerate(slices) for e, v in s.coeffs.items())
    ts = [s.truncation for s in slices if s.truncation is not None]
    return {"truncation": min(ts) if ts else "exact", "terms": terms}


def _divide_by_binomials(coeffs, degrees):
    """The series coeffs (q^0 .. q^T, in place) divided by each 1 - q^d: the
    running sum c[e] += c[e - d]; returns coeffs."""
    top = len(coeffs)
    for d in degrees:
        if d <= 0:
            raise ValueError("geometric factor needs d > 0")
        for e in range(d, top):
            coeffs[e] += coeffs[e - d]
    return coeffs


def _times_binomials(coeffs, es):
    """The series coeffs (q^0 .. q^T, in place) times each 1 - q^e, cut at
    q^T: the running difference c[k] -= c[k - e], from the top down;
    returns coeffs."""
    for e in es:
        for k in range(len(coeffs) - 1, e - 1, -1):
            coeffs[k] -= coeffs[k - e]
    return coeffs


def product_of_geometric(degrees, truncation):
    """Series of prod_i 1/(1-q^{d_i}), on integers."""
    return GradedCharacter(dict(enumerate(
        _divide_by_binomials([1] + [0] * truncation, degrees))), truncation)


def product_of_binomials(es):
    """The exact polynomial prod_i (1 - q^{e_i})."""
    return GradedCharacter(dict(enumerate(
        _times_binomials([1] + [0] * sum(es), es))))


def generator_degrees(series, n):
    """Sorted e_1 <= ... <= e_n with series = prod_i 1/(1 - q^{e_i}) up to
    its truncation, or None.  Each step peels the lowest nonconstant
    exponent, whose coefficient must be a positive integer; after n peels
    the remainder must be exactly 1.  Such a product has integer
    coefficients from q^0 on, and so has its remainder after any peel, so
    the peel runs on integers and any other series is refused up front."""
    t = series.truncation
    if t is None:
        # a polynomial times n >= 1 binomials is never 1
        return [] if n == 0 and series.coeffs == {0: ONE} else None
    c = [0] * (t + 1)
    for e, v in series.coeffs.items():
        if e < 0 or v.denominator != 1:
            return None
        c[e] = v.numerator
    exponents = []
    for _ in range(n):
        e = next((k for k in range(1, t + 1) if c[k]), None)
        if e is None or c[e] < 1:
            return None
        exponents.append(e)
        _times_binomials(c, (e,))
    if c[0] != 1 or any(c[1:]):
        return None
    return sorted(exponents)


def b_invariant(f):
    """Lowest exponent with nonzero coefficient of a nonzero polynomial."""
    if not isinstance(f, GradedCharacter):
        raise TypeError("b_invariant expects a GradedCharacter")
    if not f.is_polynomial():
        raise ValueError("b-invariant of a truncated series is not defined")
    return f.min_exponent()
