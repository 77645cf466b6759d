"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

The coefficient field of every computation is Q(zeta_N) for a conductor N
fixed per reflection group.  One representation per value: a scalar is a
``Fraction`` exactly when it is rational, and a ``Cyc`` of the group's
conductor only when it is not.  A ``Cyc`` holds integer coordinates over
the basis zeta^0 .. zeta^(phi(N)-1) and one common denominator, in lowest
terms.  The N-th cyclotomic polynomial is monic with integer coefficients,
so one integer table reduces any power of zeta into that basis: arithmetic
is integer arithmetic plus one gcd pass per result, canonical and exact.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    """Quotient and remainder of dense Fraction polynomials (ascending)."""
    a = [Fraction(c) for c in a]
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / Fraction(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return _poly_trim(q), _poly_trim(a)


def cyclotomic_polynomial(n):
    """Coefficients (ascending, Fractions) of the n-th cyclotomic polynomial,
    as a new list."""
    return list(_reduction(n)[2])


@cache
def _reduction(n):
    """Per-conductor data: phi(n); for each k with phi(n) <= k < n, the
    integer coordinates of zeta^k over zeta^0 .. zeta^(phi-1) as sparse
    (e, coeff) pairs; and the n-th cyclotomic polynomial as an ascending
    tuple."""
    phi = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi, r = _poly_divmod(phi, _reduction(d)[2])
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
    deg = len(phi) - 1
    # Phi_n is monic with integer coefficients, so every row is integral:
    # zeta^deg = -(phi_0 + phi_1 zeta + ...) and zeta^(k+1) = zeta * zeta^k
    low = [-int(c) for c in phi[:deg]]
    rows = []
    row = low
    for _ in range(deg, n):
        rows.append(tuple((e, c) for e, c in enumerate(row) if c))
        carry = row[-1]
        row = [0] + row[:-1]
        if carry:
            row = [a + carry * b for a, b in zip(row, low)]
    return deg, tuple(rows), tuple(phi)


@cache
def _trace_weights(n):
    """Tr(zeta_n^e) / phi(n) for each reduced exponent e < phi(n)."""
    return [_mean_primitive_root(n // gcd(n, e))
            for e in range(_reduction(n)[0])]


def _mean_primitive_root(d):
    """mu(d) / phi(d): the mean of the primitive d-th roots of unity."""
    out = _ONE
    for p in range(2, d + 1):
        if d % p == 0:
            d //= p
            if d % p == 0:
                return _ZERO
            out /= 1 - p
    return out


def _fold(n, acc):
    """Integer coordinates over zeta^0 .. zeta^(phi-1) of the sum of
    acc[k] * zeta_n^k, for phi(n) <= len(acc) <= 2n; acc is consumed."""
    phi, rows, _ = _reduction(n)
    for k in range(n, len(acc)):   # zeta^n = 1
        acc[k - n] += acc[k]
    out = acc[:phi]
    for k in range(phi, min(n, len(acc))):
        v = acc[k]
        if v:
            for e, c in rows[k - phi]:
                out[e] += v * c
    return out


def _product(n, a, b):
    """Integer coordinates of (sum a[i] zeta_n^i) * (sum b[j] zeta_n^j) for
    coordinate lists over zeta^0 .. zeta^(phi-1)."""
    acc = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y
    return _fold(n, acc)


def _conjugate(n, num, k):
    """Integer coordinates of the image of sum(num[e] * zeta_n^e) under
    zeta -> zeta_n^k."""
    acc = [0] * n
    for e, v in enumerate(num):
        acc[e * k % n] += v
    return _fold(n, acc)


def _cofactor(n, num):
    """(cofactor, norm) for a nonzero x = sum(num[e] * zeta_n^e) in
    Z[zeta_n]: the integer coordinates of the product of the Galois
    conjugates of x other than x itself, and the norm of x, the nonzero
    integer x * cofactor."""
    cof = [1] + [0] * (len(num) - 1)
    for k in range(2, n):
        if gcd(k, n) == 1:
            cof = _product(n, cof, _conjugate(n, num, k))
    norm = _product(n, num, cof)
    assert not any(norm[1:]), "the norm of a cyclotomic integer is rational"
    return cof, norm[0]


def _cyc(n, num, den):
    """The scalar sum(num[e] * zeta_n^e) / den, den > 0, in lowest terms:
    a Fraction when no coordinate above zeta^0 is nonzero, else a Cyc."""
    g = gcd(den, *num)
    if g != 1:
        num = [v // g for v in num]
        den //= g
    if not any(num[1:]):
        return Fraction(num[0], den)
    self = object.__new__(Cyc)
    self.n = n
    self.num = tuple(num)
    self.den = den
    return self


class Cyc:
    """An irrational element of Q(zeta_N): integer coordinates ``num`` over
    zeta^0 .. zeta^(phi(N)-1) and one denominator ``den`` > 0, with
    gcd(num, den) = 1.

    ``Cyc(n, {e: coeff})`` is the one public constructor and it
    canonicalizes: any exponent reduces into the basis, and a rational value
    comes back as a Fraction (Fraction(0) when there is no term).  Every
    operation returns through the same canonical form, so a scalar is a
    Fraction exactly when it is rational and a Cyc is never rational, in
    particular never zero.
    """

    __slots__ = ("n", "num", "den")

    def __new__(cls, n, coeffs):
        coeffs = [(e, Fraction(v)) for e, v in coeffs.items()]
        den = lcm(*(v.denominator for _, v in coeffs))
        acc = [0] * n
        for e, v in coeffs:
            acc[e % n] += v.numerator * (den // v.denominator)
        return _cyc(n, _fold(n, acc), den)

    @property
    def c(self):
        """The nonzero coordinates as {exponent: Fraction}, in ascending
        exponent order."""
        return {e: Fraction(v, self.den) for e, v in enumerate(self.num) if v}

    @property
    def numerator(self):
        """This value times its denominator, in Z[zeta_N], as an ``IntCyc``."""
        return IntCyc(self.n, self.num)

    @property
    def denominator(self):
        return self.den

    # ---- constructors -------------------------------------------------
    @classmethod
    def zeta(cls, n, k=1):
        return cls(n, {k: _ONE})

    @classmethod
    def of(cls, value, n):
        """An int/Fraction/Cyc read in Q(zeta_n)."""
        if not isinstance(value, Cyc):
            return Fraction(value)
        if n % value.n:
            raise ValueError(f"cannot coerce Q(zeta_{value.n}) into Q(zeta_{n})")
        return value._at(n, n // value.n)

    def _at(self, n, k):
        """This value with zeta replaced by zeta_n^k, read in Q(zeta_n)."""
        return _cyc(n, _conjugate(n, self.num, k), self.den)

    # ---- arithmetic ----------------------------------------------------
    def _plus(self, other, sign):
        """self + sign * other for a scalar of this field, NotImplemented
        for anything else."""
        d = self.den
        if isinstance(other, Cyc):
            if other.n != self.n:
                raise ValueError("mixed conductors")
            q = other.den
            if q == d:
                return _cyc(self.n, [a + sign * b for a, b in
                                     zip(self.num, other.num)], d)
            return _cyc(self.n, [a * q + sign * b * d for a, b in
                                 zip(self.num, other.num)], d * q)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            num = [a * q for a in self.num]
            num[0] += sign * other.numerator * d
            return _cyc(self.n, num, d * q)
        return NotImplemented

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.n, [-v for v in self.num], self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _cyc(self.n, [v * p for v in self.num],
                        self.den * other.denominator)
        if not isinstance(other, Cyc):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed conductors")
        return _cyc(self.n, _product(self.n, self.num, other.num),
                    self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        # num * cof = norm, so (num / den)^-1 = den * cof / norm
        cof, norm = _cofactor(self.n, self.num)
        if norm < 0:
            cof, norm = [-v for v in cof], -norm
        return _cyc(self.n, [v * self.den for v in cof], norm)

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        return self._at(self.n, -1)

    # ---- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Cyc):
            if self.n == other.n:
                return self.num == other.num and self.den == other.den
            m = lcm(self.n, other.n)
            return Cyc.of(self, m) == Cyc.of(other, m)
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        # Tr/phi(n) is the same in every cyclotomic field containing the
        # value, so values equal across conductors hash alike.
        weights = _trace_weights(self.n)
        return hash(sum(v * w for v, w in zip(self.num, weights)) / self.den)

    def __reduce__(self):
        return Cyc, (self.n, self.c)

    # ---- formatting ----------------------------------------------------
    def __repr__(self):
        return f"Cyc({self.n}, {self})"

    def __str__(self):
        parts = []
        for e, v in self.c.items():
            if e == 0:
                parts.append(str(v))
            else:
                z = "z" if e == 1 else f"z^{e}"
                if v == 1:
                    parts.append(z)
                elif v == -1:
                    parts.append(f"-{z}")
                else:
                    parts.append(f"{v}*{z}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

    # ---- wire format -----------------------------------------------------
    def literals(self):
        """[[k, num, den], ...] triples meaning sum (num/den) * zeta^k."""
        return [[e, v.numerator, v.denominator] for e, v in self.c.items()]

    @classmethod
    def from_literals(cls, n, triples):
        coeffs = {}
        for k, num, den in triples:
            k = int(k)
            coeffs[k] = coeffs.get(k, _ZERO) + Fraction(int(num), int(den))
        return cls(n, coeffs)


class IntCyc:
    """An element of Z[zeta_N]: integer coordinates ``num`` over zeta^0 ..
    zeta^(phi(N)-1), never gcd-normalized.  It is the ``numerator`` of a
    ``Cyc``, and it multiplies and adds with an ``int`` or an ``IntCyc`` of
    its conductor through the plain operators (``-`` too, and ``//`` by an
    int that divides every coordinate), so fraction-free code can carry a
    cyclotomic numerator over an integer denominator exactly as it carries
    an ``int``, and canonicalize once with ``over``."""

    __slots__ = ("n", "num")

    def __init__(self, n, num):
        self.n = n
        self.num = num

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return IntCyc(self.n, [v * other for v in self.num])
        if not isinstance(other, IntCyc):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed conductors")
        return IntCyc(self.n, _product(self.n, self.num, other.num))

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, int):
            num = list(self.num)
            num[0] += other
            return IntCyc(self.n, num)
        if not isinstance(other, IntCyc):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed conductors")
        return IntCyc(self.n, [a + b for a, b in zip(self.num, other.num)])

    __radd__ = __add__

    def __neg__(self):
        return IntCyc(self.n, [-v for v in self.num])

    def __sub__(self, other):
        if isinstance(other, int):
            num = list(self.num)
            num[0] -= other
            return IntCyc(self.n, num)
        if not isinstance(other, IntCyc):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed conductors")
        return IntCyc(self.n, [a - b for a, b in zip(self.num, other.num)])

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        num = [-v for v in self.num]
        num[0] += other
        return IntCyc(self.n, num)

    def __floordiv__(self, k):
        return IntCyc(self.n, [v // k for v in self.num])

    def __bool__(self):
        return any(self.num)

    def cofactor(self):
        """(c, norm): c in Z[zeta_N], the product of the Galois conjugates
        of this nonzero value other than itself, and the int self * c."""
        cof, norm = _cofactor(self.n, self.num)
        return IntCyc(self.n, cof), norm

    def over(self, den):
        """The canonical scalar self / den for an integer den > 0: a
        Fraction when it is rational, else a Cyc."""
        return _cyc(self.n, self.num, den)


def scalar_payload(value):
    """The one report form of a scalar: [num, den] for a rational, the
    [[k, num, den], ...] triples of ``Cyc.literals`` otherwise."""
    if isinstance(value, Cyc):
        return value.literals()
    return [value.numerator, value.denominator]


def euler_phi(n):
    return _reduction(n)[0]
