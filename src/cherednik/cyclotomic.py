"""Exact scalars: arbitrary-precision rationals and cyclotomic numbers.

The coefficient field of every computation is Q(zeta_N) for a conductor N
fixed per reflection group.  One representation per value: a scalar is a
``Fraction`` exactly when it is rational, and a ``Cyc`` of the group's
conductor only when it is not.  A ``Cyc`` is a sparse polynomial in zeta_N,
kept reduced modulo the N-th cyclotomic polynomial, so representation and
arithmetic are canonical and exact.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

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


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _ZERO) - (b[i] if i < len(b) else _ZERO)
           for i in range(n)]
    return _poly_trim(out)


def _poly_mod(a, m):
    _, r = _poly_divmod(a, m)
    return r


def _poly_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g over Q, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [_ONE], []
    t0, t1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        s = _poly_sub(s0, _poly_mul(q, s1))
        t = _poly_sub(t0, _poly_mul(q, t1))
        r0, r1, s0, s1, t0, t1 = r1, r, s1, s, t1, t
    inv = 1 / r0[-1]
    return [c * inv for c in r0], [c * inv for c in s0], [c * inv for c in t0]


def cyclotomic_polynomial(n):
    """Coefficients (ascending, Fractions) of the n-th cyclotomic polynomial,
    as a new list."""
    return list(_reduction(n)[2])


@cache
def _reduction(n):
    """Per-conductor data: (phi(n), table mapping exponent -> reduced dict,
    the n-th cyclotomic polynomial as an ascending tuple)."""
    phi = [-_ONE] + [_ZERO] * (n - 1) + [_ONE]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi, r = _poly_divmod(phi, _reduction(d)[2])
            if r:
                raise ArithmeticError("cyclotomic division left a remainder")
    deg = len(phi) - 1
    table = {}
    if deg < n:
        # zeta^deg = -(phi_0 + phi_1 zeta + ...)
        base = {i: -phi[i] for i in range(deg) if phi[i]}
        table[deg] = base
        for k in range(deg + 1, n):
            prev = table[k - 1]
            nxt = {}
            for e, c in prev.items():
                if e + 1 == deg:
                    for e2, c2 in table[deg].items():
                        nxt[e2] = nxt.get(e2, _ZERO) + c * c2
                else:
                    nxt[e + 1] = nxt.get(e + 1, _ZERO) + c
            table[k] = {e: c for e, c in nxt.items() if c}
    return deg, table, tuple(phi)


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


def _reduce(n, coeffs):
    """Coefficients of sum(v * zeta_n^e) over the basis zeta_n^e, e < phi(n)."""
    deg, table, _ = _reduction(n)
    out = {}
    for e, v in coeffs.items():
        v = Fraction(v)
        if not v:
            continue
        e %= n
        if e < deg:
            out[e] = out.get(e, _ZERO) + v
        else:
            for e2, c2 in table[e].items():
                out[e2] = out.get(e2, _ZERO) + v * c2
    return {e: v for e, v in out.items() if v}


class Cyc:
    """An irrational element of Q(zeta_N), reduced mod the N-th cyclotomic
    polynomial.

    ``Cyc(n, coeffs)`` is the one constructor and it canonicalizes: when the
    reduced coefficients hold no term but zeta^0, it returns that coefficient
    as a Fraction (Fraction(0) when there is none).  Every operation returns
    through it, so a scalar is a Fraction exactly when it is rational and a
    Cyc is never rational, in particular never zero.
    """

    __slots__ = ("n", "c")

    def __new__(cls, n, coeffs, _reduced=False):
        if not _reduced:
            coeffs = _reduce(n, coeffs)
        if not coeffs:
            return _ZERO
        if len(coeffs) == 1 and 0 in coeffs:
            return coeffs[0]
        self = object.__new__(cls)
        self.n = n
        self.c = coeffs
        return self

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
        k = n // value.n
        return cls(n, {e * k: v for e, v in value.c.items()})

    # ---- arithmetic ----------------------------------------------------
    def _terms(self, other):
        """Coefficients of a scalar in this field, None for anything else."""
        if isinstance(other, Cyc):
            if other.n != self.n:
                raise ValueError("mixed conductors")
            return other.c
        if isinstance(other, (int, Fraction)):
            return {0: other}
        return None

    def _plus(self, terms):
        out = dict(self.c)
        for e, v in terms.items():
            w = out.get(e, _ZERO) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return Cyc(self.n, out, _reduced=True)

    def __add__(self, other):
        o = self._terms(other)
        return NotImplemented if o is None else self._plus(o)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, {e: -v for e, v in self.c.items()}, _reduced=True)

    def __sub__(self, other):
        o = self._terms(other)
        if o is None:
            return NotImplemented
        return self._plus({e: -v for e, v in o.items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _ZERO
            return Cyc(self.n, {e: v * other for e, v in self.c.items()},
                       _reduced=True)
        if not isinstance(other, Cyc):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("mixed conductors")
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                out[e] = out.get(e, _ZERO) + v1 * v2
        return Cyc(self.n, out)

    __rmul__ = __mul__

    def inverse(self):
        # extended Euclid in Q[x] against the cyclotomic polynomial
        phi = _reduction(self.n)[2]
        a = _poly_trim([self.c.get(i, _ZERO) for i in range(len(phi) - 1)])
        g, _, inv = _poly_xgcd(phi, a)
        if len(g) != 1:
            raise ArithmeticError("element not invertible mod cyclotomic polynomial")
        return Cyc(self.n, dict(enumerate(inv)))

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
        return Cyc(self.n, {-e: v for e, v in self.c.items()})

    # ---- comparison / hashing -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Cyc):
            if self.n == other.n:
                return self.c == other.c
            m = self.n * other.n // gcd(self.n, other.n)
            return Cyc.of(self, m).c == Cyc.of(other, m).c
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        # Tr/phi(n) is the same in every cyclotomic field containing the
        # value, so values equal across conductors hash alike.
        weights = _trace_weights(self.n)
        return hash(sum(v * weights[e] for e, v in self.c.items()))

    # ---- formatting ----------------------------------------------------
    def __repr__(self):
        return f"Cyc({self.n}, {self})"

    def __str__(self):
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
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
        return [[e, v.numerator, v.denominator] for e, v in sorted(self.c.items())]

    @classmethod
    def from_literals(cls, n, triples):
        coeffs = {}
        for k, num, den in triples:
            k = int(k)
            coeffs[k] = coeffs.get(k, _ZERO) + Fraction(int(num), int(den))
        return cls(n, coeffs)


def scalar_payload(value):
    """The one report form of a scalar: [num, den] for a rational, the
    [[k, num, den], ...] triples of ``Cyc.literals`` otherwise."""
    if isinstance(value, Cyc):
        return value.literals()
    return [value.numerator, value.denominator]


def euler_phi(n):
    return _reduction(n)[0]
