"""Idempotent decomposition of commutative finite-dimensional algebras.

Pipeline: radical via the trace form (characteristic zero), then splitting of
the semisimple quotient by factoring minimal polynomials of seeded random
elements, CRT idempotents, and Hensel lifting back through the radical.

Factorization happens in the Q-structure of the algebra: for a commutative
ring the primitive idempotents do not depend on the base field, so a
Q(zeta_N)-algebra can be split with rational factorization only.  A simple
factor bigger than the coefficient field raises FieldExtensionNeeded.
Polynomial factoring and the CRT idempotents are sympy's, imported on first
use so that importing the package does not load sympy.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclotomic import Cyc, euler_phi
from .errors import FieldExtensionNeeded, NotCommutative
from .groups import _vec_sort_key
from .linalg import (ZERO, ONE, Echelon, echelon, identity, kernel_basis,
                     rref, solve)

MAX_RETRIES = 24     # seeded split attempts per subalgebra


def _sympy_poly(coeffs):
    """The sympy polynomial over QQ with ascending Fraction coefficients."""
    import sympy
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        sympy.Symbol("T"), domain="QQ")


def _fractions(poly):
    """Ascending Fraction coefficients of a sympy polynomial."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def _factor_over_q(coeffs):
    """Monic irreducible factors (ascending Fraction lists) with multiplicities."""
    _, factors = _sympy_poly(coeffs).factor_list()
    return [(_fractions(f.monic()), mult) for f, mult in factors]


def _crt_idempotent(m, f):
    """The polynomial of degree below deg m that is 1 modulo the factor f of
    the squarefree m and 0 modulo m / f (ascending Fractions)."""
    mp, fp = _sympy_poly(m), _sympy_poly(f)
    g = mp.quo(fp)
    s, _t, _gcd = g.gcdex(fp)     # s * g + t * f = 1
    return _fractions((g * s).rem(mp))


def _cyc_components(value, phi):
    """Decompose a scalar into its phi rational coordinates over Q."""
    if isinstance(value, Cyc):
        return [value.c.get(t, ZERO) for t in range(phi)]
    v = Fraction(value)
    return [v] + [ZERO] * (phi - 1)


class CommutativeAlgebra:
    """A commutative algebra given by basis-pair products.

    ``prods[i][j]`` is the coordinate vector of e_i * e_j; ``unit`` the
    coordinates of 1.  A scalar is a Fraction exactly when it is rational,
    and a Cyc of the stated conductor only when it is not.
    """

    def __init__(self, prods, unit, conductor=1):
        self.dim = len(prods)
        self.prods = prods
        self.unit = list(unit)
        self.conductor = conductor
        for i in range(self.dim):
            for j in range(i):
                if prods[i][j] != prods[j][i]:
                    raise NotCommutative(
                        f"basis elements {i} and {j} do not commute")

    def mul(self, u, v):
        out = [ZERO] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.prods[i]
            for j, vj in enumerate(v):
                if vj:
                    c = ui * vj
                    pij = row[j]
                    for k, p in enumerate(pij):
                        if p:
                            out[k] = out[k] + c * p
        return out

    def trace_of_mult(self, v):
        """Trace of multiplication by the element with coordinates v."""
        total = ZERO
        for k, vk in enumerate(v):
            if vk:
                t = ZERO
                for j in range(self.dim):
                    t = t + self.prods[k][j][j]
                total = total + vk * t
        return total

    def radical_basis(self):
        """Basis of the nilradical: kernel of the trace form."""
        gram = [[self.trace_of_mult(self.prods[i][j]) for j in range(self.dim)]
                for i in range(self.dim)]
        return [[vec.get(j, ZERO) for j in range(self.dim)]
                for vec in kernel_basis(range(self.dim), lambda j: {
                    i: row[j] for i, row in enumerate(gram) if row[j]})]


def _minimal_polynomial(mul, unit, u):
    """Monic minimal polynomial (ascending Fractions/Cyc) of u, unit given."""
    dim = len(unit)
    span = Echelon(dim)
    powers = [list(unit)]
    while span.add(powers[-1]):
        powers.append(mul(powers[-1], u))
    # express the last power over the previous ones
    m = len(powers) - 1
    mat = [[powers[i][k] for i in range(m)] for k in range(dim)]
    rhs = [powers[m][k] for k in range(dim)]
    coeffs = solve(mat, rhs)
    if coeffs is None:
        raise ArithmeticError("inconsistent linear system")
    poly = [-c for c in coeffs] + [ONE]
    return poly


def _conductor_of_quadratic(minpoly):
    """Conductor of the splitting field of a monic rational quadratic."""
    b, c = minpoly[1], minpoly[0]
    disc = b * b - 4 * c
    num = disc.numerator * disc.denominator  # same squarefree class
    if num == 0:
        return None
    s = 1
    n = abs(num)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    s = n if num > 0 else -n
    if s % 4 == 1:
        return abs(s)
    return 4 * abs(s)


def idempotents_of_commutative_algebra(prods, unit, conductor=1, seed=0):
    """Pairwise-orthogonal primitive idempotents summing to 1.

    ``prods``/``unit`` as in CommutativeAlgebra.  Las Vegas randomness is
    seeded; retried with fresh draws up to ``MAX_RETRIES`` per split.
    Raises NotCommutative or FieldExtensionNeeded (with the required
    conductor when it can be determined).
    """
    alg = CommutativeAlgebra(prods, unit, conductor)
    if alg.dim == 0:
        return []
    phi = euler_phi(conductor)
    rad = alg.radical_basis()

    # Semisimple quotient: complement coordinates of the radical row space.
    rad_ech = echelon(rad, alg.dim)
    comp = [c for c in range(alg.dim) if c not in rad_ech.rows]
    k = len(comp)

    def project(vec):
        residual, _ = rad_ech.reduce(vec)
        return [residual.get(c, ZERO) for c in comp]

    def embed(qvec):
        out = [ZERO] * alg.dim
        for idx, c in enumerate(comp):
            out[c] = qvec[idx]
        return out

    units = [embed(e) for e in identity(k)]
    q_prods = [[project(alg.mul(ei, ej)) for ej in units] for ei in units]
    q_unit = project(alg.unit)
    quo = CommutativeAlgebra(q_prods, q_unit, conductor)

    # Q-structure: basis zeta^t * e_c.
    dim_q = phi * k

    def to_q(vec):
        out = []
        for v in vec:
            out.extend(_cyc_components(v, phi))
        return out

    def from_q(qv):
        out = []
        for c in range(k):
            comps = qv[c * phi:(c + 1) * phi]
            out.append(Cyc(conductor, dict(enumerate(comps))))
        return out

    def q_mul(u, v):
        uu = from_q(u)
        vv = from_q(v)
        return to_q(quo.mul(uu, vv))

    q_unit_vec = to_q(q_unit)

    rng = random.Random(seed)
    results = []  # (idempotent over Q-basis, q-dimension, certifying minpoly)

    def split(basis_rows, unit_vec):
        d = len(basis_rows)
        if d == 1:
            results.append((unit_vec, 1, None))
            return
        for _attempt in range(MAX_RETRIES):
            coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(d)]
            u = [ZERO] * dim_q
            for c, row in zip(coeffs, basis_rows):
                if c:
                    u = [a + c * b for a, b in zip(u, row)]
            m = _minimal_polynomial(q_mul, unit_vec, u)
            factors = _factor_over_q(m)
            if any(mult > 1 for _, mult in factors):
                raise ArithmeticError("non-squarefree minimal polynomial in a "
                                      "semisimple quotient")
            if len(factors) == 1:
                f = factors[0][0]
                if len(f) - 1 == d:
                    results.append((unit_vec, d, f))
                    return
                continue  # unlucky element; retry
            for f, _mult in factors:
                h = _crt_idempotent(m, f)
                # evaluate h at u inside this factor (Horner with local unit)
                acc = [ZERO] * dim_q
                for c in reversed(h):
                    acc = q_mul(acc, u)
                    if c:
                        acc = [a + c * b for a, b in zip(acc, unit_vec)]
                sub_rows, _piv = rref([q_mul(acc, row) for row in basis_rows],
                                      dim_q)
                split(sub_rows, acc)
            return
        raise ArithmeticError("failed to split commutative algebra after "
                              f"{MAX_RETRIES} seeded attempts")

    # The Q-span of the quotient: zeta^t e_c for all t, c.
    split(identity(dim_q), q_unit_vec)

    # Check splitting is complete over Q(zeta_N).
    for vec, d, mp in results:
        if d > phi:
            req = None
            if phi == 1 and mp is not None and len(mp) == 3:
                req = _conductor_of_quadratic(mp)
            raise FieldExtensionNeeded(
                "algebra does not split over the coefficient field "
                f"(simple factor of Q-dimension {d} > {phi})",
                required_conductor=req,
                factor=mp)

    # Lift back: Q-quotient -> K-quotient -> ambient, then Hensel.
    idems = []
    for vec, _d, _mp in results:
        amb = embed(from_q(vec))
        e = amb
        for _ in range(64):
            e2 = alg.mul(e, e)
            if e2 == e:
                break
            e3 = alg.mul(e2, e)
            e = [3 * a - 2 * b for a, b in zip(e2, e3)]
        else:
            raise ArithmeticError("idempotent lift did not converge")
        idems.append(e)

    idems.sort(key=_vec_sort_key)
    return idems
