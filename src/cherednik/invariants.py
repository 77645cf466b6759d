"""Invariant theory of a reflection group: Molien series, invariant degrees,
fake polynomials, fundamental invariants, and coinvariant-ring reductions.

The reduction machinery rests on the freeness of C[h] over C[h]^W: once a
monomial basis of the coinvariant ring is fixed, every homogeneous piece
C[h]_d decomposes as the direct sum of m_i * C[h]^W_{d - deg m_i}, so a
single exact linear solve per degree rewrites any polynomial as
sum_i m_i * g_i(f_1, .., f_n) and evaluating the invariants at a point of
h/W reduces modulo any fiber ideal, graded or not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import NotFactorizable
from .linalg import ONE, ZERO, _add_term, _axpy, echelon, rref, trace
from .polys import monomials_of_degree, pconst, pmul, pscale
from .series import GradedCharacter, generator_degrees, product_of_binomials


def _h_series(group, idx, order):
    """Coefficients h_k of 1/det(1 - q * A_w|_h) up to the given order.

    The coefficients c_1..c_n of det(1 - q A) come from the first n power
    traces (Newton: k c_k = -sum_{i<=k} tr(A^i) c_{k-i}); then
    h_k = -sum_{i<=min(k,n)} c_i h_{k-i}.
    """
    n = group.n
    traces = []
    j = idx
    for _ in range(n):
        traces.append(trace(group.matrix(j)))
        j = group.mult(j, idx)
    c = [ONE]
    for k in range(1, n + 1):
        s = ZERO
        for i in range(1, k + 1):
            s = s + traces[i - 1] * c[k - i]
        c.append(-s * Fraction(1, k))
    h = [ONE]
    for k in range(1, order + 1):
        s = ZERO
        for i in range(1, min(k, n) + 1):
            s = s + c[i] * h[k - i]
        h.append(-s)
    return h


def molien_series(group, order, weights=None):
    """(1/|W|) sum_w chi(w) / det(1 - q w|_h), truncated at ``order``.

    ``weights`` maps class index -> scalar weight chi on that class
    (defaults to the trivial character, giving the invariant Hilbert series).
    The sum must be rational; an irrational coefficient raises
    ArithmeticError.
    """
    total = {}
    for ci, cls in enumerate(group.conjugacy_classes):
        w = ONE if weights is None else weights[ci]
        if w:
            for k, h in enumerate(_h_series(group, cls[0], order)):
                _add_term(total, k, len(cls) * w * h)
    for k, v in total.items():
        if not isinstance(v, Fraction):
            raise ArithmeticError(
                f"Molien series has an irrational coefficient {v} at q^{k}")
    return GradedCharacter(total, order).scale(Fraction(1, group.order))


def molien_degrees(group):
    """Invariant degrees: factor the Molien series as prod 1/(1 - q^{d_i})."""
    degrees = generator_degrees(molien_series(group, group.order + 1),
                                group.n)
    if degrees is None:
        raise NotFactorizable(
            "Molien series is not a product of n geometric factors")
    if math.prod(degrees) != group.order:
        raise NotFactorizable(f"degree product {math.prod(degrees)} differs "
                              f"from group order {group.order}")
    if sum(d - 1 for d in degrees) != len(group.reflections):
        raise NotFactorizable(
            "degrees are inconsistent with the reflection count")
    return tuple(degrees)


def fake_polynomial(group, rep):
    """Graded multiplicity of rep in the coinvariant ring, as a polynomial."""
    degrees = group.degrees
    topdeg = sum(d - 1 for d in degrees)
    weights = [rep.char(r) for r in group.class_representatives]
    # the fake polynomial has degree at most topdeg, so the product
    # truncated there is exact
    f = GradedCharacter((molien_series(group, topdeg, weights)
                         * product_of_binomials(degrees)).coeffs)
    for e, v in sorted(f.coeffs.items()):
        if v.denominator != 1 or v < 0:
            raise ArithmeticError(
                f"fake polynomial has a bad coefficient {v} at q^{e}")
    if f.value_at_one() != rep.dim:
        raise ArithmeticError("fake polynomial does not sum to dim(rep)")
    return f


class InvariantTheory:
    """Fundamental invariants and coinvariant reductions for one side.

    side "x": polynomials on h (variables dual to the h-basis, the x_i);
    group acts through the h* matrices.  side "y": polynomials on h*
    (variables y_i); group acts through the h matrices.
    """

    def __init__(self, group, side="x"):
        if side not in ("x", "y"):
            raise ValueError("side must be 'x' or 'y'")
        self.group = group
        self.side = side
        self.n = group.n
        self._act_images = {}
        self._act_monos = {}
        self._decomp = {}
        self._fibers = {}

    # ---- group action on polynomials -------------------------------------
    def _images(self, widx):
        imgs = self._act_images.get(widx)
        if imgs is None:
            if self.side == "x":
                a = self.group.hstar_matrix(widx)
            else:
                a = self.group.matrix(widx)
            # variable j maps to sum_i a[i][j] * var_i (column j)
            imgs = []
            for j in range(self.n):
                img = {}
                for i in range(self.n):
                    if a[i][j]:
                        e = [0] * self.n
                        e[i] = 1
                        img[tuple(e)] = a[i][j]
                imgs.append(img)
            self._act_images[widx] = imgs
        return imgs

    def _monomial_image(self, widx, mono):
        """w . (the monomial with exponents mono), uncached: the product of
        the linear images of its variables."""
        prod = pconst(self.n, ONE)
        for img, k in zip(self._images(widx), mono):
            for _ in range(k):
                prod = pmul(prod, img)
        return prod

    def _act_monomial(self, widx, mono):
        """w . (the monomial with exponents mono), cached; callers must not
        mutate the returned polynomial."""
        key = (widx, mono)
        out = self._act_monos.get(key)
        if out is None:
            out = self._act_monos[key] = self._monomial_image(widx, mono)
        return out

    def reynolds(self, poly):
        # each image is read once, so none is kept in the shared cache
        total = {}
        for widx in range(self.group.order):
            for mono, c in poly.items():
                _axpy(total, self._monomial_image(widx, mono), c)
        return pscale(total, Fraction(1, self.group.order))

    # ---- fundamental invariants ----------------------------------------------
    @cached_property
    def fundamental_invariants(self):
        degrees = list(self.group.degrees)
        chosen = []   # list of (poly, degree)
        for d in sorted(set(degrees)):
            mult = degrees.count(d)
            monos = monomials_of_degree(self.n, d)
            mono_index = {m: i for i, m in enumerate(monos)}
            # invariant subspace of degree d via the Reynolds operator
            inv_rows = []
            for m in monos:
                r = self.reynolds({m: ONE})
                if r:
                    inv_rows.append([r.get(mm, ZERO) for mm in monos])
            inv_basis, _ = rref(inv_rows, len(monos))
            # span of degree-d products of already-chosen invariants
            old_rows = []
            for combo in _weighted_exponents([dg for _p, dg in chosen], d):
                prod = pconst(self.n, ONE)
                for (p, _dg), k in zip(chosen, combo):
                    for _ in range(k):
                        prod = pmul(prod, p)
                old_rows.append([prod.get(mm, ZERO) for mm in monos])
            span = echelon(old_rows, len(monos))
            new = []
            for row in inv_basis:
                if span.add(row):
                    poly = {m: row[mono_index[m]] for m in monos
                            if row[mono_index[m]]}
                    new.append(poly)
                if len(new) == mult:
                    break
            if len(new) != mult:
                raise NotFactorizable(
                    f"could not extract {mult} new fundamental invariants "
                    f"in degree {d} for {self.group.name}")
            chosen.extend((p, d) for p in new)
        return [p for p, _d in chosen]

    # ---- coinvariant monomial basis --------------------------------------------
    @cached_property
    def coinvariant_basis(self):
        """Monomial basis of C[vars]/(f_1,..,f_n), grouped by degree."""
        funds = self.fundamental_invariants
        degrees = self.group.degrees
        topdeg = sum(d - 1 for d in degrees)
        basis = []
        total = 0
        for d in range(topdeg + 1):
            monos = monomials_of_degree(self.n, d)
            mono_index = {m: i for i, m in enumerate(monos)}
            rows = []
            for f, fd in zip(funds, degrees_of(funds)):
                if fd > d or fd == 0:
                    continue
                for m in monomials_of_degree(self.n, d - fd):
                    prod = pmul(f, {m: ONE})
                    rows.append([prod.get(mm, ZERO) for mm in monos])
            pivots = echelon(rows, len(monos)).rows
            layer = [monos[i] for i in range(len(monos)) if i not in pivots]
            basis.append(layer)
            total += len(layer)
        if total != self.group.order:
            raise NotFactorizable(
                f"coinvariant dimension {total} != |W| = {self.group.order}")
        return basis

    def coinv_monomials(self):
        return [m for layer in self.coinvariant_basis for m in layer]

    # ---- decomposition over invariants --------------------------------------
    def _decomposition(self, d):
        """Solve data for C[h]_d = sum m_i * (monomials in f's).

        Product j = m * f^combo is the row of its monomial coefficients with
        a unit in column size + j; in the reduced echelon form the row at a
        monomial's pivot writes that monomial over the products.  Returns
        (echelon rows, [(m, combo) per product], {monomial: column})."""
        if d not in self._decomp:
            funds = self.fundamental_invariants
            fdegs = degrees_of(funds)
            mono_index = {m: i for i, m in
                          enumerate(monomials_of_degree(self.n, d))}
            size = len(mono_index)
            rows = []
            col_info = []
            for li, layer in enumerate(self.coinvariant_basis):
                if li > d:
                    break
                for m in layer:
                    for combo in _weighted_exponents(fdegs, d - li):
                        prod = {m: ONE}
                        for f, k in zip(funds, combo):
                            for _ in range(k):
                                prod = pmul(prod, f)
                        row = {mono_index[mm]: c for mm, c in prod.items()}
                        row[size + len(rows)] = ONE
                        rows.append(row)
                        col_info.append((m, combo))
            if len(rows) != size:
                raise NotFactorizable(
                    f"freeness decomposition is not square in degree {d}")
            ech = echelon(rows, size)
            if len(ech) != size:
                raise NotFactorizable(
                    f"freeness decomposition is singular in degree {d}")
            self._decomp[d] = (ech.rows, col_info, mono_index)
        return self._decomp[d]

    def fiber(self, values):
        """The memo {monomial: image in C[vars]/(f_i - values_i) over the
        coinvariant basis} of one fiber; index it by monomial."""
        values = tuple(values)
        fib = self._fibers.get(values)
        if fib is None:
            fib = self._fibers[values] = _Fiber(self, values)
        return fib

    def reduce(self, poly, values=None):
        """Reduce a polynomial modulo the fiber ideal (f_i - values_i)."""
        fib = self.fiber((ZERO,) * self.n if values is None else values)
        total = {}
        for mono, c in poly.items():
            _axpy(total, fib[mono], c)
        return total

    def invariant_values_at(self, point):
        """Values of the fundamental invariants at a point (of h for side x)."""
        from .polys import pevaluate
        return tuple(pevaluate(f, point) for f in self.fundamental_invariants)

    # ---- coinvariant ring as a graded W-module ---------------------------------
    def coinv_action_matrix(self, widx, degree):
        layer = self.coinvariant_basis[degree]
        cols = []
        for m in layer:
            red = self.reduce(self._act_monomial(widx, m))
            cols.append([red.get(mm, ZERO) for mm in layer])
        return [[cols[j][i] for j in range(len(layer))]
                for i in range(len(layer))]

    def graded_multiplicity(self, rep):
        """Independent oracle for the fake polynomial: decompose degreewise."""
        out = {}
        for d, layer in enumerate(self.coinvariant_basis):
            if not layer:
                continue
            total = self.group.multiplicity(rep, [
                trace(self.coinv_action_matrix(w, d))
                for w in self.group.class_representatives])
            if total:
                out[d] = total
        return GradedCharacter(out)


class _Fiber(dict):
    """Monomial -> its image modulo one fiber ideal, computed on first use."""

    def __init__(self, theory, values):
        super().__init__()
        self.theory = theory
        self.values = values

    def __missing__(self, mono):
        rows, col_info, mono_index = self.theory._decomposition(sum(mono))
        size = len(mono_index)
        out = {}
        for j, c in sorted(rows[mono_index[mono]].items()):
            if j < size:
                continue
            m, combo = col_info[j - size]
            v = c
            for val, k in zip(self.values, combo):
                if k:
                    if not val:
                        v = ZERO
                        break
                    v = v * val ** k
            _add_term(out, m, v)
        self[mono] = out
        return out


def degrees_of(polys):
    return [max(sum(e) for e in p) if p else 0 for p in polys]


def _weighted_exponents(weights, target):
    """Exponent vectors a with sum a_i * weights_i = target."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[i]
        top = remaining // w if w > 0 else 0
        for k in range(top + 1):
            rec(i + 1, remaining - k * w, prefix + [k])

    rec(0, target, [])
    return out
