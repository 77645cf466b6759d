"""Invariant theory of a reflection group: Molien series, invariant degrees,
fake polynomials, fundamental invariants, and coinvariant-ring reductions.

The reductions rest on one echelon per degree d: the span of the products
f_i * m of degree d.  Its non-pivot monomials are the coinvariant monomial
basis, and as C[h] is free over C[h]^W they stay a basis of C[h]/(f_i - v_i)
at every point v of h/W.  There each row f_i * m carries -v_i times the
image of m, already reduced, in augmented columns, so the reduced row at a
pivot monomial writes it modulo the fiber ideal, graded or not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatch, NotFactorizable
from .linalg import ONE, ZERO, _add_term, _axpy, _interned, echelon, trace
from .polys import monomials_of_degree, pconst, pevaluate, pmul, pscale
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
        self._act_coeffs = {}
        self._ideals = {}
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
            out = self._act_monos[key] = _interned(
                self._monomial_image(widx, mono), self._act_coeffs)
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
        """Reynolds images of monomials, degree by degree: in degree d, walk
        the monomials in order and keep each image that the echelon of the
        products f * m (f an invariant found so far) does not yet contain,
        until the Molien count of degree d is reached.  An invariant lies in
        the ideal of the lower invariants exactly when it is a polynomial in
        them (apply Reynolds to sum f_i h_i), so each kept image is a new
        generator."""
        degrees = sorted(self.group.degrees)
        found = []
        for d in sorted(set(degrees)):
            monos = monomials_of_degree(self.n, d)
            index = {m: i for i, m in enumerate(monos)}
            ech = echelon(sorted((row for _k, _m, row in
                                  self._products(found, d, index)),
                                 key=min, reverse=True), len(monos))
            want = len(found) + degrees.count(d)
            for m in monos:
                if len(found) == want:
                    break
                image = self.reynolds({m: ONE})
                if ech.add({index[mm]: c for mm, c in image.items()}):
                    found.append(image)
            if len(found) != want:
                raise NotFactorizable(
                    f"could not extract {degrees.count(d)} new fundamental "
                    f"invariants in degree {d} for {self.group.name}")
        return found

    def _products(self, funds, d, index):
        """(k, m, funds[k] * m as a row {index[monomial]: coeff}) for each
        monomial m of degree d - deg funds[k], where funds[k] has the k-th
        Molien degree and that degree is at most d."""
        for k, (f, fd) in enumerate(zip(funds, sorted(self.group.degrees))):
            if fd > d:
                continue
            for m in monomials_of_degree(self.n, d - fd):
                yield k, m, {index[mm]: c
                             for mm, c in pmul(f, {m: ONE}).items()}

    # ---- the fiber ideals, degree by degree -------------------------------------
    def _ideal(self, d, values):
        """(echelon, monomials, {monomial: column}) of the fiber ideal
        (f_i - v_i) in degree d: a row f_i * m per f_i of degree <= d and
        monomial m of degree d - deg f_i, with -v_i * image(m) in the
        augmented column size + k of the k-th coinvariant monomial."""
        key = (d, values)
        out = self._ideals.get(key)
        if out is None:
            monos = monomials_of_degree(self.n, d)
            index = {m: i for i, m in enumerate(monos)}
            size = len(monos)
            rows, fib = [], self.fiber(values)
            for k, m, row in self._products(self.fundamental_invariants, d,
                                            index):
                if values[k]:
                    position = self._coinv_columns[1]
                    for mm, c in fib[m].items():
                        row[size + position[mm]] = -values[k] * c
                rows.append(row)
            # latest leading column first: each new pivot then has little
            # to clear from the rows already in (the RREF is the same)
            rows.sort(key=min, reverse=True)
            out = self._ideals[key] = (echelon(rows, size), monos, index)
        return out

    # ---- coinvariant monomial basis --------------------------------------------
    @cached_property
    def coinvariant_basis(self):
        """Monomial basis of C[vars]/(f_1,..,f_n), grouped by degree: the
        non-pivots of each degree of the graded ideal."""
        zero = (ZERO,) * self.n
        basis = []
        for d in range(sum(d - 1 for d in self.group.degrees) + 1):
            ech, monos, _ = self._ideal(d, zero)
            basis.append([m for i, m in enumerate(monos) if i not in ech.rows])
        total = sum(map(len, basis))
        if total != self.group.order:
            raise NotFactorizable(
                f"coinvariant dimension {total} != |W| = {self.group.order}")
        return basis

    def coinv_monomials(self):
        return [m for layer in self.coinvariant_basis for m in layer]

    @cached_property
    def _coinv_columns(self):
        """(coinvariant monomials, {monomial: its position in them})."""
        basis = self.coinv_monomials()
        return basis, {m: k for k, m in enumerate(basis)}

    # ---- reduction modulo a fiber ideal ---------------------------------------
    def _check_length(self, seq, what):
        if len(seq) != self.n:
            raise DimensionMismatch(
                f"{what} of {self.group.name} needs n = {self.n} "
                f"coordinates, got {len(seq)}")

    def fiber(self, values):
        """The memo {monomial: image in C[vars]/(f_i - values_i) over the
        coinvariant basis} of one fiber; index it by monomial."""
        values = tuple(values)
        self._check_length(values, "a fiber")
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
        self._check_length(point, "a point")
        return tuple(pevaluate(f, point) for f in self.fundamental_invariants)

    # ---- coinvariant ring as a graded W-module ---------------------------------
    def graded_multiplicity(self, rep):
        """Independent oracle for the fake polynomial: decompose degreewise.
        The trace of w on a layer sums, over its monomials m, the coefficient
        of m in the image of w . m."""
        out = {}
        for d, layer in enumerate(self.coinvariant_basis):
            if not layer:
                continue
            total = self.group.multiplicity(rep, [
                sum((self.reduce(self._act_monomial(w, m)).get(m, ZERO)
                     for m in layer), ZERO)
                for w in self.group.class_representatives])
            if total:
                out[d] = total
        return GradedCharacter(out)


class _Fiber(dict):
    """Monomial -> its image modulo one fiber ideal, read on first use from
    the echelon of its degree."""

    def __init__(self, theory, values):
        super().__init__()
        self.theory = theory
        self.values = values

    def __missing__(self, mono):
        ech, monos, index = self.theory._ideal(sum(mono), self.values)
        basis, position = self.theory._coinv_columns
        p = index.get(mono)
        row = ech.rows.get(p)
        if row is None:
            # off the pivots: a coinvariant monomial is its own image
            if mono not in position:
                raise NotFactorizable(
                    f"{mono} is neither in the ideal of the fundamental "
                    "invariants nor a coinvariant monomial")
            out = {mono: ONE}
        else:
            # mono = -(the rest of its row) modulo the fiber ideal; lower
            # degrees first, so the keys follow the coinvariant basis
            size = len(monos)
            out = {basis[j - size] if j >= size else monos[j]: -c
                   for j, c in sorted(row.items(),
                                      key=lambda t: (t[0] < size, t[0]))
                   if j != p}
        self[mono] = out
        return out

