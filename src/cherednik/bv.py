"""Exterior-algebra models over the coordinate Lagrangian in flat symplectic
2n-space, with the degree-lowering differential on the conormal side, the
Schouten-bracket differential on the normal side, the induced odd bracket,
identity checkers, and (virtual and Koszul) homology at a degree truncation.

Conventions, fixed once and validated by the axiom suite rather than chosen
from any source: the Poisson bivector is P = sum_l d/dy_l ^ d/dx_l, the
contraction is i_P = sum_l i_{d/dx_l} o i_{d/dy_l}, so i_P(dx_i ^ dy_j) =
-delta_ij; the Schouten bracket gives [P, f theta_I] =
-sum_l (df/dx_l) theta_{y_l} ^ theta_I for x-only coefficients.

Everything is exact over Q: the models' structure constants (derivative
exponents, signs, seeded coefficients) are ints, so their boundaries reach
the elimination as integer rows, and a Fraction enters only through a
rational scalar or coefficient given by the caller.  Truncation is by total
polynomial degree D and both differentials lower the coefficient degree, so
the truncated complex is a genuine subcomplex and only the top polynomial
degree carries boundary artifacts (excluded from homology totals).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import InvalidInput, NotRegularDetected, SideMismatch
from .linalg import _add_term, _axpy, rank
from .polys import monomials_of_degree

CONORMAL = "conormal"
NORMAL = "normal"


class TruncatedPolyModel:
    """Flat model: variables x_1..x_n, y_1..y_n, truncation degree D."""

    def __init__(self, n, trunc):
        if n < 1:
            raise InvalidInput(f"rank must be at least 1, got {n}")
        if trunc < 2:
            raise InvalidInput(
                f"truncation degree must be at least 2, got {trunc}")
        self.n = n
        self.trunc = trunc

    def element(self, side, terms):
        """The element sum of c * x^m * (wedge of the generators in subset)
        over the items ((m, subset), c) of ``terms``: m has n non-negative
        exponents, subset is a strictly increasing tuple in range(n), and c
        is rational."""
        for (m, subset), c in terms.items():
            self._check_term(m, c)
            for i in subset:
                self._check_index(i)
            if any(a >= b for a, b in zip(subset, subset[1:])):
                raise InvalidInput(
                    f"generator indices {tuple(subset)} are not strictly "
                    "increasing: list each index once, in increasing order")
        return ExteriorElement(self, side, terms)

    def function(self, side, poly):
        """The function sum of c * x^m over the items (m, c) of ``poly``."""
        for m, c in poly.items():
            self._check_term(m, c)
        return ExteriorElement(self, side,
                               {(m, ()): c for m, c in poly.items()})

    def generator(self, side, i):
        """dy_i (conormal) or d/dy_i (normal) with constant coefficient."""
        self._check_index(i)
        return ExteriorElement(self, side, {((0,) * self.n, (i,)): 1})

    def _check_term(self, m, c):
        if (len(m) != self.n
                or not all(isinstance(k, int) and k >= 0 for k in m)):
            raise InvalidInput(
                f"exponent tuple {tuple(m)} is not {self.n} non-negative "
                "integers")
        if not isinstance(c, (int, Fraction)):
            raise InvalidInput(f"coefficient {c!r} is not rational")

    def _check_index(self, i):
        if not (isinstance(i, int) and 0 <= i < self.n):
            raise InvalidInput(
                f"generator index {i!r} is not in 0..{self.n - 1}")

    def random_element(self, side, rng, exterior_degree=None,
                       max_poly_degree=None):
        """Seeded random element; homogeneous in exterior degree if given."""
        if max_poly_degree is None:
            max_poly_degree = self.trunc // 3
        terms = {}
        for _ in range(rng.randrange(1, 4)):     # one to three terms
            j = (exterior_degree if exterior_degree is not None
                 else rng.randrange(0, self.n + 1))
            subset = tuple(sorted(rng.sample(range(self.n), j)))
            d = rng.randrange(0, max_poly_degree + 1)
            monos = monomials_of_degree(self.n, d)
            m = monos[rng.randrange(len(monos))]
            _add_term(terms, (m, subset), rng.randrange(-4, 5))
        return ExteriorElement(self, side, terms)

    def __repr__(self):
        return f"TruncatedPolyModel(n={self.n}, trunc={self.trunc})"


class ExteriorElement:
    """Sum of terms f(x) * wedge of generators, on one side of the pairing.

    Keys are (x-exponent tuple, strictly increasing index tuple); values are
    ints, or Fractions once a rational scalar entered.  Terms beyond the
    truncation degree are dropped by ring operations (the quotient by high
    degrees).  The constructor trusts its keys; ``TruncatedPolyModel.element``
    and ``function`` check them.  The ring operations and the differentials
    build canonical terms (tuple keys within the truncation, nonzero
    coefficients) and store them through ``_of`` as they are.
    """

    __slots__ = ("model", "side", "terms")

    def __init__(self, model, side, terms=None):
        if side not in (CONORMAL, NORMAL):
            raise ValueError(f"unknown side {side!r}")
        self.model = model
        self.side = side
        t = {}
        if terms:
            for (m, subset), c in terms.items():
                if c and sum(m) <= model.trunc:
                    t[(tuple(m), tuple(subset))] = c
        self.terms = t

    @classmethod
    def _of(cls, model, side, terms):
        """The element over canonical terms, stored without a copy."""
        out = cls.__new__(cls)
        out.model, out.side, out.terms = model, side, terms
        return out

    def _check(self, other):
        if self.model is not other.model or self.side != other.side:
            raise SideMismatch("operands live on different sides or models")

    def __add__(self, other):
        self._check(other)
        return ExteriorElement._of(self.model, self.side,
                                   _axpy(dict(self.terms), other.terms, 1))

    def __neg__(self):
        return ExteriorElement._of(self.model, self.side,
                                   {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if c.denominator == 1:
            c = c.numerator
        return ExteriorElement._of(self.model, self.side,
                                   {k: v * c for k, v in self.terms.items()}
                                   if c else {})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = {}
        trunc = self.model.trunc
        for (m1, s1), c1 in self.terms.items():
            for (m2, s2), c2 in other.terms.items():
                if set(s1) & set(s2):
                    continue
                m = tuple(a + b for a, b in zip(m1, m2))
                if sum(m) > trunc:
                    continue
                sign, merged = _merge_sign(s1, s2)
                _add_term(out, (m, merged), sign * c1 * c2)
        return ExteriorElement._of(self.model, self.side, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExteriorElement):
            return NotImplemented
        return (self.model is other.model and self.side == other.side
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def exterior_degree(self):
        """Common exterior degree of all terms; None if mixed, 0 if zero."""
        degs = {len(s) for (_m, s) in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    def poly_degree(self):
        return max((sum(m) for (m, _s) in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        sym = "dy" if self.side == CONORMAL else "Dy"
        parts = []
        for (m, s), c in sorted(self.terms.items()):
            factors = []
            for i, k in enumerate(m):
                if k:
                    factors.append(f"x{i + 1}" + (f"^{k}" if k > 1 else ""))
            for i in s:
                factors.append(f"{sym}{i + 1}")
            body = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{body}" if abs(c) != 1 else
                         (body if c == 1 else f"-{body}"))
        return " + ".join(parts)


def _merge_sign(s1, s2):
    """Sign and sorted merge of two disjoint increasing index tuples."""
    inversions = 0
    for a in s1:
        for b in s2:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1, tuple(sorted(s1 + s2))


def bv_delta_conormal(model, elt):
    """i_P o d + d o i_P on forms f(x) dy_I, restricted back to the
    Lagrangian.  Lowers exterior degree and polynomial degree by one."""
    if elt.side != CONORMAL:
        raise SideMismatch("bv_delta_conormal expects a conormal element")
    # i_P(f dy_I) = 0 (no dx factors), so only i_P(d(f dy_I)) contributes:
    # d adds dx_i with sign +1 in front; contracting dy_l then dx_l walks
    # the ordered factor list (dx first, then dy ascending).
    out = {}
    for (m, subset), c in elt.terms.items():
        for pos, i in enumerate(subset):
            k = m[i]
            if not k:
                continue
            # term: k * c * dx_i ^ dy_subset; contracting dy_i at position
            # pos + 1 after dx_i gives (-1)^(pos + 1), after which dx_i sits
            # at position 0: sign +1
            _add_term(out, (m[:i] + (k - 1,) + m[i + 1:],
                            subset[:pos] + subset[pos + 1:]),
                      -k * c if pos % 2 == 0 else k * c)
    return ExteriorElement._of(model, CONORMAL, out)


def bv_delta_normal(model, elt):
    """Schouten bracket with the Poisson bivector on polyvectors f(x) Dy_I:
    [P, f Dy_I] = -sum_l (df/dx_l) Dy_l ^ Dy_I.  Raises exterior degree by
    one, lowers polynomial degree by one; a derivation (first order)."""
    if elt.side != NORMAL:
        raise SideMismatch("bv_delta_normal expects a normal element")
    out = {}
    for (m, subset), c in elt.terms.items():
        for l in range(model.n):
            k = m[l]
            if not k or l in subset:
                continue
            sign, merged = _merge_sign((l,), subset)
            _add_term(out, (m[:l] + (k - 1,) + m[l + 1:], merged),
                      -sign * k * c)
    return ExteriorElement._of(model, NORMAL, out)


def bv_delta(model, elt):
    if elt.side == CONORMAL:
        return bv_delta_conormal(model, elt)
    return bv_delta_normal(model, elt)


def gerstenhaber_bracket(model, a, b, delta=None):
    """The odd bracket measuring the second-order deviation of delta:

        [a, b] = (-1)^{deg a} (delta(ab) - delta(a) b - (-1)^{deg a} a delta(b)).

    The global (-1)^{deg a} normalization is the convention that makes the
    shifted antisymmetry / Leibniz / Jacobi identities hold as stated; the
    deviation itself is only graded-symmetric without it.
    """
    if a.side != b.side:
        raise SideMismatch("bracket operands live on different sides")
    da = a.exterior_degree()
    if da is None:
        raise ValueError("bracket needs homogeneous first argument")
    delta = delta or (lambda e: bv_delta(model, e))
    out = delta(a * b) - delta(a) * b
    term = a * delta(b)
    out = (out + term) if da % 2 else (out - term)
    return out.scale(-1) if da % 2 else out


def check_bv_seven_term(model, a, b, c, delta=None):
    """The order-two identity for delta, evaluated exactly on homogeneous
    elements (holds for any sign conventions that make delta order <= 2)."""
    for elt in (a, b, c):
        if elt.exterior_degree() is None:
            raise ValueError("seven-term check needs homogeneous inputs")
    if not (a.side == b.side == c.side):
        raise SideMismatch("seven-term operands live on different sides")
    delta = delta or (lambda e: bv_delta(model, e))
    da, db = a.exterior_degree(), b.exterior_degree()
    s_a = -1 if da % 2 else 1
    s_ab = -1 if (da + db) % 2 else 1
    s_a1b = -1 if ((da + 1) * db) % 2 else 1
    one = model.function(a.side, {(0,) * model.n: 1})
    lhs = delta(a * b * c)
    rhs = (delta(a * b) * c
           + (a * delta(b * c)).scale(s_a)
           + (b * delta(a * c)).scale(s_a1b)
           - delta(a) * b * c
           - (a * delta(b) * c).scale(s_a)
           - (a * b * delta(c)).scale(s_ab)
           + delta(one) * a * b * c)
    return lhs == rhs


def check_bracket_axioms(model, a, b, c):
    """Graded antisymmetry, Leibniz, Jacobi for the induced bracket."""
    for elt in (a, b, c):
        if elt.exterior_degree() is None:
            raise ValueError("bracket axioms need homogeneous inputs")
    da = a.exterior_degree()
    db = b.exterior_degree()

    def br(u, v):
        return gerstenhaber_bracket(model, u, v)

    # antisymmetry: [a,b] = -(-1)^{(da-1)(db-1)} [b,a]
    sign = 1 if ((da - 1) * (db - 1)) % 2 else -1
    ok = br(a, b) == br(b, a).scale(sign)
    # Leibniz: [a, bc] = [a,b] c + (-1)^{(da-1) db} b [a,c]
    s = -1 if ((da - 1) * db) % 2 else 1
    ok = ok and (br(a, b * c) == br(a, b) * c + (b * br(a, c)).scale(s))
    # Jacobi: [a,[b,c]] = [[a,b],c] + (-1)^{(da-1)(db-1)} [b,[a,c]]
    s = -1 if ((da - 1) * (db - 1)) % 2 else 1
    ok = ok and (br(a, br(b, c))
                 == br(br(a, b), c) + br(b, br(a, c)).scale(s))
    return ok


def sample_identity_failures(model, rng, samples):
    """Failure counts (square-zero, seven-term, bracket axioms) over
    ``samples`` seeded random homogeneous triples, on the conormal side for
    even and the normal side for odd sample indices."""
    square = seven = bracket = 0
    for i in range(samples):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a, b, c = (model.random_element(
            side, rng, exterior_degree=rng.randrange(0, model.n + 1))
            for _ in range(3))
        if bv_delta(model, bv_delta(model, a)):
            square += 1
        if not check_bv_seven_term(model, a, b, c):
            seven += 1
        if not check_bracket_axioms(model, a, b, c):
            bracket += 1
    return square, seven, bracket


# --------------------------------------------------------------------------
# Homology
# --------------------------------------------------------------------------

def _piece_ranks(basis, boundary):
    """Kernel dimension and boundary rank of each piece of a graded complex.

    ``basis`` maps each piece to its basis elements, no element in two
    pieces; ``boundary(b)`` is the image of one basis element as a sparse
    {target basis element: coeff} map.  Returns ``(kernel_dims, ranks)``,
    both keyed by piece.
    """
    index = {}
    for elts in basis.values():
        for b in elts:
            index[b] = len(index)
    kernel_dims, ranks = {}, {}
    for piece, elts in basis.items():
        r = rank([{index[t]: c for t, c in boundary(b).items()}
                  for b in elts], len(index))
        kernel_dims[piece] = len(elts) - r
        ranks[piece] = r
    return kernel_dims, ranks


def virtual_homology(model, side):
    """Homology of (exterior model, delta), reported degreewise.

    Polynomial degrees are interior if d <= trunc - 1 (incoming maps from
    degree d + 1 are then complete); the top degree carries truncation
    artifacts and is excluded from totals.
    """
    n, D = model.n, model.trunc
    basis = {(j, d): [(m, s) for s in combinations(range(n), j)
                      for m in monomials_of_degree(n, d)]
             for j in range(n + 1) for d in range(D + 1)}

    def boundary(key):
        return bv_delta(model, ExteriorElement._of(model, side,
                                                   {key: 1})).terms

    ker_dim, out_rank = _piece_ranks(basis, boundary)
    # delta lowers exterior degree on the conormal side, raises it on the
    # normal side; the map into (j, d) starts at (j + step, d + 1)
    step = 1 if side == CONORMAL else -1
    by_degree = {}
    for j in range(n + 1):
        total = sum(ker_dim[(j, d)] - out_rank.get((j + step, d + 1), 0)
                    for d in range(D))     # interior polynomial degrees only
        if total:
            by_degree[j] = total
    total = sum(by_degree.values())
    concentration = list(by_degree)[0] if len(by_degree) == 1 else None
    return {
        "side": side,
        "trunc": D,
        "by_degree": sorted(by_degree.items()),
        "total": total,
        "observed_degree": concentration,
    }


def coordinate_sequence(n):
    """The coordinates y_1..y_n as polynomials in the 2n variables
    (x_1..x_n first): the Koszul sequence of the transverse coordinate
    Lagrangian y = 0."""
    return [{tuple(int(k == n + i) for k in range(2 * n)): 1}
            for i in range(n)]


def koszul_homology(n, trunc, sequence, vanishing_vars, claimed_regular=False):
    """Koszul homology of a sequence acting on functions of a coordinate
    subspace of 2n-space, computed exactly per total degree <= trunc.

    ``sequence``: polynomials as {exponent tuple over 2n vars: coeff},
    homogeneous.  ``vanishing_vars``: indices (0..2n-1) whose coordinate
    functions vanish on the subspace.  Returns a report with homology
    dimensions by homological degree, the degree-reversed (cohomology)
    reindexing, and a regularity verdict; raises NotRegularDetected when a
    claimed-regular sequence has higher homology.
    """
    vanish = frozenset(vanishing_vars)
    k = len(sequence)
    seq_deg = []
    for z in sequence:
        degs = {sum(e) for e in z}
        if len(degs) != 1:
            raise ValueError("Koszul sequence entries must be homogeneous")
        seq_deg.append(degs.pop())

    def on_subspace(m):
        return all(m[i] == 0 for i in vanish)

    free = [i for i in range(2 * n) if i not in vanish]

    @cache
    def module_monos(d):
        """The monomials of degree d in the variables that do not vanish,
        as exponent tuples over all 2n variables."""
        out = []
        for e in monomials_of_degree(len(free), d) if d >= 0 else ():
            m = [0] * (2 * n)
            for i, k in zip(free, e):
                m[i] = k
            out.append(tuple(m))
        return out

    # chain spaces per (homological degree r, total degree t)
    basis = {(r, t): [(m, subset) for subset in combinations(range(k), r)
                      for m in module_monos(
                          t - sum(seq_deg[i] for i in subset))]
             for t in range(trunc + 1) for r in range(k + 1)}

    def boundary(key):
        m, subset = key
        out = {}
        for pos, i in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1:]
            for e, c in sequence[i].items():
                m2 = tuple(a + b for a, b in zip(e, m))
                if on_subspace(m2):
                    _add_term(out, (m2, rest), c if pos % 2 == 0 else -c)
        return out

    kerd, out_rank = _piece_ranks(basis, boundary)
    hom_dims = {r: {} for r in range(k + 1)}
    for (r, t) in basis:
        h = kerd[(r, t)] - out_rank.get((r + 1, t), 0)
        if h:
            hom_dims[r][t] = h
    chain_dims = {r: sum(len(basis[(r, t)]) for t in range(trunc + 1))
                  for r in range(k + 1)}
    totals = {r: sum(hom_dims[r].values()) for r in range(k + 1)}
    regular = all(totals[r] == 0 for r in range(1, k + 1))
    if claimed_regular and not regular:
        raise NotRegularDetected(
            f"claimed-regular sequence has higher homology {totals}")
    euler_chain = sum((-1) ** r * chain_dims[r] for r in range(k + 1))
    euler_hom = sum((-1) ** r * totals[r] for r in range(k + 1))
    return {
        "trunc": trunc,
        "homology": totals,
        "by_degree": {r: sorted(hom_dims[r].items()) for r in range(k + 1)
                      if hom_dims[r]},
        "cohomology_reindexed": {k - r: totals[r] for r in range(k + 1)},
        "regular": regular,
        "euler_chain": euler_chain,
        "euler_homology": euler_hom,
        "chain_dims": chain_dims,
    }


def bv_check(n, trunc, samples, seed):
    """The exterior-model check of ``bv-check`` and the ``verify`` bv suite.

    Counts identity failures over ``samples`` seeded random triples, computes
    the virtual homology of both sides and the Koszul homology of the
    transverse coordinate Lagrangian, and sets ``checks_pass`` when no
    identity failed, both virtual homologies are one-dimensional, and the
    coordinate sequence is regular with one-dimensional H_0 (the pairing
    against the dual standard module).
    """
    if samples < 0:
        raise InvalidInput(f"samples must be at least 0, got {samples}")
    model = TruncatedPolyModel(n, trunc)
    square, seven, bracket = sample_identity_failures(
        model, random.Random(seed), samples)
    virtual = {side: virtual_homology(model, side)
               for side in (CONORMAL, NORMAL)}
    koszul = koszul_homology(n, trunc, coordinate_sequence(n),
                             vanishing_vars=list(range(n)))
    return {
        "n": n, "trunc": trunc, "samples": samples, "seed": seed,
        "square_zero_failures": square,
        "seven_term_failures": seven,
        "bracket_axiom_failures": bracket,
        "virtual_homology": virtual,
        "koszul": koszul,
        "checks_pass": (not (square or seven or bracket)
                        and all(v["total"] == 1 for v in virtual.values())
                        and koszul["homology"][0] == 1
                        and koszul["regular"]),
    }
