"""Closed graded-character formulas for endomorphism rings of Verma modules:
the main character formula, its hook-polynomial form for symmetric groups,
generator-degree factorizations, and the self-intersection characters
(End(Delta) times an exterior factor, as t-slices).

Orientation note: the generator degrees e_i are read so that
prod_i 1/(1 - q^{e_i}) reconstructs the endomorphism-ring character itself
(the "generator degrees" reading); every factorization result carries this
note.
"""

from __future__ import annotations

from .errors import InvalidInput, MissingEis, NegativeExponentPresent
from .series import (DEFAULT_TRUNCATION, generator_degrees,
                     product_of_binomials, product_of_geometric)

ORIENTATION_NOTE = ("e_i are generator degrees of the endomorphism ring: "
                    "prod 1/(1-q^e_i) reconstructs its graded character")


def endo_character(group, rep, truncation=DEFAULT_TRUNCATION):
    """Graded character of End(Delta(rep)) for a distinguished rep.

    q^{-b} * f(q) * prod_i 1/(1 - q^{d_i}), where f is the fake polynomial
    of the dual representation and b its lowest exponent.  The result must
    be an N-graded series with constant term 1; otherwise the input was not
    a distinguished representative and NegativeExponentPresent is raised.
    """
    if truncation < 0:
        raise InvalidInput(f"truncation must be at least 0, got {truncation}")
    f = group.fake_polynomial(group.dual_of(rep))
    ch = f.shift(-f.min_exponent()).truncate(truncation) * \
        product_of_geometric(group.degrees, truncation)
    if any(e < 0 for e in ch.coeffs):
        raise NegativeExponentPresent(
            f"character of End(Delta({rep.label!r})) has negative exponents; "
            "the representation is not distinguished")
    if ch[0] != 1:
        raise NegativeExponentPresent(
            f"character of End(Delta({rep.label!r})) does not start at 1")
    return ch


def undistinguished_note(group, param, rep):
    """Why the End(Delta) formulas do not apply to ``rep`` at ``param``, or
    None.  At c = 0 the group is one block whose distinguished member is the
    b = 0 irreducible, so every other irreducible gets the note."""
    if param.is_zero() and group.b_invariant(rep):
        return ("not distinguished: at c = 0 the End(Delta) formulas hold "
                "only for the b = 0 irreducible")
    return None


def verma_character(group, rep, truncation=DEFAULT_TRUNCATION):
    """Graded character of the full standard module: dim(rep)/(1-q)^n."""
    if truncation < 0:
        raise InvalidInput(f"truncation must be at least 0, got {truncation}")
    ch = product_of_geometric([1] * group.n, truncation)
    return ch.scale(rep.dim)


def hook_lengths(partition):
    out = []
    cols = [0] * (partition[0] if partition else 0)
    for row_len in partition:
        for j in range(row_len):
            cols[j] += 1
    for i, row_len in enumerate(partition):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = cols[j] - i - 1
            out.append(arm + leg + 1)
    return sorted(out, reverse=True)


def hook_polynomial(partition):
    """prod over cells of (1 - q^{hook length}), as an exact polynomial."""
    return product_of_binomials(hook_lengths(partition))


def hook_identity_check(group, partition, truncation=DEFAULT_TRUNCATION):
    """Does End(Delta(partition)) have character 1/hook polynomial?

    ``group`` must be a symmetric group in its permutation representation
    and the partition a singleton block at the given (generic) parameter.
    """
    rep = group.irrep(tuple(partition))
    lhs = endo_character(group, rep, truncation)
    rhs = hook_polynomial(tuple(partition)).truncate(truncation) \
        .series_inverse(truncation)
    return lhs.equals(rhs, up_to=truncation)


class EisFactorization:
    """Sorted generator degrees 0 < e_1 <= ... <= e_n, or no solution."""

    def __init__(self, exponents):
        self.exponents = tuple(exponents) if exponents is not None else None

    @classmethod
    def no_solution(cls):
        return cls(None)

    def is_solution(self):
        return self.exponents is not None

    def payload(self):
        return {"exponents": (None if self.exponents is None
                              else list(self.exponents)),
                "solvable": self.is_solution(),
                "orientation": ORIENTATION_NOTE}

    def __eq__(self, other):
        if isinstance(other, EisFactorization):
            return self.exponents == other.exponents
        return NotImplemented

    def __repr__(self):
        if self.exponents is None:
            return "EisFactorization(NoSolution)"
        return f"EisFactorization({list(self.exponents)})"


def solve_eis_from_character(ch, n, truncation=DEFAULT_TRUNCATION):
    """Peel n geometric factors off the series (``series.generator_degrees``)
    to the truncation order.  Returns the factorization or the NoSolution
    marker (a legitimate outcome, not an error).
    """
    return EisFactorization(generator_degrees(ch.truncate(truncation), n))


def solve_eis(group, rep, truncation=DEFAULT_TRUNCATION):
    """Generator degrees of End(Delta(rep)) for a distinguished singleton rep,
    whatever the truncation.

    End(Delta) = P / prod_i (1 - q^{d_i}) with deg P <= N = sum_i (d_i - 1),
    so P prod_i (1 - q^{e_i}) = prod_i (1 - q^{d_i}) forces
    sum e_i <= sum d_i, and then two sides that agree up to q^(N + sum d_i)
    are equal.  The peel reads End that far (or to the truncation, if
    higher) and accepts only such a factorization.
    """
    top = sum(group.degrees)
    order = max(truncation, top + sum(d - 1 for d in group.degrees))
    eis = solve_eis_from_character(endo_character(group, rep, order),
                                   group.n, order)
    if eis.is_solution() and sum(eis.exponents) > top:
        return EisFactorization.no_solution()
    return eis


def _exterior_slices(group, rep, eis, sign, truncation):
    """t-slices of End(Delta(rep)) * prod_i (1 + t q^{sign * e_i}), each to
    the truncation order.  End is taken sum e_i further, so that the slices
    shifted down by q^{-e_i} still reach it."""
    if eis is None or not eis.is_solution():
        raise MissingEis("no generator-degree factorization available")
    slices = [endo_character(group, rep, truncation + sum(eis.exponents))]
    for e in eis.exponents:
        shifted = [s.shift(sign * e) for s in slices]
        slices = ([slices[0]] + [a + b for a, b in zip(slices[1:], shifted)]
                  + [shifted[-1]])
    return [s.truncate(truncation) for s in slices]


def tor_character(group, rep, eis, truncation=DEFAULT_TRUNCATION):
    """Self-intersection character, homology side, as t-slices (slice k is
    the coefficient of t^k):
    q^{-b} f(q) prod (1 + t q^{-e_i}) / (1 - q^{d_i})."""
    return _exterior_slices(group, rep, eis, -1, truncation)


def ext_character(group, rep, eis, truncation=DEFAULT_TRUNCATION):
    """Self-intersection character, cohomology side, as t-slices:
    q^{-b} f(q) prod (1 + t q^{+e_i}) / (1 - q^{d_i})."""
    return _exterior_slices(group, rep, eis, +1, truncation)


def dual_verma_pairing_expected(n):
    """Expected pairing against the dual standard module: one-dimensional
    homology in degree 0, one-dimensional cohomology in degree n."""
    return {"tor": [(0, 1)], "ext": [(n, 1)]}
