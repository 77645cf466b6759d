import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cherednik.cyclotomic import Cyc, IntCyc, cyclotomic_polynomial, euler_phi
from cherednik.linalg import solve

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_zeta_power_identity(n):
    z = Cyc.zeta(n)
    assert z ** n == 1
    # the defining polynomial vanishes on zeta
    phi = cyclotomic_polynomial(n)
    total = Fraction(0)
    for k, c in enumerate(phi):
        total = total + c * z ** k
    assert total == 0 and type(total) is Fraction


def _rand_cyc(draw, n):
    phi = euler_phi(n)
    coeffs = draw(st.lists(
        st.tuples(st.integers(0, phi - 1),
                  st.fractions(min_value=-5, max_value=5, max_denominator=6)),
        min_size=0, max_size=3))
    return Cyc(n, {e: c for e, c in coeffs})


def assert_canonical(value):
    """A rational value is a Fraction; a Cyc always has a zeta^k term, k > 0."""
    if isinstance(value, Cyc):
        assert any(e for e in value.c), repr(value)
    else:
        assert type(value) is Fraction, repr(value)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8, 12]))
def test_field_axioms(data, n):
    a = _rand_cyc(data.draw, n)
    b = _rand_cyc(data.draw, n)
    c = _rand_cyc(data.draw, n)
    results = [a, a + b, a - b, -a, a * b, (a * b) * c, a * (b * c),
               (a + b) * c, a * c + b * c, a + 1, 2 - a, a * 3]
    assert results[5] == results[6]
    assert results[7] == results[8]
    assert a * b == b * a
    if a:
        results += [1 / a, b / a, a / Fraction(3, 2)]
        assert (1 / a) * a == 1
        assert (b / a) * a == b
    for value in results:
        assert_canonical(value)


def _over(num, den):
    """num / den canonicalized, for an int or IntCyc numerator."""
    return Fraction(num, den) if isinstance(num, int) else num.over(den)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8, 10, 12]))
def test_integral_numerators_agree_with_cyc_arithmetic(data, n):
    a, b, c = (_rand_cyc(data.draw, n) for _ in range(3))
    k = data.draw(st.integers(-6, 6))
    (na, da), (nb, db), (nc, dc) = ((v.numerator, v.denominator)
                                    for v in (a, b, c))
    for v, num, den in ((a, na, da), (b, nb, db)):
        assert type(den) is int and den > 0
        if isinstance(v, Cyc):
            assert type(num) is IntCyc and num.n == n
            assert (tuple(num.num), den) == (v.num, v.den)
        else:
            assert type(num) is int
    results = [
        (_over(na * nb, da * db), a * b),
        (_over(na * nb * nc, da * db * dc), (a * b) * c),
        (_over(na * db + nb * da, da * db), a + b),
        (_over(na * dc + nc * da, da * dc), a + c),
        (_over(k * na, da), k * a),
        (_over(na + k * da, da), a + k),
        (_over(k * da + na, da), k + a),
        (_over(na * nb * dc + nc * (da * db), da * db * dc), a * b + c),
    ]
    for got, want in results:
        assert got == want
        assert_canonical(got)
    # the kernel's zero test reads the numerator alone
    assert bool(na * nb) == bool(a * b)
    assert bool(na * db + nb * da) == bool(a + b)


def test_integral_numerators_refuse_other_scalars_and_conductors():
    num = Cyc.zeta(5).numerator
    assert num * 1 is num
    with pytest.raises(ValueError):
        num * Cyc.zeta(8).numerator
    with pytest.raises(ValueError):
        num + Cyc.zeta(8).numerator
    with pytest.raises(TypeError):
        num * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) + num


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 8, 12]), st.integers(-3, 5),
       st.lists(st.tuples(st.integers(-6, 30), st.integers(-3, 3),
                          st.integers(1, 4)), max_size=3))
def test_unary_results_and_constructors_stay_canonical(data, n, k, triples):
    a = _rand_cyc(data.draw, n)
    results = [a.conjugate(), Cyc.of(a, 2 * n), Cyc.zeta(n, k),
               Cyc.from_literals(n, triples)]
    if a or k >= 0:
        results.append(a ** k)
    for value in results:
        assert_canonical(value)
    assert a.conjugate().conjugate() == a
    assert Cyc.of(a, 2 * n) == a
    if isinstance(a, Cyc):
        assert Cyc.from_literals(n, a.literals()) == a


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4, 5, 6, 9]), st.sampled_from([2, 3, 4]))
def test_hash_agrees_with_eq_across_conductors(data, n, k):
    a = _rand_cyc(data.draw, n)
    b = Cyc.of(a, n * k)
    c = Cyc.of(a, n * (k + 1))   # neither of nk, n(k+1) divides the other
    assert a == b and b == c and c == b
    assert hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1


@pytest.mark.parametrize("n", [3, 4, 8])
def test_division_and_powers(n):
    a = Cyc(n, {0: Fraction(3, 2), 1: Fraction(-1, 3)})
    assert a / a == 1
    assert a ** -2 == (a * a).inverse()
    assert a ** 0 == 1


def test_canonical_reduction():
    # zeta_3^2 reduces to -1 - zeta_3
    z = Cyc.zeta(3)
    sq = z * z
    assert sq.c == {0: Fraction(-1), 1: Fraction(-1)}
    # zeta_4^2 = -1 is rational, so it is the Fraction -1
    sq = Cyc.zeta(4) ** 2
    assert type(sq) is Fraction and sq == -1


def test_rational_interop_and_hash():
    a = Cyc(6, {0: Fraction(2, 3)})
    assert type(a) is Fraction and a == Fraction(2, 3)
    # zeta_6 + zeta_6^5 = 1 comes back as a Fraction, hashing like one
    one = Cyc.zeta(6) + Cyc.zeta(6, 5)
    assert type(one) is Fraction and hash(one) == hash(1)
    assert Cyc.zeta(6) != Fraction(2, 3) and Fraction(2, 3) != Cyc.zeta(6)
    assert Fraction(1, 2) * Cyc.zeta(4) == Cyc(4, {1: Fraction(1, 2)})
    # Fraction / Cyc goes through the reflected division
    assert Fraction(1) / Cyc.zeta(4) == Cyc.zeta(4) ** 3


def test_conjugation_norm_is_rational():
    z = Cyc.zeta(5)
    a = 1 + z + z ** 3
    norm = a * a.conjugate()
    assert norm == norm.conjugate()


def test_literals_round_trip():
    a = Cyc(8, {1: Fraction(1, 2), 3: Fraction(-3)})
    lits = a.literals()
    assert Cyc.from_literals(8, lits) == a
    assert lits == [[1, 1, 2], [3, -3, 1]]
    # exponents at or above phi(8) reduce into the canonical range
    b = Cyc(8, {5: Fraction(1)})
    assert b.literals() == [[1, -1, 1]]


def test_from_literals_adds_repeated_exponents():
    assert Cyc.from_literals(4, [[1, 1, 1], [1, 1, 1]]) == 2 * Cyc.zeta(4)
    assert Cyc.from_literals(4, [[1, 1, 1], [5, 1, 2]]) == \
        Fraction(3, 2) * Cyc.zeta(4)
    assert Cyc.from_literals(4, [[1, 1, 1], [1, -1, 1], [0, 1, 3]]) == \
        Fraction(1, 3)


def test_cyclotomic_polynomial_returns_a_fresh_list():
    phi = cyclotomic_polynomial(12)
    phi[0] = Fraction(7)
    phi.append(Fraction(5))
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    a = Cyc.zeta(12) + 1
    assert a * a.inverse() == 1


def test_mixed_conductor_coercion():
    z3 = Cyc.zeta(3)
    z6 = Cyc.zeta(6)
    assert Cyc.of(z3, 6) == z6 ** 2
    with pytest.raises(ValueError):
        Cyc.of(z6, 3)


def _coords(value, n):
    """Rational coordinates over zeta^0 .. zeta^(phi-1)."""
    phi = euler_phi(n)
    if isinstance(value, Cyc):
        assert value.n == n
        return [value.c.get(e, Fraction(0)) for e in range(phi)]
    return [Fraction(value)] + [Fraction(0)] * (phi - 1)


def _times_zeta(vec, poly):
    """The companion matrix of the monic ``poly`` applied to ``vec``."""
    top = vec[-1]
    return [(vec[i - 1] if i else 0) - top * poly[i] for i in range(len(vec))]


def _by_companion(terms, vec, n):
    """sum over (e, v) of v * C^(e mod n) * vec, C the companion matrix of
    the n-th cyclotomic polynomial: no reduction table is involved."""
    poly = cyclotomic_polynomial(n)
    out = [Fraction(0)] * len(vec)
    for e, v in terms:
        w = vec
        for _ in range(e % n):
            w = _times_zeta(w, poly)
        out = [o + v * x for o, x in zip(out, w)]
    return out


def _assert_lowest_terms(value, n):
    if isinstance(value, Cyc):
        assert len(value.num) == euler_phi(n)
        assert all(type(v) is int for v in value.num)
        assert type(value.den) is int and value.den > 0
        assert math.gcd(value.den, *value.num) == 1


_TERMS = st.lists(st.tuples(st.integers(-20, 30),
                            st.fractions(min_value=-9, max_value=9,
                                         max_denominator=12)), max_size=8)


# for 5, 7 and 9, 2 phi(n) - 2 >= n, so a product wraps past zeta^n
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 5, 7, 9, 10, 12]), _TERMS, _TERMS)
def test_product_matches_companion_matrix(n, terms_a, terms_b):
    a = sum((Cyc(n, {e: v}) for e, v in terms_a), Fraction(0))
    b = sum((Cyc(n, {e: v}) for e, v in terms_b), Fraction(0))
    unit = [Fraction(1)] + [Fraction(0)] * (euler_phi(n) - 1)
    assert _coords(a, n) == _by_companion(terms_a, unit, n)
    assert _coords(b, n) == _by_companion(terms_b, unit, n)
    a_terms = list(enumerate(_coords(a, n)))
    for value in (a * b, b * a):
        assert _coords(value, n) == _by_companion(a_terms, _coords(b, n), n)
    for value in (a, b, a * b, a + b, a - b, -a, a * Fraction(3, 4)):
        _assert_lowest_terms(value, n)
        assert_canonical(value)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 8, 9, 10, 12, 15]), _TERMS)
def test_inverse_solves_the_multiplication_map(n, terms):
    a = sum((Cyc(n, {e: v}) for e, v in terms), Fraction(0))
    assume(isinstance(a, Cyc))
    inv = a.inverse()
    assert a * inv == 1 and inv * a == 1
    _assert_lowest_terms(inv, n)
    assert_canonical(inv)
    # column j of the matrix of b -> a * b is a * zeta^j, by the companion
    # matrix; the inverse's coordinates solve that system for the unit
    phi = euler_phi(n)
    a_terms = list(enumerate(_coords(a, n)))
    unit = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    cols = [_by_companion(a_terms, [Fraction(int(i == j)) for i in range(phi)],
                          n) for j in range(phi)]
    rows = [list(r) for r in zip(*cols)]
    assert solve(rows, unit) == _coords(inv, n)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 10, 12])
def test_pickle_and_deepcopy_round_trip(n):
    z = Cyc.zeta(n)
    for value in (z, Fraction(-2, 3) * z + 1, (z + 2) ** 3 / 7, z.inverse()):
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert type(back) is Cyc and back == value
            assert hash(back) == hash(value)
            assert (back.num, back.den) == (value.num, value.den)
