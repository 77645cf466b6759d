import random
from fractions import Fraction

import pytest

from cherednik.errors import DegreeCapExceeded, InvalidElement
from cherednik.groups import build_zm
from cherednik.pbw import CherednikAlgebra, Parameter, grading_degree
from conftest import algebra

F = Fraction


def random_element(H, rng, max_terms=3, max_deg=2):
    out = H.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        a = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        b = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        w = rng.randrange(H.group.order)
        coeff = F(rng.randrange(-4, 5))
        if coeff:
            out = out + H.monomial(a, w, b, coeff)
    return out


# ---- the defining commutator ----------------------------------------------------

def test_commutator_z2():
    H = algebra("Zm:2", "1")
    c = H.commutator_yx((F(1),), (F(1),))
    assert c == H.grp(1)


def test_commutator_vanishes_at_zero_parameter():
    H = algebra("Sn:3:permutation", "zero")
    assert not H.commutator_yx((F(1), F(0), F(0)), (F(0), F(1), F(0)))


def test_commutator_s3_two_transpositions():
    H = algebra("Sn:3:permutation", "1")
    c = H.commutator_yx((F(1), F(0), F(0)), (F(1), F(0), F(0)))
    moved = {H.group.metas[w] for (_a, w, _b) in c.terms}
    assert moved == {(1, 0, 2), (2, 1, 0)}   # the transpositions moving 1
    assert all(v == F(1, 2) for v in c.terms.values())


def test_commutator_scaling_invariance():
    """The commutator depends only on the normalized pairing, not on the
    individual scalings of the roots and coroots."""
    g = build_zm(2)
    par = Parameter.constant(g, 1)
    H = CherednikAlgebra(g, par)
    base = H.commutator_yx((F(1),), (F(1),))
    # rescale alpha by 5 and alpha_vee by 1/5: pairing is unchanged
    r = g.reflections[0]
    saved = (r.alpha, r.alpha_vee)
    try:
        r.alpha = tuple(F(5) * a for a in r.alpha)
        r.alpha_vee = tuple(F(1, 5) * a for a in r.alpha_vee)
        H2 = CherednikAlgebra(g, par)
        assert H2.commutator_yx((F(1),), (F(1),)).terms == base.terms
    finally:
        r.alpha, r.alpha_vee = saved


# ---- multiplication ---------------------------------------------------------------

def test_multiply_z2_defining_relation():
    H = algebra("Zm:2", "1")
    x, y, s = H.x(0), H.y(0), H.grp(1)
    assert y * x == x * y + s
    assert y * (x * x) == x * x * y
    v = x * y + s
    assert H.one() * v == v


def test_multiply_unit_law():
    H = algebra("I2:3", "generic")
    rng = random.Random(0)
    for _ in range(5):
        v = random_element(H, rng)
        assert H.one() * v == v
        assert v * H.one() == v


@pytest.mark.parametrize("spec,ctag", [
    ("Zm:2", "zero"), ("Zm:2", "generic"),
    ("Zm:3", "zero"), ("Zm:3", "generic"),
    ("Sn:2:permutation", "generic"),
    ("Sn:3:reduced", "zero"), ("Sn:3:reduced", "generic"),
    ("I2:3", "generic"),
])
def test_associativity(spec, ctag):
    H = algebra(spec, ctag)
    rng = random.Random(42)
    for _ in range(30):
        u, v, w = (random_element(H, rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced", "I2:4"])
def test_polynomial_parts_commute(spec):
    H = algebra(spec, "generic")
    for i in range(H.n):
        for j in range(H.n):
            assert H.x(i) * H.x(j) == H.x(j) * H.x(i)
            assert H.y(i) * H.y(j) == H.y(j) * H.y(i)


@pytest.mark.parametrize("spec", ["Zm:2", "Sn:3:reduced", "I2:3"])
def test_skew_group_oracle_at_zero(spec):
    H = algebra(spec, "zero")
    rng = random.Random(7)
    for _ in range(20):
        u, v = random_element(H, rng), random_element(H, rng)
        assert u * v == H.skew_multiply(u, v)


def test_grading():
    H = algebra("Zm:2", "1")
    x, y, s = H.x(0), H.y(0), H.grp(1)
    assert grading_degree(x * x * s) == 2
    assert grading_degree(y * s) == -1
    assert grading_degree(x + y) is None
    assert grading_degree(H.one()) == 0


@pytest.mark.parametrize("spec,ctag", [("Zm:2", "1"), ("Sn:3:reduced", "generic")])
def test_grading_multiplicative(spec, ctag):
    H = algebra(spec, ctag)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randrange(0, 2) for _ in range(H.n))
        b = tuple(rng.randrange(0, 2) for _ in range(H.n))
        u = H.monomial(a, rng.randrange(H.group.order), b)
        c = tuple(rng.randrange(0, 2) for _ in range(H.n))
        d = tuple(rng.randrange(0, 2) for _ in range(H.n))
        v = H.monomial(c, rng.randrange(H.group.order), d)
        prod = u * v
        if prod:
            assert grading_degree(prod) == u.degree() + v.degree()


def test_filtration_symbol_multiplicative():
    """Top y-degree symbols multiply through the skew product."""
    H = algebra("Sn:3:reduced", "generic")
    rng = random.Random(9)
    for _ in range(15):
        u, v = random_element(H, rng), random_element(H, rng)
        prod = u * v
        symbol_prod = H.skew_multiply(u.y_symbol(), v.y_symbol())
        if symbol_prod:
            assert prod.y_symbol() == symbol_prod


def test_degree_cap():
    g = build_zm(2)
    H = CherednikAlgebra(g, Parameter.constant(g, 1), degree_cap=3)
    big = H.monomial((4,), 0, (0,))
    with pytest.raises(DegreeCapExceeded):
        big * H.one()


# ---- parsing / printing -------------------------------------------------------------

def test_parse_examples():
    H = algebra("Sn:3:permutation", "1")
    el = H.parse("y1*x1^2 + 2*s12")
    assert el == H.y(0) * H.x(0) * H.x(0) + 2 * H.grp(H.group.generators["s12"])
    assert H.parse("1/2*x1 - x1") == H.x(0) * F(-1, 2)
    # parentheses, also around a whole expression and under a power
    assert H.parse("(x1)") == H.x(0)
    d = H.x(0) - H.y(0)
    assert H.parse("2*(x1 - y1)^2") == 2 * d * d


def test_parse_round_trip():
    H = algebra("I2:4", "generic")
    rng = random.Random(13)
    for _ in range(10):
        el = random_element(H, rng)
        assert H.parse(str(el)) == el
    # products at a cyclotomic parameter print zeta_N as z
    H = algebra("I2:5", "1")
    el = H.y(0) * H.x(1)
    assert "z" in str(el)
    assert H.parse(str(el)) == el


def test_parse_errors():
    H = algebra("Zm:3", "zero")
    with pytest.raises(ValueError):
        H.parse("q1 + 2")
    with pytest.raises(ValueError):
        H.parse("x1 +")
    for text in ("x1^", "(x1", "x1)", "x1 $"):
        with pytest.raises(InvalidElement):
            H.parse(text)
    with pytest.raises(InvalidElement):
        H.x(0) ** -1


def test_symmetrizer_is_idempotent():
    H = algebra("Sn:3:reduced", "generic")
    e = H.symmetrizer()
    assert e * e == e
