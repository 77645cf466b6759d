import json
import random
import re
import tempfile
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cherednik.cli import _load_group
from cherednik.cyclotomic import Cyc
from cherednik.errors import DegreeCapExceeded, InvalidElement, InvalidInput
from cherednik.groups import build_from_generators, build_group, build_zm
from cherednik.linalg import MONE, ONE, ZERO, _add_term
from cherednik.pbw import CherednikAlgebra, Parameter
from cherednik.verify import CM_GRID
from conftest import algebra

F = Fraction


def _reference_multiply(H, u, v):
    """The product kernel as it was before +-1 coefficients and the group
    law were special-cased, composing every group product afresh: the
    oracle for ``CherednikAlgebra.multiply``, terms and their order."""
    group = H.group

    def law(i, j):
        return group._meta_index[group._mult_fn(group.metas[i],
                                                group.metas[j])]

    out = {}
    for (a, w, b), cu in u.terms.items():
        for (c, w2, d), cv in v.terms.items():
            cuv = cu * cv
            for (e, s, f), t in H._yb_xc(b, c).items():
                coeff = cuv * t
                xpoly = H._act_x(w, e)
                g = law(law(w, s), w2)
                ypoly = H._act_y(group.inv(w2), f)
                for xm, cx in xpoly.items():
                    am = tuple(p + q for p, q in zip(a, xm))
                    cxx = coeff * cx
                    for ym, cy in ypoly.items():
                        bm = tuple(p + q for p, q in zip(d, ym))
                        _add_term(out, (am, g, bm), cxx * cy)
    return out


def _custom_group():
    """A group built from explicit matrices with cyclotomic entries: I_2(3)
    with the rotation diagonal, diag(zeta_3, zeta_3^2), and the swap."""
    z, zbar = Cyc.zeta(3), Cyc.zeta(3, 2)
    return build_from_generators(
        3, [[[z, ZERO], [ZERO, zbar]], [[ZERO, ONE], [ONE, ZERO]]],
        name="custom-i2-3")


@cache
def _json_algebra():
    """The same group of order 6, read through the ``@file`` JSON path."""
    spec = {"name": "json-i2-3", "conductor": 3,
            "generators": [[[[[1, 1, 1]], []], [[], [[2, 1, 1]]]],
                           [[[], [[0, 1, 1]]], [[[0, 1, 1]], []]]]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        group = _load_group(f"@{path}")
    return CherednikAlgebra(group, Parameter.generic(group, seed=2))


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
    assert (x * x * s).degree() == 2
    assert (y * s).degree() == -1
    assert (x + y).degree() is None
    assert H.one().degree() == 0


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
            assert prod.degree() == u.degree() + v.degree()


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


def test_cyclotomic_scalars_add_subtract_and_compare():
    H = algebra("I2:5", "generic")
    z = Cyc.zeta(H.group.conductor)
    x1, zs = H.x(0), H.scalar(z)
    assert x1 + z == z + x1 == x1 + zs
    assert x1 - z == x1 + H.scalar(-z)
    assert z - x1 == zs - x1 == -(x1 - z)
    assert zs == z and z == zs and zs != 2 * z
    assert (x1 + z) - z == x1


@pytest.mark.parametrize("use", [
    lambda H, c: H.x(0) + c, lambda H, c: c + H.x(0),
    lambda H, c: H.x(0) - c, lambda H, c: c - H.x(0),
    lambda H, c: H.x(0) * c, lambda H, c: c * H.x(0),
    lambda H, c: H.x(0) == c, lambda H, c: H.scalar(c),
    lambda H, c: H.monomial((1, 0), 0, (0, 0), coeff=c)],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul", "eq", "scalar",
         "monomial"])
def test_a_scalar_outside_the_field_of_the_group_is_refused(use):
    # zeta_7 is not in Q(zeta_10); stored as it was, x1 + zeta_7 printed
    # z*1+x1, which reads back as zeta_10
    H = algebra("I2:5", "generic")
    with pytest.raises(InvalidElement, match=re.escape(
            "Q(zeta_7) is not in Q(zeta_10): conductor 7 does not divide "
            "the group's 10")):
        use(H, Cyc.zeta(7))


def test_a_scalar_of_a_subfield_is_read_in_the_field_of_the_group():
    # zeta_5 = zeta_10^2: stored as it was, it printed z*1
    H = algebra("I2:5", "generic")
    for elt in (H.scalar(Cyc.zeta(5)), H.one() * Cyc.zeta(5),
                Cyc.zeta(5) * H.one(), H.zero() + Cyc.zeta(5),
                H.monomial((0, 0), H.group._identity, (0, 0),
                           coeff=Cyc.zeta(5))):
        (value,) = elt.terms.values()
        assert value.n == 10 and value == Cyc.zeta(10, 2)
        assert str(elt) == "z^2*1" and H.parse(str(elt)) == elt


def test_a_parameter_outside_the_field_of_the_group_is_refused():
    g = build_group("I2:5")
    labels = g.reflection_class_labels
    with pytest.raises(InvalidInput, match=re.escape(
            "Q(zeta_7) is not in Q(zeta_10)")):
        Parameter(g, dict.fromkeys(labels, Cyc.zeta(7)))
    par = Parameter(g, dict.fromkeys(labels, Cyc.zeta(5)))
    assert all(v.n == 10 and v == Cyc.zeta(10, 2)
               for v in par.values.values())


def test_a_constant_parameter_reads_its_value_in_the_field_of_the_group():
    # Parameter.constant once ran every value through Fraction, so a Cyc
    # raised a bare TypeError
    g = build_group("I2:5")
    for value, power in ((Cyc.zeta(10), 1), (Cyc.zeta(5), 2)):
        par = Parameter.constant(g, value)
        assert all(v.n == 10 and v == Cyc.zeta(10, power)
                   for v in par.values.values())
    assert Parameter.constant(g, 3).values == dict.fromkeys(
        g.reflection_class_labels, F(3))
    with pytest.raises(InvalidInput, match=re.escape(
            "Q(zeta_7) is not in Q(zeta_10)")):
        Parameter.constant(g, Cyc.zeta(7))


@pytest.mark.parametrize("make", [
    lambda g: Parameter(g, dict.fromkeys(g.reflection_class_labels, 0.5)),
    lambda g: Parameter.constant(g, 0.5)], ids=["init", "constant"])
def test_a_parameter_that_is_not_exact_is_refused(make):
    with pytest.raises(InvalidInput, match=re.escape(
            "scalar 0.5 is not exact")):
        make(build_group("I2:5"))


@pytest.mark.parametrize("use", [
    lambda H, c: H.x(0) + c, lambda H, c: c + H.x(0),
    lambda H, c: H.x(0) - c, lambda H, c: c - H.x(0),
    lambda H, c: H.x(0) * c, lambda H, c: c * H.x(0),
    lambda H, c: H.scalar(c),
    lambda H, c: H.monomial((1, 0), 0, (0, 0), coeff=c)],
    ids=["add", "radd", "sub", "rsub", "mul", "rmul", "scalar", "monomial"])
def test_a_scalar_that_is_not_exact_is_refused(use):
    # a float once became a float coefficient, and x1 + 0.5 raised a stray
    # AttributeError
    H = algebra("I2:5", "generic")
    with pytest.raises(InvalidElement, match=re.escape(
            "scalar 0.5 is not exact")):
        use(H, 0.5)
    assert H.x(0) != 0.5


@pytest.mark.parametrize("k", [1.5, "2", F(2), None])
def test_power_refuses_a_non_integer_exponent(k):
    H = algebra("I2:5", "generic")
    with pytest.raises(InvalidElement, match=re.escape(
            f"power {k!r} of an algebra element is not an integer")):
        H.x(0) ** k


def test_a_product_whose_irrational_parts_cancel_stores_a_fraction():
    H = algebra("I2:5", "generic")
    z = Cyc.zeta(H.group.conductor)
    one, s = H.group._identity, H.group.generators["s"]
    key = ((0, 0), one, (0, 0))
    # z * z^-1, one numerator product
    prod = H.scalar(z) * H.scalar(z.inverse())
    assert list(prod.terms) == [key]
    assert type(prod.terms[key]) is Fraction and prod.terms[key] == 1
    # (z + s)(1 + (1 - z) s): z, then (1 - z) s^2, at the identity
    u = H.scalar(z) + H.grp(s)
    v = H.one() + (1 - z) * H.grp(s)
    prod = u * v
    assert list(prod.terms.items()) == list(
        _reference_multiply(H, u, v).items())
    assert type(prod.terms[key]) is Fraction and prod.terms[key] == 1
    assert isinstance(prod.terms[((0, 0), s, (0, 0))], Cyc)


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


def test_parse_round_trip_of_printed_roots_of_unity_past_the_power_cap():
    # I2:29 has conductor 58 and phi(58) = 28, so Cyc values print z^e for
    # e up to 27, above twice the degree cap
    H = algebra("I2:29", "generic")
    zeta = Cyc.zeta(H.group.conductor)
    assert H.parse("z^25") == H.scalar(zeta ** 25)
    assert H.parse("z^116") == H.one()
    el = H.y(0) * H.x(1)
    assert "z^27" in str(el)
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


def test_parse_refuses_a_zero_denominator_or_a_power_past_twice_the_cap():
    H = algebra("Zm:2", "1")
    for text in ("1/0", "x1 - 3/0*y1", "w1^25", "e^25", "1/" + "9" * 5000,
                 "e^" + "9" * 5000):
        with pytest.raises(InvalidElement):
            H.parse(text)
    # up to twice the cap a power parses; a product that must be
    # straightened still meets the per-factor cap
    assert H.parse("w1^24") == H.one()
    el = H.parse("x1^12*x1")
    assert str(el) == "x1^13" and H.parse(str(el)) == el
    with pytest.raises(InvalidElement):
        H.parse("x1^25")
    with pytest.raises(DegreeCapExceeded):
        H.parse("y1*x1^14")


def test_parse_reads_back_printed_terms_past_the_degree_cap():
    # a power of a bare variable is one monomial, and factors already in PBW
    # order (x-part, group element, y-part) are joined without straightening
    H = algebra("Zm:2", "1")
    w1 = H.grp(1)
    for el in (H.x(0, 12) * H.x(0, 12), (H.x(0, 12) * w1) * H.x(0, 12),
               H.y(0, 12) * H.y(0, 12), w1 * H.y(0, 12) * H.y(0, 12),
               H.monomial((24,), 1, (12,), F(-3, 2))):
        text = str(el)
        assert H.parse(text) == el, text
    assert str(H.x(0, 12) * H.x(0, 12)) == "x1^24"
    assert str((H.x(0, 12) * w1) * H.x(0, 12)) == "x1^24*w1"
    # on a rank-2 group the x-part prints as a product of powers
    G = algebra("I2:4", "1")
    el = G.monomial((13, 12), 3, (0, 14), F(5))
    assert G.parse(str(el)) == el
    # the join is the product wherever both are defined
    rng = random.Random(5)
    for _ in range(20):
        u, v = random_element(G, rng), random_element(G, rng)
        assert G.parse(f"({u})*({v})") == u * v


def test_symmetrizer_is_idempotent():
    H = algebra("Sn:3:reduced", "generic")
    e = H.symmetrizer()
    assert e * e == e


# ---- the product kernel against its reference ------------------------------------

def _scalars(H):
    """Coefficients for the kernel tests: the shared ONE and MONE, integers,
    denominators 2, 3 and 6 and, over a cyclotomic field, non-rational
    values with denominators 1, 2, 3 and 6."""
    out = [ONE, MONE, F(-3, 2), F(5), F(2, 3), F(-1, 6)]
    N = H.group.conductor
    if N > 2:
        out += [Cyc.zeta(N), Cyc.zeta(N) + F(1, 3),
                2 * Cyc.zeta(N, 2) - F(1, 2), F(5, 6) * Cyc.zeta(N, N - 1)]
    return out


def _reappearing_pair(H, a, d, g, h, alpha, beta, delta, gamma, zeta):
    """u = x^a (alpha + beta g + gamma h) and v = (delta + eps g + zeta k)
    y^d, with k = h^{-1} g and eps = -beta delta / alpha, for group elements
    g and h with 1, g, h distinct.  In the kernel's order the key x^a g y^d
    gets alpha eps and then beta delta, which sum to 0, so it is dropped;
    the pair (h, k) brings it back last."""
    group = H.group
    one, mult = group._identity, group.mult
    k = mult(group._inverse[h], g)
    eps = -beta * delta / alpha
    zero = (0,) * H.n
    u = (H.monomial(a, one, zero, alpha) + H.monomial(a, g, zero, beta)
         + H.monomial(a, h, zero, gamma))
    v = (H.monomial(zero, one, d, delta) + H.monomial(zero, g, d, eps)
         + H.monomial(zero, k, d, zeta))
    return u, v, (tuple(a), g, tuple(d))


def _kernel_element(H, rng, max_terms=3, max_deg=2):
    """Like ``random_element``, with the coefficients of ``_scalars``."""
    scalars = _scalars(H)
    out = H.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        a = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        b = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        out = out + H.monomial(a, rng.randrange(H.group.order), b,
                               rng.choice(scalars))
    return out


def _kernel_cases():
    custom = _custom_group()
    return [algebra("Zm:5", "generic"), algebra("Sn:4:reduced", "generic"),
            algebra("Sn:4:reduced", "zero"), algebra("I2:5", "generic"),
            CherednikAlgebra(custom, Parameter.generic(custom, seed=1))]


@pytest.mark.parametrize("case", range(5))
def test_multiply_matches_reference_kernel(case):
    H = _kernel_cases()[case]
    rng = random.Random(100 + case)
    for _ in range(12):
        u, v = _kernel_element(H, rng), _kernel_element(H, rng)
        assert list((u * v).terms.items()) == list(
            _reference_multiply(H, u, v).items())
    scalars = _scalars(H)
    others = [w for w in range(H.group.order) if w != H.group._identity]
    for _ in range(6):
        exps = [tuple(rng.randrange(0, 2) for _ in range(H.n))
                for _ in range(2)]
        u, v, key = _reappearing_pair(
            H, *exps, *rng.sample(others, 2),
            *(rng.choice(scalars) for _ in range(5)))
        uv = list((u * v).terms.items())
        assert uv == list(_reference_multiply(H, u, v).items())
        assert uv[-1][0] == key


@pytest.mark.parametrize("spec", CM_GRID + ("Sn:4:reduced",))
def test_memoized_group_law(spec):
    group = build_group(spec)
    pairs = [(i, j) for i in range(group.order) for j in range(group.order)]
    # products are composed on request, not tabulated up front
    assert len(group._products) < len(pairs) or group.order == 1
    for _ in range(2):      # composing, then reading the memo
        for i, j in pairs:
            assert group.mult(i, j) == group._meta_index[group._mult_fn(
                group.metas[i], group.metas[j])]


# ---- properties over a custom JSON group and a built-in family ------------------

def _element_strategy(H, max_exp=2):
    scalar = st.sampled_from(_scalars(H))
    exps = st.tuples(*[st.integers(0, max_exp)] * H.n)
    term = st.tuples(exps, st.integers(0, H.group.order - 1), exps, scalar)
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: sum((H.monomial(a, w, b, c) for a, w, b, c in terms),
                          H.zero()))


def _pair_strategy(H):
    """Two independent elements, or a ``_reappearing_pair``."""
    scalar = st.sampled_from(_scalars(H))
    exps = st.tuples(*[st.integers(0, 1)] * H.n)
    others = [w for w in range(H.group.order) if w != H.group._identity]
    reappearing = st.tuples(
        exps, exps, st.permutations(others).map(lambda p: p[:2]),
        st.tuples(*[scalar] * 5)).map(
        lambda t: _reappearing_pair(H, t[0], t[1], *t[2], *t[3])[:2])
    return st.one_of(st.tuples(_element_strategy(H), _element_strategy(H)),
                     reappearing)


def _property_algebras():
    return [_json_algebra(), algebra("I2:5", "generic")]


@pytest.mark.parametrize("case", range(2))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_property_associativity(case, data):
    H = _property_algebras()[case]
    # exponents up to 1 keep (u * v) within the default degree cap
    u, v, w = (data.draw(_element_strategy(H, max_exp=1)) for _ in range(3))
    assert (u * v) * w == u * (v * w)


@pytest.mark.parametrize("case", range(2))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_reference_kernel(case, data):
    H = _property_algebras()[case]
    u, v = data.draw(_pair_strategy(H))
    assert list((u * v).terms.items()) == list(
        _reference_multiply(H, u, v).items())


@pytest.mark.parametrize("case", range(2))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_parse_round_trip(case, data):
    H = _property_algebras()[case]
    u = data.draw(_element_strategy(H))
    assert H.parse(str(u)) == u


@pytest.mark.parametrize("spec", ["Sn:3:reduced", "I2:5"])
def test_elements_built_from_ints_keep_canonical_coefficients(spec):
    # sparse maps store a key's first value as given, so every entry point
    # must hand them canonical scalars: a Fraction, or a Cyc when irrational
    H = algebra(spec, "generic")
    w = H.group.order - 1
    built = [H.monomial((1,) + (0,) * (H.n - 1), w, (0,) * H.n, coeff=3),
             H.grp(w), H.grp(w) * 2, 2 * H.x(0) + 1,
             H.parse("2*x1*y1 - 3*w1 + 4"), H.parse("y1*x1^2 + 2")]
    built.append(built[0] * built[-1] + built[4] - 5)
    for elt in built:
        assert elt.terms
        assert all(type(c) in (Fraction, Cyc) for c in elt.terms.values()), \
            elt.terms
