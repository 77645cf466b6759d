import random
from fractions import Fraction

import pytest

from cherednik.cyclotomic import Cyc
from cherednik.errors import (CapExceeded, FieldExtensionNeeded, InvalidInput,
                              NotFactorizable, UnsupportedGroup)
from cherednik.groups import (_root, build_from_generators, build_i2, build_sn,
                              build_zm)
from cherednik.linalg import ONE, ZERO, mat_mul, rank
from cherednik.parabolic import make_context, reduced_endo_character
from cherednik.pbw import Parameter
from cherednik.restricted import baby_verma, build_restricted
from cherednik.series import GradedCharacter, b_invariant
from cherednik.verma import hook_identity_check
from conftest import group

F = Fraction


# ---- construction and orders -------------------------------------------------

def test_orders():
    assert build_zm(5).order == 5
    assert build_sn(4, "permutation").order == 24
    assert build_i2(6).order == 12
    assert build_zm(1).order == 1


def _quaternion_group():
    # nonabelian, not a reflection product
    from cherednik.cyclotomic import Cyc
    i = Cyc.zeta(4)
    gi = [[i, ZERO], [ZERO, -i]]
    gj = [[ZERO, -ONE], [ONE, ZERO]]
    return build_from_generators(4, [gi, gj], name="quat8")


@pytest.mark.parametrize("make", [
    lambda: build_zm(1), lambda: build_zm(5), lambda: build_i2(1),
    lambda: build_i2(6), lambda: build_sn(1), lambda: build_sn(4, "reduced"),
    _quaternion_group,
    lambda: build_sn(4, "permutation").stabilizer((F(1), F(1), F(2), F(2))),
], ids=["Zm:1", "Zm:5", "I2:1", "I2:6", "Sn:1", "Sn:4:reduced", "quat8",
        "Sn:4-stabilizer"])
def test_inverse_law(make):
    g = make()
    for i in range(g.order):
        assert g.mult(i, g.inv(i)) == g.identity
        assert g.mult(g.inv(i), i) == g.identity
        assert g.inv(g.inv(i)) == i


def test_reflection_class_labels_on_a_fresh_group():
    assert build_i2(4).reflection_class_labels == ["c0", "c1"]
    assert build_sn(3).reflection_class_labels == ["c0"]
    assert build_zm(1).reflection_class_labels == []


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        build_zm(721)
    with pytest.raises(CapExceeded):
        build_i2(400)


def test_zm3_reflection_data():
    g = group("Zm:3")
    assert len(g.reflections) == 2
    assert g.degrees == (3,)


def test_sn3_permutation_data():
    g = group("Sn:3:permutation")
    assert g.order == 6
    assert len(g.reflections) == 3
    assert g.degrees == (1, 2, 3)


def test_trivial_group():
    g = group("Zm:1")
    assert g.order == 1
    assert g.reflections == []
    assert g.degrees == (1,)
    assert [r.label for r in g.irreps] == ["triv"]


# ---- reflection normalization -----------------------------------------------

@pytest.mark.parametrize("spec", ["Zm:3", "Zm:4", "Sn:3:permutation",
                                  "Sn:3:reduced", "I2:3", "I2:4", "I2:5"])
def test_reflections_normalized(spec):
    g = group(spec)
    assert sum(d - 1 for d in g.degrees) == len(g.reflections)
    for r in g.reflections:
        assert r.pairing() == 2
        a = g.matrix(r.element)
        diff = [[a[i][j] - (ONE if i == j else ZERO) for j in range(g.n)]
                for i in range(g.n)]
        assert rank(diff, g.n) == 1


# ---- degrees via Molien factorization -----------------------------------------

def test_degrees_examples():
    assert build_zm(5).degrees == (5,)
    assert group("Sn:3:reduced").degrees == (2, 3)
    assert group("I2:4").degrees == (2, 4)
    assert group("Sn:4:permutation").degrees == (1, 2, 3, 4)


def test_degrees_not_factorizable():
    # Z_4 acting by a non-reflection representation: the scalar action of
    # order 4 on C^2 by multiplication with zeta_4 has no reflections
    from cherednik.cyclotomic import Cyc
    z = Cyc.zeta(4)
    gen = [[z, ZERO], [ZERO, z]]
    g = build_from_generators(4, [gen], name="scalar4")
    with pytest.raises(NotFactorizable):
        g.degrees



def _rank_root(a):
    """A nonzero column of A - 1 when A - 1 has rank 1, else None, read off
    the rank of the whole difference matrix."""
    n = len(a)
    diff = [[a[r][c] - (ONE if r == c else ZERO) for c in range(n)]
            for r in range(n)]
    if rank(diff, n) != 1:
        return None
    return next(col for col in zip(*diff) if any(col))


def _g42():
    # G(4, 1, 2): reflections of order 2 and 4, roots over Q(zeta_4)
    swap = [[ZERO, ONE], [ONE, ZERO]]
    turn = [[Cyc.zeta(4), ZERO], [ZERO, ONE]]
    return build_from_generators(4, [swap, turn], name="G(4,1,2)")


@pytest.mark.parametrize("make", [
    *(lambda m=m: build_zm(m) for m in range(2, 9)),
    *(lambda n=n, r=r: build_sn(n, r) for n in range(2, 6)
      for r in ("permutation", "reduced")),
    *(lambda m=m: build_i2(m) for m in range(3, 9)),
    _quaternion_group, _g42,
], ids=[*(f"Zm:{m}" for m in range(2, 9)),
        *(f"Sn:{n}:{r}" for n in range(2, 6)
          for r in ("permutation", "reduced")),
        *(f"I2:{m}" for m in range(3, 9)), "quat8", "G(4,1,2)"])
def test_root_agrees_with_the_rank_of_the_difference(make):
    g = make()
    found = 0
    for i in range(g.order):
        for a in (g.matrix(i), g.hstar_matrix(i)):
            root, oracle = _root(a), _rank_root(a)
            assert root == oracle, (g.name, i)
            assert root is None or (type(root) is tuple and list(
                map(type, root)) == list(map(type, oracle)))
            found += root is not None
    # each reflection gives a root and a coroot
    assert found == 2 * len(g.reflections)

# ---- irreducibles --------------------------------------------------------------

@pytest.mark.parametrize("spec", ["Zm:4", "Sn:3:permutation", "Sn:4:reduced",
                                  "I2:3", "I2:4", "I2:5"])
def test_irreps_sum_of_squares_and_homomorphism(spec):
    g = group(spec)
    assert sum(r.dim ** 2 for r in g.irreps) == g.order
    rng = random.Random(3)
    for rep in g.irreps:
        for _ in range(8):
            a = rng.randrange(g.order)
            b = rng.randrange(g.order)
            lhs = [list(r) for r in rep.matrix(g.mult(a, b))]
            rhs = mat_mul([list(r) for r in rep.matrix(a)],
                          [list(r) for r in rep.matrix(b)])
            assert lhs == rhs


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:permutation", "I2:4"])
def test_character_orthogonality(spec):
    g = group(spec)
    for r1 in g.irreps:
        for r2 in g.irreps:
            total = 0
            for cls in g.conjugacy_classes:
                total = total + len(cls) * r1.char(cls[0]) * r2.char(
                    g.inv(cls[0]))
            total = total * F(1, g.order)
            assert total == (1 if r1.label == r2.label else 0)
            assert g.multiplicity(r2, r1.character_vector()) == total


# ---- fake polynomials ------------------------------------------------------------

def test_fake_polynomial_examples():
    z3 = group("Zm:3")
    assert str(z3.fake_polynomial(z3.irrep("chi0"))) == "1"
    assert str(z3.fake_polynomial(z3.irrep("chi1"))) == "q"
    s3 = group("Sn:3:permutation")
    assert str(s3.fake_polynomial(s3.irrep((3,)))) == "1"
    assert str(s3.fake_polynomial(s3.irrep((2, 1)))) == "q+q^2"


@pytest.mark.parametrize("spec", ["Zm:3", "Zm:4", "Sn:3:permutation",
                                  "Sn:3:reduced", "I2:3", "I2:4"])
def test_fake_polynomial_against_graded_oracle(spec):
    """Independent oracle: decompose the coinvariant ring degree by degree."""
    g = group(spec)
    it = g.invariant_theory("x")
    for rep in g.irreps:
        assert g.fake_polynomial(rep).equals(it.graded_multiplicity(rep))


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:permutation", "I2:4"])
def test_fake_polynomial_normalization(spec):
    g = group(spec)
    for rep in g.irreps:
        f = g.fake_polynomial(rep)
        assert f.value_at_one() == rep.dim
        assert all(v > 0 and v.denominator == 1 for v in f.coeffs.values())


@pytest.mark.parametrize("spec", ["Zm:4", "Sn:3:permutation", "I2:3"])
def test_coinvariant_character_sum(spec):
    """sum_rep dim(rep) * fake(rep) = prod (1-q^{d_i}) / (1-q)^n."""
    g = group(spec)
    total = GradedCharacter.zero()
    for rep in g.irreps:
        total = total + g.fake_polynomial(rep).scale(rep.dim)
    expected = GradedCharacter.one()
    numer = GradedCharacter.one()
    for d in g.degrees:
        numer = numer * GradedCharacter({0: F(1), d: F(-1)})
    denom_inv = GradedCharacter.one(64)
    for _ in range(g.n):
        denom_inv = denom_inv * GradedCharacter.geometric(1, 64)
    expected = (numer.truncate(64) * denom_inv)
    assert total.truncate(64).equals(expected, up_to=32)


# ---- b-invariants -------------------------------------------------------------

def test_b_invariant_examples():
    assert b_invariant(GradedCharacter({0: F(1)})) == 0
    assert b_invariant(GradedCharacter({1: F(1), 2: F(1)})) == 1
    assert b_invariant(GradedCharacter({3: F(1)})) == 3
    z3 = group("Zm:3")
    assert [z3.b_invariant(z3.irrep(f"chi{j}")) for j in range(3)] == [0, 1, 2]


def test_b_invariant_zero_polynomial():
    from cherednik.errors import ZeroPolynomial
    with pytest.raises(ZeroPolynomial):
        b_invariant(GradedCharacter.zero())


# ---- duals -----------------------------------------------------------------------

def test_dual_rep_examples():
    s3 = group("Sn:3:permutation")
    for rep in s3.irreps:
        assert s3.dual_of(rep).label == rep.label   # rational characters
    z3 = group("Zm:3")
    assert z3.dual_of(z3.irrep("chi1")).label == "chi2"
    assert z3.dual_of(z3.irrep("chi0")).label == "chi0"
    # involution
    for g in (s3, z3, group("I2:4")):
        for rep in g.irreps:
            assert g.dual_of(g.dual_of(rep)).label == rep.label


# ---- stabilizers -------------------------------------------------------------------

def test_stabilizer_trivial():
    s3 = group("Sn:3:permutation")
    st = s3.stabilizer((F(1), F(2), F(3)))
    assert st.order == 1


def test_stabilizer_coordinate_swap():
    s3 = group("Sn:3:permutation")
    st = s3.stabilizer((F(1), F(1), F(0)))
    assert st.order == 2
    assert st.degrees == (1, 1, 2)
    # generated by the transposition swapping the two equal coordinates
    assert len(st.reflections) == 1


def test_stabilizer_origin_is_whole_group():
    for spec in ("Sn:3:permutation", "I2:4", "Zm:3"):
        g = group(spec)
        st = g.stabilizer((F(0),) * g.n)
        assert st.order == g.order


def test_stabilizer_young_product_irreps():
    s4 = build_sn(4, "permutation")
    st = s4.stabilizer((F(1), F(1), F(2), F(2)))
    assert st.order == 4
    labels = {r.label for r in st.irreps}
    assert labels == {((2,), (2,)), ((2,), (1, 1)),
                      ((1, 1), (2,)), ((1, 1), (1, 1))}


def test_ambient_reflection_classes():
    i24 = group("I2:4")
    st = i24.stabilizer((F(1), F(1)))
    assert st.order == 2
    (r,) = st.reflections
    assert st.ambient_reflection_class(r) in ("c0", "c1")


def test_unsupported_group_raises():
    g = _quaternion_group()
    assert g.order == 8
    with pytest.raises(UnsupportedGroup):
        g.irreps


def test_infinite_order_generator_hits_the_closure_cap():
    with pytest.raises(CapExceeded, match="group closure exceeds cap 720"):
        build_from_generators(1, [[[F(2)]]], name="infinite")


def test_custom_group_from_generators():
    # Z_2 as an explicit matrix group
    gen = [[F(-1)]]
    g = build_from_generators(1, [gen], name="explicit-z2")
    assert g.order == 2
    assert g.degrees == (2,)
    assert len(g.irreps) == 2


def _split_characters(g):
    """The characters of an abelian group by the old route: the primitive
    idempotents of its group algebra, e = (1/|G|) sum chi(g^-1) g, sorted
    as ``_abelian_irreps`` sorts them."""
    from cherednik.comalg import idempotents_of_commutative_algebra
    from cherednik.groups import _vec_sort_key
    n = g.order
    prods = [[[ONE if k == g.mult(i, j) else ZERO for k in range(n)]
              for j in range(n)] for i in range(n)]
    unit = [ONE if k == g.identity else ZERO for k in range(n)]
    chars = [tuple(n * e[g.inv(w)] for w in range(n))
             for e in idempotents_of_commutative_algebra(prods, unit,
                                                         g.conductor)]
    return sorted(chars, key=lambda chi: (any(v != 1 for v in chi),
                                          _vec_sort_key(chi)))


def _diagonal_klein():
    return build_from_generators(1, [[[F(-1), F(0)], [F(0), F(1)]],
                                     [[F(1), F(0)], [F(0), F(-1)]]])


@pytest.mark.parametrize("make", [
    lambda: group("Sn:4:permutation").stabilizer((F(1), F(1), F(0), F(0))),
    lambda: group("Sn:4:permutation").stabilizer((F(1), F(1), F(2), F(2))),
    lambda: group("I2:4").stabilizer((F(1), F(1))),
    _diagonal_klein, lambda: build_zm(5), lambda: build_zm(6),
    lambda: build_from_generators(4, [[[Cyc.zeta(4)]], [[F(-1)]]]),
    lambda: build_from_generators(3, [[[Cyc.zeta(3)]]])],
    ids=["stab-Sn:4-1100", "stab-Sn:4-1122", "stab-I2:4-11", "klein",
         "Zm:5", "Zm:6", "z4-two-generators", "z3-in-Q(zeta_3)"])
def test_abelian_characters_match_the_group_algebra_split(make):
    # the characters from the generators' roots of unity are those of the
    # group algebra's primitive idempotents, in the same order
    g = make()
    reps = g._abelian_irreps()
    assert [rep.label for rep in reps] == (
        ["triv"] + [f"chi{j}" for j in range(1, g.order)])
    assert [tuple(rep.char(w) for w in range(g.order))
            for rep in reps] == _split_characters(g)


def test_abelian_characters_outside_the_field_need_an_extension():
    # Z_3 as a rational rotation of the plane: its characters need zeta_3
    g = build_from_generators(1, [[[F(0), F(-1)], [F(1), F(-1)]]])
    with pytest.raises(FieldExtensionNeeded) as exc:
        g._abelian_irreps()
    assert exc.value.required_conductor == 3


@pytest.mark.parametrize("call", [
    lambda g: g.irrep("nope"),
    lambda g: build_restricted(g, Parameter.zero(g)).dim_e_simple(
        g.irrep("nope")),
    lambda g: baby_verma(g, Parameter.zero(g), "nope"),
    lambda g: hook_identity_check(g, (5,), 4),
    lambda g: reduced_endo_character(
        make_context(g, Parameter.zero(g), (F(1), F(1), F(0))), "nope", 4),
], ids=["irrep", "dim_e_simple", "baby_verma", "hook_identity_check",
        "reduced_endo_character"])
def test_unknown_irreducible_label_is_invalid_input(call):
    with pytest.raises(InvalidInput, match="no irreducible labeled"):
        call(group("Sn:3:permutation"))
