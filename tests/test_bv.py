import random
from fractions import Fraction

import pytest

from cherednik import bv
from cherednik.bv import (CONORMAL, NORMAL, ExteriorElement,
                          TruncatedPolyModel, bv_delta,
                          bv_delta_conormal, bv_delta_normal,
                          check_bracket_axioms, check_bv_seven_term,
                          gerstenhaber_bracket, koszul_homology,
                          virtual_homology)
from cherednik.errors import InvalidInput, NotRegularDetected, SideMismatch

F = Fraction


def conormal_fn(model, poly):
    return model.function(CONORMAL, poly)


def normal_fn(model, poly):
    return model.function(NORMAL, poly)


# ---- the degree-lowering differential on the conormal side -----------------------

def test_delta_conormal_degree_zero_vanishes():
    m = TruncatedPolyModel(1, 6)
    f = conormal_fn(m, {(3,): F(2), (0,): F(1)})
    assert not bv_delta_conormal(m, f)


def test_delta_conormal_x_dy():
    m = TruncatedPolyModel(1, 6)
    x = conormal_fn(m, {(1,): F(1)})
    dy = m.generator(CONORMAL, 0)
    out = bv_delta_conormal(m, x * dy)
    # fixed sign convention: i_P(dx ^ dy) = -1
    assert out == conormal_fn(m, {(0,): F(-1)})


def test_delta_conormal_constant_two_form():
    m = TruncatedPolyModel(2, 6)
    dy1 = m.generator(CONORMAL, 0)
    dy2 = m.generator(CONORMAL, 1)
    assert not bv_delta_conormal(m, dy1 * dy2)


def test_delta_conormal_drops_both_degrees():
    m = TruncatedPolyModel(2, 8)
    el = m.element(CONORMAL, {((2, 1), (0, 1)): F(1)})
    out = bv_delta_conormal(m, el)
    assert out.exterior_degree() == 1
    assert out.poly_degree() == 2


# ---- the Schouten differential on the normal side ----------------------------------

def test_delta_normal_constant_polyvector():
    m = TruncatedPolyModel(1, 6)
    assert not bv_delta_normal(m, m.generator(NORMAL, 0))


def test_delta_normal_function():
    m = TruncatedPolyModel(1, 6)
    x = normal_fn(m, {(1,): F(1)})
    out = bv_delta_normal(m, x)
    # [P, x] = -d/dy under the fixed convention; recorded exact value
    assert out == m.element(NORMAL, {((0,), (0,)): F(-1)})


def test_delta_normal_x_dy_is_zero():
    # the Schouten bracket [P, x d/dy] vanishes: the only position
    # derivative pairs theta_y with theta_y
    m = TruncatedPolyModel(1, 6)
    x = normal_fn(m, {(1,): F(1)})
    Dy = m.generator(NORMAL, 0)
    assert not bv_delta_normal(m, x * Dy)


def test_delta_normal_is_derivation():
    m = TruncatedPolyModel(2, 8)
    rng = random.Random(3)
    for _ in range(20):
        a = m.random_element(NORMAL, rng, exterior_degree=rng.randrange(0, 3),
                             max_poly_degree=2)
        b = m.random_element(NORMAL, rng, exterior_degree=rng.randrange(0, 3),
                             max_poly_degree=2)
        da = a.exterior_degree()
        lhs = bv_delta_normal(m, a * b)
        rhs = bv_delta_normal(m, a) * b + \
            (a * bv_delta_normal(m, b)).scale(-1 if da % 2 else 1)
        assert lhs == rhs


# ---- square zero and the seven-term identity ------------------------------------------

@pytest.mark.parametrize("n,trunc", [(1, 4), (1, 8), (2, 6), (3, 6)])
def test_delta_squares_to_zero(n, trunc):
    m = TruncatedPolyModel(n, trunc)
    rng = random.Random(11)
    for i in range(30):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a = m.random_element(side, rng)
        assert not bv_delta(m, bv_delta(m, a))


@pytest.mark.parametrize("n,trunc", [(1, 6), (2, 6), (3, 6)])
def test_seven_term_identity(n, trunc):
    m = TruncatedPolyModel(n, trunc)
    rng = random.Random(7)
    for i in range(30):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a, b, c = (m.random_element(side, rng,
                                    exterior_degree=rng.randrange(0, n + 1))
                   for _ in range(3))
        assert check_bv_seven_term(m, a, b, c)


def test_seven_term_trivial_inputs():
    m = TruncatedPolyModel(2, 6)
    one = conormal_fn(m, {(0, 0): F(1)})
    assert check_bv_seven_term(m, one, one, one)


def test_seven_term_negative_control():
    m = TruncatedPolyModel(2, 6)
    rng = random.Random(5)

    def corrupted(e):
        return bv_delta(m, e) + e

    a = m.random_element(CONORMAL, rng, exterior_degree=1)
    b = m.random_element(CONORMAL, rng, exterior_degree=1)
    c = m.random_element(CONORMAL, rng, exterior_degree=0)
    assert not check_bv_seven_term(m, a, b, c, delta=corrupted)


# ---- the odd bracket ---------------------------------------------------------------------

def test_bracket_with_unit_vanishes():
    m = TruncatedPolyModel(2, 6)
    one = conormal_fn(m, {(0, 0): F(1)})
    rng = random.Random(1)
    a = m.random_element(CONORMAL, rng, exterior_degree=2)
    assert not gerstenhaber_bracket(m, one, a)
    assert not gerstenhaber_bracket(m, a, one)


def test_bracket_degree_zero_pair():
    # two functions of x only: the pairing along the Lagrangian vanishes
    m = TruncatedPolyModel(2, 8)
    f = conormal_fn(m, {(2, 0): F(1)})
    g = conormal_fn(m, {(0, 3): F(1)})
    assert not gerstenhaber_bracket(m, f, g)


def test_bracket_is_nontrivial_on_conormal():
    m = TruncatedPolyModel(2, 8)
    a = m.element(CONORMAL, {((0, 2), (0,)): F(1)})   # x2^2 dy1
    b = m.element(CONORMAL, {((1, 0), (1,)): F(1)})   # x1 dy2
    assert gerstenhaber_bracket(m, a, b)


def test_bracket_trivial_on_normal_side():
    # the normal-side differential is a derivation, so its bracket vanishes
    m = TruncatedPolyModel(2, 6)
    rng = random.Random(9)
    for _ in range(10):
        a = m.random_element(NORMAL, rng, exterior_degree=rng.randrange(0, 3))
        b = m.random_element(NORMAL, rng, exterior_degree=rng.randrange(0, 3))
        assert not gerstenhaber_bracket(m, a, b)


@pytest.mark.parametrize("n,trunc", [(1, 6), (2, 6), (3, 6)])
def test_bracket_axioms(n, trunc):
    m = TruncatedPolyModel(n, trunc)
    rng = random.Random(13)
    for i in range(30):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a, b, c = (m.random_element(side, rng,
                                    exterior_degree=rng.randrange(0, n + 1))
                   for _ in range(3))
        assert check_bracket_axioms(m, a, b, c)


def test_side_mismatch():
    m = TruncatedPolyModel(1, 4)
    a = m.generator(CONORMAL, 0)
    b = m.generator(NORMAL, 0)
    with pytest.raises(SideMismatch):
        gerstenhaber_bracket(m, a, b)
    with pytest.raises(SideMismatch):
        a * b


# ---- virtual homology -----------------------------------------------------------------------

@pytest.mark.parametrize("trunc", [4, 6, 8])
def test_virtual_homology_n1_stable(trunc):
    m = TruncatedPolyModel(1, trunc)
    rep_c = virtual_homology(m, CONORMAL)
    assert rep_c["total"] == 1
    assert rep_c["observed_degree"] == 1
    rep_n = virtual_homology(m, NORMAL)
    assert rep_n["total"] == 1
    assert rep_n["observed_degree"] == 0


@pytest.mark.parametrize("n,trunc", [(2, 6), (3, 6)])
def test_virtual_homology_higher_rank(n, trunc):
    m = TruncatedPolyModel(n, trunc)
    rep_c = virtual_homology(m, CONORMAL)
    rep_n = virtual_homology(m, NORMAL)
    assert rep_c["total"] == 1 and rep_c["observed_degree"] == n
    assert rep_n["total"] == 1 and rep_n["observed_degree"] == 0


# ---- Koszul homology -------------------------------------------------------------------------

def test_koszul_regular_sequence():
    # z = (y) acting on functions of the y-axis: C in homological degree 0
    rep = koszul_homology(1, 6, [{(0, 1): F(1)}], vanishing_vars=[0])
    assert rep["homology"] == {0: 1, 1: 0}
    assert rep["regular"]
    assert rep["cohomology_reindexed"] == {1: 1, 0: 0}


def test_koszul_transverse_lagrangians():
    for n in (1, 2, 3):
        seq = []
        for i in range(n):
            e = [0] * (2 * n)
            e[n + i] = 1
            seq.append({tuple(e): F(1)})
        rep = koszul_homology(n, 6, seq, vanishing_vars=list(range(n)))
        assert rep["homology"][0] == 1
        assert all(rep["homology"][r] == 0 for r in range(1, n + 1))
        assert rep["cohomology_reindexed"][n] == 1


def test_koszul_zero_divisor_reports_honestly():
    # z = (x) on functions of y: x acts as zero, higher homology appears
    rep = koszul_homology(1, 6, [{(1, 0): F(1)}], vanishing_vars=[0])
    assert not rep["regular"]
    assert rep["homology"][1] > 0
    with pytest.raises(NotRegularDetected):
        koszul_homology(1, 6, [{(1, 0): F(1)}], vanishing_vars=[0],
                        claimed_regular=True)


def test_koszul_non_coordinate_regular_element():
    # z = x + y acts on functions of y as multiplication by y: still regular
    rep = koszul_homology(1, 6, [{(1, 0): F(1), (0, 1): F(1)}],
                          vanishing_vars=[0])
    assert rep["regular"]
    assert rep["homology"][0] == 1


def test_koszul_euler_characteristic():
    for n, vanish, seq in (
        (1, [0], [{(0, 1): F(1)}]),
        (2, [0, 1], [{(0, 0, 1, 0): F(1)}, {(0, 0, 0, 1): F(1)}]),
    ):
        rep = koszul_homology(n, 5, seq, vanishing_vars=vanish)
        assert rep["euler_chain"] == rep["euler_homology"]


def test_truncation_floor():
    with pytest.raises(ValueError):
        TruncatedPolyModel(1, 1)


@pytest.mark.parametrize("call", [
    lambda: TruncatedPolyModel(0, 4),
    lambda: bv.bv_check(0, 4, 1, 0),
    lambda: bv.bv_check(2, 4, -3, 0),
], ids=["model-rank-0", "check-rank-0", "check-negative-samples"])
def test_library_floors(call):
    with pytest.raises(InvalidInput):
        call()


# ---- the pass condition of bv_check ---------------------------------------------

def test_bv_check_fails_on_a_squared_coordinate(monkeypatch):
    # (y1^2, y2) is still regular, but H_0 = C[y]/(y1^2, y2) has dimension 2
    coordinates = bv.coordinate_sequence

    def squared(n):
        seq = coordinates(n)
        seq[0] = {tuple(2 * k for k in e): c for e, c in seq[0].items()}
        return seq

    monkeypatch.setattr(bv, "coordinate_sequence", squared)
    report = bv.bv_check(2, 4, samples=4, seed=0)
    assert report["koszul"]["homology"][0] == 2
    assert report["koszul"]["regular"]
    assert not report["checks_pass"]


def test_bv_check_fails_on_a_zero_delta(monkeypatch):
    # every identity holds for delta = 0, but no chain is a boundary
    monkeypatch.setattr(bv, "bv_delta", lambda model, elt: ExteriorElement(
        model, elt.side, {}))
    report = bv.bv_check(2, 4, samples=4, seed=0)
    assert (report["square_zero_failures"], report["seven_term_failures"],
            report["bracket_axiom_failures"]) == (0, 0, 0)
    assert [report["virtual_homology"][side]["total"]
            for side in (CONORMAL, NORMAL)] == [40, 40]
    assert not report["checks_pass"]


# ---- integer structure constants and checked input ---------------------------------

def test_boundaries_products_and_samples_keep_int_coefficients():
    m = TruncatedPolyModel(3, 8)
    rng = random.Random(4)
    for i in range(20):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a, b = (m.random_element(side, rng,
                                 exterior_degree=rng.randrange(0, 4))
                for _ in range(2))
        for elt in (a, b, a * b, bv_delta(m, a), bv_delta(m, a * b),
                    gerstenhaber_bracket(m, a, b), a - b.scale(-2)):
            assert all(type(c) is int for c in elt.terms.values()), elt
        # the same element with Fraction coefficients is equal, and so are
        # its boundary and products
        twin = a.scale(F(3, 3))
        halved = a.scale(F(1, 2))
        assert twin == a and bv_delta(m, twin) == bv_delta(m, a)
        assert halved.scale(2) == a and halved * b == (a * b).scale(F(1, 2))
        assert bv_delta(m, halved) == bv_delta(m, a).scale(F(1, 2))


@pytest.mark.parametrize("build", [
    lambda m: m.element(CONORMAL, {((1, 0), (1, 0)): 1}),
    lambda m: m.element(CONORMAL, {((0, 0), (0, 0)): 1}),
    lambda m: m.element(NORMAL, {((1,), (0,)): 1}),
    lambda m: m.element(CONORMAL, {((-1, 2), ()): 1}),
    lambda m: m.element(NORMAL, {((0, 0), (2,)): 1}),
    lambda m: m.element(CONORMAL, {((0, 0), (-1,)): 1}),
    lambda m: m.element(CONORMAL, {((0, 0), (0,)): 0.5}),
    lambda m: m.function(NORMAL, {(1, 0, 0): 1}),
    lambda m: m.function(CONORMAL, {(0, -1): 1}),
    lambda m: m.generator(CONORMAL, 2),
], ids=["unsorted-indices", "repeated-index", "short-exponents",
        "negative-exponent", "index-past-n", "negative-index",
        "float-coefficient", "long-exponents", "function-negative",
        "generator-past-n"])
def test_malformed_terms_are_refused(build):
    with pytest.raises(InvalidInput):
        build(TruncatedPolyModel(2, 6))


def test_sorted_terms_still_cancel():
    m = TruncatedPolyModel(2, 6)
    x1 = m.function(CONORMAL, {(1, 0): 1})
    dy1, dy2 = m.generator(CONORMAL, 0), m.generator(CONORMAL, 1)
    assert not x1 * dy2 * dy1 + x1 * dy1 * dy2
    assert not dy1 * dy1
    assert m.element(CONORMAL, {((1, 0), (0, 1)): F(1, 2)}) == \
        (x1 * dy1 * dy2).scale(F(1, 2))


def test_ring_operations_store_canonical_terms():
    # results are stored as built, so each must already be what the
    # constructor would keep: tuple keys within the truncation, no zeros
    m = TruncatedPolyModel(3, 6)
    rng = random.Random(7)
    for i in range(30):
        side = CONORMAL if i % 2 == 0 else NORMAL
        a, b = (m.random_element(side, rng, max_poly_degree=4)
                for _ in range(2))
        for elt in (a + b, a - b, -a, a.scale(3), a.scale(F(1, 2)),
                    a.scale(0), a * b, bv_delta(m, a), bv_delta(m, a * b),
                    a - a):
            assert ExteriorElement(m, side, elt.terms).terms == elt.terms
            assert all(type(k) is tuple and type(e) is tuple
                       and type(s) is tuple and sum(e) <= m.trunc and c
                       for k, c in elt.terms.items() for e, s in (k,))
    assert not a.scale(0).terms and not (a - a).terms
