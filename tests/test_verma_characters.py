from fractions import Fraction

import pytest

from cherednik.errors import InvalidInput, MissingEis
from cherednik.series import (GradedCharacter, payload,
                              product_of_geometric)
from cherednik.verma import (EisFactorization, dual_verma_pairing_expected,
                             endo_character, ext_character, hook_identity_check,
                             hook_lengths, solve_eis,
                             solve_eis_from_character, tor_character,
                             verma_character)
from conftest import group

F = Fraction
T = 24


# ---- endomorphism-ring characters -----------------------------------------------

def test_endo_character_s3_standard():
    g = group("Sn:3:permutation")
    ch = endo_character(g, g.irrep((2, 1)), T)
    assert ch.equals(product_of_geometric([1, 1, 3], T), up_to=T)
    assert [ch[i] for i in range(4)] == [1, 2, 3, 5]


def test_endo_character_trivial_rep():
    for spec in ("Zm:4", "Sn:3:permutation", "I2:4"):
        g = group(spec)
        triv = g.trivial_irrep()
        assert endo_character(g, triv, T).equals(
            product_of_geometric(g.degrees, T), up_to=T)


def test_endo_character_zm3():
    g = group("Zm:3")
    ch = endo_character(g, g.irrep("chi1"), T)
    assert ch.equals(product_of_geometric([3], T), up_to=T)


def test_endo_character_positivity():
    for spec, lbl in (("Zm:4", "chi2"), ("Sn:3:permutation", (1, 1, 1)),
                      ("I2:4", "rho1")):
        g = group(spec)
        ch = endo_character(g, g.irrep(lbl), T)
        assert ch[0] == 1
        assert all(e >= 0 and v > 0 for e, v in ch.coeffs.items())


@pytest.mark.parametrize("character", [endo_character, verma_character])
def test_negative_truncation_is_rejected(character):
    g = group("Zm:2")
    with pytest.raises(InvalidInput):
        character(g, g.irrep("chi0"), -1)


# ---- hook identity ------------------------------------------------------------------

def test_hook_lengths():
    assert hook_lengths((2, 1)) == [3, 1, 1]
    assert hook_lengths((3,)) == [3, 2, 1]
    assert hook_lengths((1, 1)) == [2, 1]


@pytest.mark.parametrize("n,part", [
    (3, (2, 1)), (3, (3,)), (3, (1, 1, 1)),
    (2, (2,)), (2, (1, 1)),
])
def test_hook_identity(n, part):
    g = group(f"Sn:{n}:permutation")
    assert hook_identity_check(g, part, T)


def test_hook_identity_all_partitions_n4():
    g = group("Sn:4:permutation")
    for rep in g.irreps:
        assert hook_identity_check(g, rep.label, T)


# ---- generator-degree factorization ---------------------------------------------------

def test_solve_eis_zm():
    for m in (2, 3, 4, 5):
        g = group(f"Zm:{m}")
        for rep in g.irreps:
            assert solve_eis(g, rep, T).exponents == (m,)


def test_solve_eis_s3():
    g = group("Sn:3:permutation")
    eis = solve_eis(g, g.irrep((2, 1)), T)
    assert eis.exponents == (1, 1, 3)
    # reconstruction to truncation order
    recon = product_of_geometric(eis.exponents, T)
    assert recon.equals(endo_character(g, g.irrep((2, 1)), T), up_to=T)


def test_solve_eis_synthetic_no_solution():
    ch = GradedCharacter({0: F(1), 1: F(1)}, T)
    out = solve_eis_from_character(ch, 1, T)
    assert not out.is_solution()
    assert out.exponents is None


@pytest.mark.parametrize("spec", ["Zm:5", "Sn:3:permutation", "I2:5",
                                  "Sn:4:reduced"])
def test_solve_eis_does_not_depend_on_the_truncation(spec):
    # End(Delta) read to q^(N + sum d_i) decides the factorization exactly
    g = group(spec)
    for rep in g.irreps:
        wide = solve_eis(g, rep, 40)
        assert all(solve_eis(g, rep, t) == wide for t in (0, 1, 3, 24))


def test_a_factorization_true_only_to_the_truncation_is_refused():
    # on I2:25, End(Delta(rho1)) = (1 + q^23) / ((1 - q^2)(1 - q^25)) agrees
    # with 1/((1 - q^2)(1 - q^23)) up to q^24 but is no such product; for
    # rho12, (1 + q) / ((1 - q^2)(1 - q^25)) is 1/((1 - q)(1 - q^25))
    g = group("I2:25")
    assert not solve_eis(g, g.irrep("rho1"), T).is_solution()
    assert solve_eis(g, g.irrep("rho12"), T).exponents == (1, 25)


def test_eis_payload_carries_orientation():
    g = group("Zm:3")
    payload = solve_eis(g, g.irrep("chi1"), T).payload()
    assert payload["solvable"]
    assert "generator degrees" in payload["orientation"]


# ---- self-intersection characters (t-slices) -----------------------------------------

def test_truncated_laurent_product_claims_only_what_it_knows():
    # q^-2 * (1 + q + ... + q^10 + O(q^11)) is known to q^8 only
    prod = GradedCharacter({-2: 1}, 10) * GradedCharacter.geometric(1, 10)
    assert prod.truncation == 8
    assert prod == GradedCharacter.geometric(1, 12).shift(-2).truncate(8)
    # no negative exponents: the truncation is the operands' least
    prod = GradedCharacter({2: 1}, 10) * GradedCharacter.geometric(1, 7)
    assert prod.truncation == 7
    # both Laurent: each operand's tail meets the other's lowest term
    prod = GradedCharacter({-1: 1}, 3) * GradedCharacter({-2: 1}, 5)
    assert prod.truncation == 1 and prod == GradedCharacter({-3: 1}, 1)


def test_truncate_never_raises_the_claim():
    geo = GradedCharacter.geometric(1, 5)
    assert geo.truncate(40).truncation == 5
    assert geo.truncate(3) == GradedCharacter({0: 1, 1: 1, 2: 1, 3: 1}, 3)
    assert GradedCharacter({7: 1}).truncate(40).truncation == 40


@pytest.mark.parametrize("degrees", [(), (1,), (2, 3), (1, 1, 3),
                                     (2, 3, 4, 5)])
def test_product_of_geometric_is_the_product_of_its_factors(degrees):
    expected = GradedCharacter.one(30)
    for d in degrees:
        expected = expected * GradedCharacter.geometric(d, 30)
    assert product_of_geometric(degrees, 30) == expected


def test_tor_ext_z2_closed_forms():
    g = group("Zm:2")
    sgn = g.irrep("chi1")
    eis = solve_eis(g, sgn, T)
    assert eis.exponents == (2,)
    geo = product_of_geometric([2], T + 2)
    assert tor_character(g, sgn, eis, T) == [geo.truncate(T), geo.shift(-2)]
    assert ext_character(g, sgn, eis, T) == [geo.truncate(T),
                                             geo.shift(2).truncate(T)]


def test_tor_ext_slices():
    for spec, lbl in (("Zm:2", "chi1"), ("Zm:3", "chi2"),
                      ("Sn:3:permutation", (2, 1))):
        g = group(spec)
        rep = g.irrep(lbl)
        eis = solve_eis(g, rep, T)
        tor = tor_character(g, rep, eis, T)
        ext = ext_character(g, rep, eis, T)
        top = sum(eis.exponents)
        endo = endo_character(g, rep, T + top)
        assert tor[0].equals(endo, up_to=T)
        assert ext[0].equals(endo, up_to=T)
        assert ext[g.n].equals(endo.shift(top), up_to=T)
        assert tor[g.n].equals(endo.shift(-top), up_to=T)
        assert len(tor) == len(ext) == g.n + 1
        assert all(s.truncation == T for s in tor + ext)


@pytest.mark.parametrize("spec", ["Zm:2", "Sn:3:permutation",
                                  "Sn:4:permutation", "I2:5"])
def test_tor_ext_do_not_depend_on_the_truncation(spec):
    # every slice to q^24 is the slice to q^32 cut there
    g = group(spec)
    for rep in g.irreps:
        eis = solve_eis(g, rep, 32)
        if not eis.is_solution():
            continue
        for character in (tor_character, ext_character):
            wide = character(g, rep, eis, 32)
            assert character(g, rep, eis, 24) == [s.truncate(24)
                                                  for s in wide]


def test_tor_zm1():
    g = group("Zm:1")
    triv = g.irrep("triv")
    eis = solve_eis(g, triv, 10)
    assert eis.exponents == (1,)
    tor = tor_character(g, triv, eis, 10)
    assert tor[0].equals(endo_character(g, triv, 10), up_to=10)
    assert tor[1] == endo_character(g, triv, 11).shift(-1)


def test_missing_eis():
    g = group("Zm:2")
    with pytest.raises(MissingEis):
        tor_character(g, g.irrep("chi1"), EisFactorization.no_solution(), T)


def test_ext_s3_as_series():
    # prod (1 + t q^e) over e = 1, 1, 3 has t-slices 1, 2q + q^3,
    # q^2 + 2q^4 and q^5
    g = group("Sn:3:permutation")
    rep = g.irrep((2, 1))
    eis = solve_eis(g, rep, T)
    ext = ext_character(g, rep, eis, T)
    geo = product_of_geometric([1, 1, 3], T)
    factors = ({0: 1}, {1: 2, 3: 1}, {2: 1, 4: 2}, {5: 1})
    assert len(ext) == len(factors)
    for got, factor in zip(ext, factors):
        assert got.equals(geo * GradedCharacter(factor), up_to=T)


def test_payload_lists_every_slice_by_q_then_t():
    a = GradedCharacter({0: 1, 2: F(1, 2)}, 4)
    b = GradedCharacter({-1: 3, 2: 1}, 5)
    assert payload([a, b]) == {"truncation": 4, "terms": [
        [-1, 1, 3, 1], [0, 0, 1, 1], [2, 0, 1, 2], [2, 1, 1, 1]]}
    assert a.to_payload() == payload([a])
    assert GradedCharacter({1: 1}).to_payload() == {
        "truncation": "exact", "terms": [[1, 0, 1, 1]]}


# ---- standard-module characters --------------------------------------------------------

def test_verma_character_examples():
    z2 = group("Zm:2")
    assert verma_character(z2, z2.irrep("chi0"), T).equals(
        product_of_geometric([1], T), up_to=T)
    s3r = group("Sn:3:reduced")
    assert verma_character(s3r, s3r.irrep((2, 1)), T).equals(
        product_of_geometric([1, 1], T).scale(2), up_to=T)


def test_baby_verma_character_consistency():
    """Graded character of the quotient module = full character times
    prod (1 - q^{d_i}), checked from the computed module weights."""
    from conftest import restricted
    R = restricted("Sn:3:reduced", "1")
    g = R.group
    for lbl in ((2, 1), (3,)):
        rep = g.irrep(lbl)
        mod = R.baby_verma(rep)
        counts = {}
        for w in mod.weights:
            counts[w] = counts.get(w, 0) + 1
        graded = GradedCharacter({k: F(v) for k, v in counts.items()})
        numer = GradedCharacter.one()
        for d in g.degrees:
            numer = numer * GradedCharacter({0: F(1), d: F(-1)})
        expected = verma_character(g, rep, T) * numer.truncate(T)
        assert graded.truncate(T).equals(expected, up_to=12)


def test_rank_divisibility_for_singleton_blocks():
    """verma_character / endo_character is a polynomial with nonnegative
    integer coefficients summing to |W|, for distinguished singletons."""
    for spec, lbl in (("Sn:3:permutation", (2, 1)), ("Zm:3", "chi1"),
                      ("Zm:2", "chi1")):
        g = group(spec)
        rep = g.irrep(lbl)
        ratio = verma_character(g, rep, T) * \
            endo_character(g, rep, T).series_inverse(T)
        support = [e for e in ratio.coeffs if e <= T // 2]
        assert all(ratio[e].denominator == 1 and ratio[e] >= 0
                   for e in support)
        # stabilizes: no terms in the upper half window (it is a polynomial)
        assert all(e <= T // 2 for e in ratio.coeffs)
        assert sum(ratio[e] for e in support) == g.order


# ---- dual pairing expectation ------------------------------------------------------------

def test_dual_verma_pairing_expected():
    assert dual_verma_pairing_expected(1) == {"tor": [(0, 1)],
                                              "ext": [(1, 1)]}
    assert dual_verma_pairing_expected(2) == {"tor": [(0, 1)],
                                              "ext": [(2, 1)]}
    assert dual_verma_pairing_expected(0) == {"tor": [(0, 1)],
                                              "ext": [(0, 1)]}
