"""Invariant theory of a reflection group: pinned reports built on the Molien
series, the fake polynomials and the coinvariant fibers, and the algebraic
identities the fiber reduction and the Reynolds operator must satisfy."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from cherednik.cli import _load_group, main
from cherednik.cyclotomic import Cyc
from cherednik.errors import DimensionMismatch, NotFactorizable
from cherednik.groups import build_from_generators
from cherednik.invariants import (InvariantTheory, _h_series, fake_polynomial,
                                  molien_series)
from cherednik.linalg import Echelon, _add_term, echelon, trace
from cherednik.pbw import CherednikAlgebra
from cherednik.polys import monomials_of_degree, pconst, pmul
from cherednik.series import (GradedCharacter, generator_degrees,
                              product_of_binomials, product_of_geometric)

from conftest import group, parameter


@pytest.mark.parametrize("argv,digest", [
    (["group", "--group", "Zm:5"],
     "c65b5ce9f1afabcafceab47a75e27c8cc252572eb001b457d5fd0eb3c5c6982b"),
    (["group", "--group", "Sn:4:permutation"],
     "4a230a70dc3dbacadc7acbe36ecbca53b4587ca773d4036f300f7cbf3f11a7e6"),
    (["group", "--group", "Sn:5:reduced"],
     "2e2473fb2a521820346f2bd77cbbc8e06ff42675d9d87b55066d4be8174cd6ce"),
    (["group", "--group", "I2:6"],
     "8ff43bef60a10bdaed1996fda3537964bded9bebdb82bbc65db70d4a71d85230"),
    (["characters", "--group", "Sn:4:permutation", "--c", "generic:1",
      "--seed", "1", "--check-hook"],
     "3a4e2e07602e1d17b300beff6a745a43ba7d9a2dc1f70fee23c28500342a60df"),
    (["characters", "--group", "Sn:5:reduced", "--c", "generic:1",
      "--seed", "1"],
     "ca83154bb4332f983d8f1f6f496b6c3399b5d20c4a3a9784642b9fd18580076c"),
    (["characters", "--group", "I2:6", "--c", "generic:1", "--seed", "1"],
     "8a3741e6f65e5bdffae2da44e076abda37c327f549a8f0bcc0ddb30186d82dc2"),
    (["characters", "--group", "Zm:5", "--c", "generic:1", "--seed", "1"],
     "66be9d8aa99b90a434ba80a48e57a30bcb874b400dfd5c081801c8d7951a8931"),
    (["reduce", "--group", "Sn:4:permutation", "--point", "1,1,2,2",
      "--c", "generic:1", "--seed", "1"],
     "1a27ac4b429788feb26fbd6b05b0fbb9aaf829ee5afcf9fc0d22066b01283426"),
], ids=["group-Zm:5", "group-Sn:4:permutation", "group-Sn:5:reduced",
        "group-I2:6", "characters-Sn:4:permutation-hook",
        "characters-Sn:5:reduced", "characters-I2:6", "characters-Zm:5",
        "reduce-Sn:4:permutation-1122"])
def test_invariant_reports_are_pinned(capsys, argv, digest):
    # degrees, fake polynomials, End(Delta) characters and fiber series
    assert main(argv) == 0
    assert hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == digest


def _random_poly(rng, n, top):
    """A few seeded terms of degree at most ``top``, rational coefficients."""
    poly = {}
    for _ in range(3):
        mono = rng.choice(monomials_of_degree(n, rng.randint(0, top)))
        poly[mono] = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return poly


def _fiber_values(it, at_origin):
    """Invariant values of the origin (b = 0) or of a nonzero point."""
    if at_origin:
        return (F(0),) * it.n
    return it.invariant_values_at(tuple(F(i + 2, i + 1) for i in range(it.n)))


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced", "I2:4", "I2:5",
                                  "Sn:4:reduced"])
@pytest.mark.parametrize("at_origin", [True, False], ids=["b=0", "b!=0"])
def test_fiber_reduction_is_a_ring_map(spec, at_origin):
    it = group(spec).invariant_theory("x")
    values = _fiber_values(it, at_origin)
    rng = random.Random(5)
    for _ in range(6):
        p, q = (_random_poly(rng, it.n, 3) for _ in range(2))
        rp, rq = it.reduce(p, values), it.reduce(q, values)
        assert it.reduce(pmul(p, q), values) == it.reduce(pmul(rp, rq), values)
    for f, value in zip(it.fundamental_invariants, values):
        assert it.reduce(f, values) == pconst(it.n, value)


@pytest.mark.parametrize("spec", ["Zm:3", "Zm:4", "Sn:3:reduced", "I2:4",
                                  "I2:5", "Sn:4:reduced"])
@pytest.mark.parametrize("at_origin", [True, False], ids=["b=0", "b!=0"])
def test_fiber_image_is_characterized_by_two_identities(spec, at_origin):
    # the image is the unique map to the span of the coinvariant monomials
    # that fixes each of them and is linear over the invariants, with f_i
    # acting by v_i: check both on every monomial up to degree N + 2
    it = group(spec).invariant_theory("x")
    values = _fiber_values(it, at_origin)
    fib = it.fiber(values)
    for m in it.coinv_monomials():
        assert fib[m] == {m: F(1)}
    top = sum(d - 1 for d in it.group.degrees)
    for f, v in zip(it.fundamental_invariants, values):
        fd = max(map(sum, f))
        for d in range(top + 3 - fd):
            for m in monomials_of_degree(it.n, d):
                expected = {k: v * c for k, c in fib[m].items() if v}
                assert it.reduce(pmul(f, {m: F(1)}), values) == expected


def _fiber_text(it, values):
    """The x-fiber images of every monomial of degree 0..N+1, one line per
    monomial with its image's terms sorted."""
    fib = it.fiber(values)
    top = sum(d - 1 for d in it.group.degrees)
    return "\n".join(
        f"{m} " + " ".join(f"{k}:{v}" for k, v in sorted(fib[m].items()))
        for d in range(top + 2) for m in monomials_of_degree(it.n, d))


@pytest.mark.parametrize("at_origin,digest", [
    (True, "76a7580a9ef2ed77fa943d309d15f29a260c19d990c49f01f27e4a147934789d"),
    (False, "f22d37450348d623e9d73de73a009a154400c66fe4410267009b89f20fa23141"),
], ids=["b=0", "b!=0"])
def test_fiber_images_are_pinned(at_origin, digest):
    # SHA-256 of every image, taken when the images came from a separate
    # freeness solve: the fiber ideal's echelon must reproduce them
    it = group("Sn:4:reduced").invariant_theory("x")
    text = _fiber_text(it, _fiber_values(it, at_origin))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("length", [1, 3])
def test_a_fiber_of_the_wrong_length_is_refused(length):
    it = group("Sn:3:reduced").invariant_theory("x")
    values = (F(1), F(0), F(5))[:length]
    message = f"needs n = 2 coordinates, got {length}"
    with pytest.raises(DimensionMismatch, match=message):
        it.reduce({(2, 0): F(1)}, values)
    with pytest.raises(DimensionMismatch, match=message):
        it.fiber(values)
    with pytest.raises(DimensionMismatch, match=message):
        it.invariant_values_at(values)


def test_a_monomial_off_the_coinvariant_basis_is_refused():
    # a tuple of the wrong length lies off every pivot and off the basis
    fib = group("Sn:3:reduced").invariant_theory("x").fiber((F(0), F(0)))
    with pytest.raises(NotFactorizable, match="coinvariant monomial"):
        fib[(1, 0, 0)]


@pytest.mark.parametrize("spec", ["Sn:3:reduced", "I2:5"])
def test_cached_coefficients_are_stored_once(spec):
    # each straightening and action cache keeps one object per value
    g = group(spec)
    H = CherednikAlgebra(g, parameter(spec, "generic", 1))
    for w in range(g.order):
        for i in range(g.n):
            H.multiply(H.multiply(H.y(i, 2), H.grp(w)), H.x(g.n - 1 - i, 3))
    caches = {"comm": H._comm_cache, "ybxc": H._ybxc_cache,
              "act": g.invariant_theory("x")._act_monos}
    for name, cache in caches.items():
        coeffs = [c for entry in cache.values() for c in entry.values()]
        assert len(coeffs) > len(set(coeffs)), name
        assert len({id(c) for c in coeffs}) == len(set(coeffs)), name


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced", "I2:4", "I2:5"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_reynolds_fixes_each_fundamental_invariant(spec, side):
    it = group(spec).invariant_theory(side)
    for f in it.fundamental_invariants:
        assert it.reynolds(f) == f


@pytest.mark.parametrize("spec", ["Sn:4:reduced", "Sn:5:reduced"])
def test_fundamental_invariants_stop_at_the_last_new_generator(spec):
    # one homogeneous invariant per Molien degree, in order, and no Reynolds
    # image past the last one each degree needs
    g = group(spec)
    it = InvariantTheory(g, "x")
    calls = []
    reynolds = it.reynolds
    it.reynolds = lambda poly: calls.append(poly) or reynolds(poly)
    degrees = [{sum(m) for m in f} for f in it.fundamental_invariants]
    assert degrees == [{d} for d in sorted(g.degrees)]
    monomials = sum(len(monomials_of_degree(g.n, d)) for d in set(g.degrees))
    assert len(calls) < monomials


def test_an_image_in_the_ideal_of_the_lower_invariants_is_passed_over():
    # S_3 on C + its reflection representation: x1 is invariant, so the
    # first image of degree 2, that of x1^2, is x1^2 = f_1^2 and no generator
    s3 = group("Sn:3:reduced")
    g = build_from_generators(1, [
        [[F(1), F(0), F(0)]] + [[F(0)] + list(row) for row in s3.matrix(w)]
        for w in s3.generators.values()])
    it = g.invariant_theory("x")
    assert it.fundamental_invariants == [
        {(1, 0, 0): F(1)},
        {(0, 2, 0): F(2, 3), (0, 1, 1): F(-2, 3), (0, 0, 2): F(2, 3)},
        {(0, 2, 1): F(1), (0, 1, 2): F(-1)}]
    assert len(it.coinv_monomials()) == g.order


@pytest.mark.parametrize("spec", ["Sn:3:reduced", "I2:4", "I2:5"])
def test_fundamental_invariants_leave_the_action_cache_to_the_modules(spec):
    # Reynolds reads each image once and keeps none; the baby Vermas then
    # cache w . m only for coinvariant monomials m
    from cherednik.groups import build_group
    from cherednik.pbw import Parameter
    from cherednik.restricted import build_restricted
    g = build_group(spec)
    it = g.invariant_theory("x")
    assert it.fundamental_invariants and it._act_monos == {}
    R = build_restricted(g, Parameter.generic(g, 1))
    for rep in g.irreps:
        mod = R.baby_verma(rep)
        for w in range(g.order):
            mod._columns(("w", w))
    coinv = set(it.coinv_monomials())
    assert len(it._act_monos) == g.order * len(coinv)
    assert {m for _w, m in it._act_monos} == coinv


def _newton_h_series(group, idx, order):
    """1/det(1 - q A) from the first ``order`` power traces of A by Newton's
    identities, k h_k = sum_{i<=k} tr(A^i) h_{k-i}: the O(order^2) oracle."""
    traces = []
    j = idx
    for _ in range(order):
        traces.append(trace(group.matrix(j)))
        j = group.mult(j, idx)
    h = [F(1)]
    for k in range(1, order + 1):
        s = F(0)
        for i in range(1, k + 1):
            s = s + traces[i - 1] * h[k - i]
        h.append(s * F(1, k))
    return h


@pytest.mark.parametrize("spec", ["Zm:5", "Sn:4:reduced", "I2:5", "json"])
def test_h_series_recurrence_matches_newton(spec, tmp_path):
    if spec == "json":
        # I_2(3) with the rotation diagonal, read through the @file path
        path = tmp_path / "group.json"
        path.write_text(json.dumps({
            "name": "json-i2-3", "conductor": 3,
            "generators": [[[[[1, 1, 1]], []], [[], [[2, 1, 1]]]],
                           [[[], [[0, 1, 1]]], [[[0, 1, 1]], []]]]}),
            encoding="utf-8")
        g = _load_group(f"@{path}")
    else:
        g = group(spec)
    order = g.order + 1
    for cls in g.conjugacy_classes:
        assert _h_series(g, cls[0], order) == \
            _newton_h_series(g, cls[0], order)


@pytest.mark.parametrize("ds", [[1], [2, 3], [2, 4, 4], [1, 2, 3, 4],
                                [3, 3, 5]])
def test_generator_degrees_peels_a_product_of_geometric_series(ds):
    T = 24
    series = product_of_geometric(ds, T)
    assert generator_degrees(series, len(ds)) == sorted(ds)
    # one factor too few leaves a remainder, one too many finds none
    assert generator_degrees(series, len(ds) - 1) is None
    assert generator_degrees(series, len(ds) + 1) is None


def test_generator_degrees_refuses_what_is_not_a_product():
    T = 24
    assert generator_degrees(GradedCharacter({0: F(1), 1: F(1)}, T), 1) \
        is None
    # a coefficient that is not a positive integer cannot start a peel
    assert generator_degrees(GradedCharacter({0: F(1), 2: F(1, 2)}, T), 1) \
        is None
    assert generator_degrees(GradedCharacter({0: F(2)}, T), 0) is None


def test_molien_series_is_a_truncated_character_with_rational_coefficients():
    g = group("Zm:3")
    hilbert = molien_series(g, 7)
    assert hilbert == GradedCharacter({0: F(1), 3: F(1), 6: F(1)}, 7)
    # a weight that is not a class function of a character: the weighted
    # sum of the fake polynomial is not rational
    with pytest.raises(ArithmeticError, match="irrational"):
        fake_polynomial(g, _Weights(g, [F(0), Cyc.zeta(3), F(0)]))


# ---- fake polynomials from per-class polynomials, fibers by codimension ------------

GRID = ([f"Zm:{m}" for m in range(2, 9)]
        + [f"Sn:{n}:{r}" for n in range(2, 6)
           for r in ("permutation", "reduced")]
        + [f"I2:{m}" for m in range(3, 9)])


class _Weights:
    """A stand-in irreducible: the given weight on each class, dim 1."""

    dim = 1

    def __init__(self, group, weights):
        self._weights = dict(zip(group.class_representatives, weights))

    def char(self, idx):
        return self._weights[idx]


def _weighted_molien_fake_polynomial(g, rep):
    """The route of a fake polynomial that reads no class polynomial: the
    Molien series weighted by the character, from Newton's identities, to
    q^N, times prod_i (1 - q^{d_i}) and cut at q^N."""
    top = sum(d - 1 for d in g.degrees)
    total = {}
    for cls in g.conjugacy_classes:
        w = rep.char(cls[0])
        for k, h in enumerate(_newton_h_series(g, cls[0], top)):
            _add_term(total, k, len(cls) * w * h)
    assert all(isinstance(v, F) for v in total.values())
    molien = GradedCharacter(total, top).scale(F(1, g.order))
    return GradedCharacter((molien * product_of_binomials(g.degrees)).coeffs)


@pytest.mark.parametrize("spec", GRID)
def test_fake_polynomial_is_the_weighted_molien_route(spec):
    g = group(spec)
    for rep in g.irreps:
        f = fake_polynomial(g, rep)
        assert f == _weighted_molien_fake_polynomial(g, rep), rep.label
        assert f.truncation is None and f.value_at_one() == rep.dim
    # the class polynomials reach q^N and no further
    top = sum(d - 1 for d in g.degrees)
    assert all(len(p) == top + 1 for p in g._class_polys)


@pytest.mark.parametrize("spec", GRID)
def test_molien_series_is_the_newton_class_sum(spec):
    from cherednik.groups import build_group
    g = build_group(spec)
    order = g.order + 1
    total = {}
    for cls in g.conjugacy_classes:
        for k, h in enumerate(_newton_h_series(g, cls[0], order)):
            _add_term(total, k, len(cls) * h)
    expected = GradedCharacter(total, order).scale(F(1, g.order))
    assert molien_series(g, order) == expected
    # a shorter read runs the same recurrence on the kept det(1 - q w)
    assert molien_series(g, 2) == expected.truncate(2)
    assert sorted(g._class_dets) == list(range(len(g.conjugacy_classes)))
    assert all(len(c) == g.n + 1 for c in g._class_dets.values())


def _full_ideal(it, d, values):
    """The echelon of every product row f_i * m of degree d, augmented by
    -v_i times the image of m: the build that never stops early."""
    monos = monomials_of_degree(it.n, d)
    index = {m: i for i, m in enumerate(monos)}
    size = len(monos)
    rows, fib = [], it.fiber(values)
    for k, m, row in it._products(it.fundamental_invariants, d, index):
        if values[k]:
            position = it._coinv_columns[1]
            for mm, c in fib[m].items():
                row[size + position[mm]] = -values[k] * c
        rows.append(row)
    rows.sort(key=min, reverse=True)
    return echelon(rows, size)


@pytest.mark.parametrize("point", [None, (F(1), F(2), F(-1, 3))],
                         ids=["b=0", "b!=0"])
def test_ideal_stopped_at_the_codimension_equals_the_full_build(point):
    g = group("Sn:4:reduced")
    it = InvariantTheory(g, "x")
    values = ((F(0),) * g.n if point is None
              else it.invariant_values_at(point))
    if point is not None:
        assert all(values)
    top = sum(d - 1 for d in g.degrees)
    assert it._coinvariant_counts == [1, 3, 5, 6, 5, 3, 1]
    for d in range(top + 3):
        ech, monos, _index = it._ideal(d, values)
        full = _full_ideal(it, d, values)
        assert isinstance(ech, Echelon)
        assert dict(ech.rows) == dict(full.rows), d
        assert len(monos) - len(ech) == (it._coinvariant_counts[d]
                                         if d <= top else 0)
