import random
from fractions import Fraction

import pytest

from cherednik.parabolic import (conjugate_rep_label, make_context,
                                 reduced_endo_character,
                                 verify_reduction_invariance)
from cherednik.restricted import build_restricted
from cherednik.series import product_of_geometric
from cherednik.verma import endo_character
from conftest import group, parameter

F = Fraction
T = 16


def test_make_context_coordinate_stabilizer():
    g = group("Sn:3:permutation")
    ctx = make_context(g, parameter("Sn:3:permutation", "1"),
                       (F(1), F(1), F(0)))
    assert ctx.stabilizer.order == 2
    assert len(ctx.orbit) == 3
    assert all(v == 1 for v in ctx.restricted_param.values.values())


def test_make_context_regular_point():
    g = group("Sn:3:permutation")
    ctx = make_context(g, parameter("Sn:3:permutation", "1"),
                       (F(1), F(2), F(3)))
    assert ctx.stabilizer.order == 1
    assert len(ctx.orbit) == 6


def test_make_context_origin():
    for spec in ("Sn:3:permutation", "I2:4", "Zm:4"):
        g = group(spec)
        ctx = make_context(g, parameter(spec, "generic"), (F(0),) * g.n)
        assert ctx.stabilizer.order == g.order
        assert len(ctx.orbit) == 1


@pytest.mark.parametrize("spec,points", [
    ("Sn:3:permutation", [(1, 1, 0), (1, 2, 3), (2, 2, 2), (0, 0, 0)]),
    ("I2:4", [(1, 1), (1, 0), (0, 0)]),
    ("Zm:3", [(1,), (0,)]),
])
def test_orbit_stabilizer_identity(spec, points):
    g = group(spec)
    par = parameter(spec, "generic")
    for pt in points:
        ctx = make_context(g, par, tuple(F(v) for v in pt))
        assert len(ctx.orbit) * ctx.stabilizer.order == g.order


def test_reduced_endo_character_s2_in_s3():
    g = group("Sn:3:permutation")
    ctx = make_context(g, parameter("Sn:3:permutation", "1"),
                       (F(1), F(1), F(0)))
    assert ctx.stabilizer.degrees == (1, 1, 2)
    triv = ctx.stabilizer.trivial_irrep()
    ch = reduced_endo_character(ctx, triv, T)
    assert ch.equals(product_of_geometric([1, 1, 2], T), up_to=T)


def test_reduced_endo_character_free_case():
    g = group("Sn:3:permutation")
    ctx = make_context(g, parameter("Sn:3:permutation", "1"),
                       (F(1), F(2), F(3)))
    triv = ctx.stabilizer.trivial_irrep()
    ch = reduced_endo_character(ctx, triv, T)
    assert ch.equals(product_of_geometric([1, 1, 1], T), up_to=T)


def test_reduction_at_origin_is_identity():
    spec = "Sn:3:permutation"
    g = group(spec)
    par = parameter(spec, "generic")
    ctx = make_context(g, par, (F(0),) * g.n)
    for rep in g.irreps:
        inner = ctx.stabilizer.irrep(rep.label)
        assert reduced_endo_character(ctx, inner, T).equals(
            endo_character(g, rep, T), up_to=T)


def test_conjugate_rep_label_identity():
    g = group("Sn:3:permutation")
    par = parameter("Sn:3:permutation", "1")
    ctx = make_context(g, par, (F(1), F(1), F(0)))
    for rep in ctx.stabilizer.irreps:
        assert conjugate_rep_label(ctx, ctx, g._identity, rep) == rep.label


@pytest.mark.parametrize("spec,pt", [
    ("Sn:3:permutation", (1, 1, 0)),
    ("Sn:3:permutation", (1, 2, 3)),
    ("I2:4", (1, 1)),
])
def test_reduction_invariance_under_group(spec, pt):
    g = group(spec)
    par = parameter(spec, "generic")
    point = tuple(F(v) for v in pt)
    rng = random.Random(1)
    widxs = {g._identity} | {rng.randrange(g.order) for _ in range(3)}
    for widx in widxs:
        assert verify_reduction_invariance(g, par, point, widx, truncation=12)


def test_context_blocks_of_stabilizer():
    g = group("Sn:3:permutation")
    ctx = make_context(g, parameter("Sn:3:permutation", "1"),
                       (F(1), F(1), F(0)))
    part = build_restricted(ctx.stabilizer, ctx.restricted_param
                            ).cm_partition(verify=True)
    # S_2 at c' = 1: two singleton blocks, theorem checks pass
    assert len(part.blocks) == 2
    assert part.all_singletons()
    for blk in part.blocks:
        rpt = part.verification["center_surjectivity"][str(blk.distinguished)]
        assert rpt["surjective"]


def test_restricted_parameter_classes():
    g = group("I2:4")
    par = parameter("I2:4", "generic")
    ctx = make_context(g, par, (F(1), F(1)))
    # the single reflection fixing (1,1) keeps its ambient parameter value
    (r,) = ctx.stabilizer.reflections
    ambient = ctx.stabilizer.ambient_reflection_class(r)
    assert ctx.restricted_param.values[r.class_label] == par.values[ambient]
