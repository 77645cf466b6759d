import copy
import hashlib
import random
import re
from fractions import Fraction
from functools import partial

import pytest

import cherednik
from cherednik.cyclotomic import Cyc
from cherednik.errors import (CapExceeded, CherednikError, CompositionMismatch,
                              DimensionMismatch, InvalidInput, NotSimpleHead,
                              TieDetected)
from cherednik.groups import (build_from_generators, build_group, build_i2,
                              build_sn, build_zm)
from cherednik.linalg import (ZERO, _add_term, _axpy, kernel_basis, mat_mul,
                              mat_vec, rank, trace)
from cherednik.parabolic import make_context
from cherednik.pbw import CherednikAlgebra, Parameter, PBWElement
from cherednik.restricted import (FDModule, RestrictedCherednikAlgebra,
                                  StandardModules, act_on_baby_verma,
                                  build_restricted, distinguished_rep)
from cherednik.verify import CM_GRID
from conftest import algebra, group, parameter, partition, restricted

F = Fraction


def _basis(R):
    """The keys (a, w, b) of R in x^a, w, y^b order: the sampling order of
    the tests below."""
    return [(a, w, b) for a in R.x_basis for w in range(R.group.order)
            for b in R.y_basis]


def _dense(cols):
    """A square matrix stored as sparse columns, as a dense list of rows."""
    return [[col.get(i, ZERO) for col in cols] for i in range(len(cols))]


# ---- dimensions -----------------------------------------------------------------

@pytest.mark.parametrize("spec,expected", [
    ("Zm:2", 8), ("Zm:3", 27), ("Zm:1", 1), ("Sn:2:permutation", 8),
])
def test_restricted_dimension_small(spec, expected):
    assert restricted(spec, "1" if spec != "Zm:1" else "zero").dim == expected


def test_restricted_dimension_s3():
    assert restricted("Sn:3:reduced", "1").dim == 216


def test_cap_exceeded():
    g = build_sn(4, "permutation")
    with pytest.raises(CapExceeded):
        build_restricted(g, Parameter.constant(g, 1))


def test_associativity_sampled():
    import random
    R = restricted("Sn:3:reduced", "1")
    basis = _basis(R)
    rng = random.Random(4)
    for _ in range(40):
        i, j, k = (basis[rng.randrange(R.dim)] for _ in range(3))
        lhs = R.multiply(R.multiply({i: F(1)}, {j: F(1)}), {k: F(1)})
        rhs = R.multiply({i: F(1)}, R.multiply({j: F(1)}, {k: F(1)}))
        assert lhs == rhs


def test_unit_law():
    R = restricted("Zm:3", "generic")
    basis = _basis(R)
    for i in (0, R.dim // 2, R.dim - 1):
        key = basis[i]
        assert R.multiply(R.unit, {key: F(1)}) == {key: F(1)}
        assert R.multiply({key: F(1)}, R.unit) == {key: F(1)}


# ---- baby Vermas ------------------------------------------------------------------

def test_baby_verma_z2():
    R = restricted("Zm:2", "1")
    g = R.group
    mod = R.baby_verma(g.irrep("chi0"))
    assert mod.dim == 2
    assert mod.weights == [0, 1]
    H = R.algebra
    xmat = act_on_baby_verma(H.x(0), mod)
    assert xmat[1][0] == 1 and xmat[0][1] == 0 and xmat[0][0] == 0
    ymat = act_on_baby_verma(H.y(0), mod)
    assert ymat[0][1] == 1 and ymat[1][0] == 0    # x-bar -> c * 1 with c = 1
    assert act_on_baby_verma(H.one(), mod) == [[F(1), F(0)], [F(0), F(1)]]


def test_baby_verma_dimensions():
    R = restricted("Sn:3:reduced", "1")
    g = R.group
    assert R.baby_verma(g.irrep((2, 1))).dim == 12
    assert R.baby_verma(g.irrep((3,))).dim == 6
    R1 = restricted("Zm:1", "zero")
    assert R1.baby_verma(R1.group.irrep("triv")).dim == 1


def test_baby_verma_y_action_scales_with_parameter():
    g = build_zm(2)
    R = build_restricted(g, Parameter.constant(g, F(7, 2)))
    mod = R.baby_verma(g.irrep("chi0"))
    ymat = act_on_baby_verma(R.algebra.y(0), mod)
    assert ymat[0][1] == F(7, 2)


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced", "I2:3"])
@pytest.mark.parametrize("ctag,seed", [("zero", 0), ("generic", 1)])
def test_baby_verma_is_a_module(spec, ctag, seed):
    # the action matrices respect the product of the restricted algebra
    R = restricted(spec, ctag, seed)
    basis = _basis(R)
    rng = random.Random(5)
    pairs = [(basis[rng.randrange(R.dim)], basis[rng.randrange(R.dim)])
             for _ in range(10)]
    for rep in R.group.irreps:
        mod = R.baby_verma(rep)
        for i, j in pairs:
            assert _dense(mod.act_columns(R.multiply({i: F(1)}, {j: F(1)}))) \
                == mat_mul(_dense(mod.act_columns({i: F(1)})),
                           _dense(mod.act_columns({j: F(1)}))), \
                (rep.label, i, j)


def test_baby_verma_rejects_an_irreducible_of_another_group():
    from cherednik.errors import DimensionMismatch
    g = build_zm(2)
    R = build_restricted(g, Parameter.zero(g))
    with pytest.raises(DimensionMismatch):
        R.baby_verma(build_zm(3).irrep("chi1"))
    assert R.baby_verma(g.irrep("chi1")).rep is g.irrep("chi1")


# ---- simple heads -------------------------------------------------------------------

def test_simple_head_z2_generic():
    # at c = 1 both blocks are singletons and the standard module is simple
    R = restricted("Zm:2", "1")
    g = R.group
    head = R.simple_module(g.irrep("chi0"))
    assert head.dim == 2
    assert R.is_simple(head)


def test_simple_head_z2_zero():
    R = restricted("Zm:2", "zero")
    g = R.group
    head = R.simple_module(g.irrep("chi0"))
    assert head.dim == 1
    assert head.weights == [0]


def test_head_of_simple_is_itself():
    R = restricted("Zm:2", "1")
    g = R.group
    L = R.simple_module(g.irrep("chi0"))
    again = R.simple_head(L)
    assert again.dim == L.dim


@pytest.mark.parametrize("spec,ctag,seed", [
    (spec, ctag, seed) for spec in ("Zm:3", "Sn:3:reduced", "I2:3")
    for ctag, seed in (("zero", 0), ("generic", 1))] + [("I2:4", "zero", 0)])
def test_graded_radical_matches_acting_image(spec, ctag, seed):
    # the degree-by-degree radical and the trace-form radical of the acting
    # image have the same reduced echelon form
    R = restricted(spec, ctag, seed)
    for rep in R.group.irreps:
        mod = R.baby_verma(rep)
        assert R._graded_radical(mod).rows == R._image_radical(mod).rows, \
            rep.label


def test_head_grading_starts_at_rep():
    R = restricted("Sn:3:reduced", "1")
    g = R.group
    L = R.simple_module(g.irrep((2, 1)))
    assert min(L.weights) == 0
    assert L.weights.count(0) == 2    # L(rep)_0 = rep


# ---- endomorphisms and simplicity ---------------------------------------------------

def _commutant_dimension(mod):
    """dim End(M) as the commutant of the generator actions: phi g = g phi
    for every generator g, with the dim^2 entries of phi unknown."""
    dim = mod.dim
    rows = []
    for g in map(_dense, mod.generators()):
        for i in range(dim):
            for j in range(dim):
                row = {}
                for k in range(dim):
                    if g[k][j]:
                        _add_term(row, i * dim + k, g[k][j])
                    if g[i][k]:
                        _add_term(row, k * dim + j, -g[i][k])
                rows.append(row)
    return dim * dim - rank(rows, dim * dim)


def _check_end_and_simplicity(R):
    for rep in R.group.irreps:
        mod = R.baby_verma(rep)
        for m in (mod, R.simple_head(mod)):
            assert R.endomorphism_dimension(m) == _commutant_dimension(m), \
                (rep.label, m.dim)
            burnside = len(R.acting_image(m)) == m.dim ** 2
            assert R.is_simple(m) == burnside, (rep.label, m.dim)


@pytest.mark.parametrize("spec", ["Zm:2", "Zm:3", "Zm:4", "Sn:2:permutation",
                                  "Sn:3:reduced", "I2:3", "I2:4"])
@pytest.mark.parametrize("ctag,seed", [("zero", 0), ("generic", 1)])
def test_endomorphisms_match_the_commutant(spec, ctag, seed):
    # Frobenius reciprocity on the singular vectors against the dim^2-unknown
    # commutant, and the simplicity test against Burnside, on every baby
    # Verma and every head
    _check_end_and_simplicity(restricted(spec, ctag, seed))


@pytest.mark.parametrize("build,c,b_point", [
    (lambda: build_zm(2), 0, (F(1),)),
    (lambda: build_zm(2), 1, (F(1),)),
    (lambda: build_zm(3), 0, (F(1),)),
    (lambda: build_i2(3), 0, (F(1), F(0))),
], ids=["Zm:2-c0", "Zm:2-c1", "Zm:3-c0", "I2:3-c0"])
def test_endomorphisms_match_the_commutant_off_the_graded_fiber(build, c,
                                                                b_point):
    g = build()
    R = build_restricted(g, Parameter.constant(g, c), b_point=b_point)
    assert not R.graded
    _check_end_and_simplicity(R)


def test_baby_verma_with_a_proper_head_is_not_simple():
    # Delta(chi0) of Z_3 at c = 0 has dim 3 and a head of dim 1; its
    # commutant is still one-dimensional
    R = restricted("Zm:3", "zero")
    mod = R.baby_verma(R.group.irrep("chi0"))
    assert (mod.dim, R.simple_module(mod.rep).dim) == (3, 1)
    assert _commutant_dimension(mod) == 1
    assert not R.is_simple(mod)


@pytest.mark.parametrize("spec", ["Zm:3", "Zm:4", "Sn:3:reduced", "I2:4"])
def test_endomorphisms_at_zero_are_dim_squared(spec):
    # at c = 0 y kills Delta(rep), and the coinvariants are the regular
    # representation, so rep occurs dim rep times in Delta(rep)^{y=0}
    R = restricted(spec, "zero")
    for rep in R.group.irreps:
        assert R.endomorphism_dimension(R.baby_verma(rep)) == rep.dim ** 2


def test_endomorphisms_of_s4_baby_vermas():
    g = build_group("Sn:4:reduced")
    for par, dims in ((Parameter.generic(g, 1), [1, 3, 2, 3, 1]),
                      (Parameter.zero(g), [1, 9, 4, 9, 1])):
        R = build_restricted(g, par, cap=13824)
        assert [R.endomorphism_dimension(R.baby_verma(rep))
                for rep in g.irreps] == dims


def test_endomorphism_dimension_needs_the_irreducible():
    R = restricted("Zm:2", "1")
    mod = R.baby_verma(R.group.irrep("chi0"))
    bare = FDModule(R, mod.dim, mod.x, mod.y,
                    lambda w: mod._columns(("w", w)), weights=mod.weights)
    with pytest.raises(CherednikError):
        R.endomorphism_dimension(bare)


# ---- e L(rep) dimensions ----------------------------------------------------------

def test_dim_e_simple_z2_zero():
    R = restricted("Zm:2", "zero")
    g = R.group
    assert R.dim_e_simple(g.irrep("chi0")) == 1
    assert R.dim_e_simple(g.irrep("chi1")) == 0


def test_dim_e_simple_trivial_group():
    R = restricted("Zm:1", "zero")
    assert R.dim_e_simple(R.group.irrep("triv")) == 1


@pytest.mark.parametrize("spec", ["Sn:3:reduced", "I2:4"])
@pytest.mark.parametrize("ctag", ["zero", "generic"])
def test_end_and_e_dims_read_class_representatives_only(spec, ctag,
                                                       monkeypatch):
    # both multiplicities are read off class traces: no group-algebra
    # element with a term per element of W acts, so no other w's matrix
    # is built
    g = group(spec)
    M = StandardModules(CherednikAlgebra(g, parameter(spec, ctag, 1)))
    built, columns = [], FDModule._columns

    def recorded(mod, gen):
        if gen[0] == "w":
            built.append(gen[1])
        return columns(mod, gen)

    monkeypatch.setattr(FDModule, "_columns", recorded)
    for rep in g.irreps:
        mod = M.baby_verma(rep)
        for m in (mod, M.simple_head(mod)):
            M.endomorphism_dimension(m)
        M.dim_e_simple(rep)
    assert built and set(built) <= set(g.class_representatives), \
        sorted(set(built) - set(g.class_representatives))


@pytest.mark.parametrize("spoil", [F(1, 2), Cyc.zeta(4)], ids=["half", "cyc"])
def test_end_and_e_dims_refuse_a_spoiled_multiplicity(spoil, monkeypatch):
    R = build_restricted(group("Sn:3:reduced"),
                         parameter("Sn:3:reduced", "generic", 1))
    g, multiplicity = R.group, R.group.multiplicity
    rep, trivial = g.irrep((2, 1)), g.trivial_irrep()
    mod = R.baby_verma(rep)
    for target, compute in ((rep, lambda: R.endomorphism_dimension(mod)),
                            (trivial, lambda: R.dim_e_simple(rep))):
        monkeypatch.setattr(g, "multiplicity", lambda r, chi, target=target:
                            spoil if r is target else multiplicity(r, chi))
        with pytest.raises(CompositionMismatch,
                           match=rf"multiplicity {re.escape(str(spoil))} of "
                                 rf"{re.escape(repr(target.label))} in .* is "
                                 "not a non-negative integer"):
            compute()


@pytest.mark.parametrize("build,c,b_point,dims", [
    (lambda: build_zm(2), 0, (F(1),), [1, 1]),
    (lambda: build_zm(2), 1, (F(1),), [1, 1]),
    (lambda: build_zm(3), 0, (F(1),), [1, 1, 1]),
    (lambda: build_i2(4), 1, (F(1), F(0)), [1] * 5),
], ids=["Zm:2-c0", "Zm:2-c1", "Zm:3-c0", "I2:4-c1"])
def test_dim_e_simple_off_the_graded_fiber(build, c, b_point, dims):
    # the trivial multiplicity in L against the rank of the symmetrizer,
    # reduced into the |W|^3 algebra, on the head from the acting image
    g = build()
    R = build_restricted(g, Parameter.constant(g, c), b_point=b_point)
    assert not R.graded
    e = R.reduce_pbw(R.algebra.symmetrizer())
    heads = [R.simple_module(rep) for rep in g.irreps]
    assert [R.dim_e_simple(rep) for rep in g.irreps] == dims
    assert [rank(_dense(L.act_columns(e)), L.dim) for L in heads] == dims


def test_dim_e_simple_off_the_graded_fiber_needs_a_simple_head():
    g = group("Sn:3:reduced")
    R = build_restricted(g, Parameter.constant(g, 1),
                         b_point=(F(1), F(0)))
    with pytest.raises(NotSimpleHead, match=r"\(2, 1\) is not simple"):
        R.dim_e_simple(g.irrep((2, 1)))


# ---- block partitions ----------------------------------------------------------------

def test_cm_z2_generic():
    part = partition("Zm:2", "1")
    assert [list(b.labels) for b in part.blocks] == [["chi0"], ["chi1"]]
    assert part.route_agreement
    assert part.all_singletons()


def test_cm_z2_zero():
    part = partition("Zm:2", "zero")
    assert len(part.blocks) == 1
    blk = part.blocks[0]
    assert sorted(blk.labels) == ["chi0", "chi1"]
    assert blk.distinguished == "chi0"


def test_cm_z3_zero_and_generic():
    part0 = partition("Zm:3", "zero")
    assert len(part0.blocks) == 1
    assert part0.blocks[0].distinguished == "chi0"
    partg = partition("Zm:3", "generic")
    assert len(partg.blocks) == 3 and partg.all_singletons()


def test_cm_trivial_group():
    part = partition("Zm:1", "zero")
    assert [list(b.labels) for b in part.blocks] == [["triv"]]


def test_cm_s3_generic():
    part = partition("Sn:3:reduced", "1")
    assert len(part.blocks) == 3
    assert part.all_singletons()
    assert part.route_agreement


def test_thm_block_checks_s3():
    part = partition("Sn:3:reduced", "1")
    for blk in part.blocks:
        for lbl in blk.labels:
            expected = 1 if lbl == blk.distinguished else 0
            assert part.verification["e_dims"][str(lbl)] == expected
        rpt = part.verification["center_surjectivity"][str(blk.distinguished)]
        assert rpt["surjective"]
        assert rpt["dim_end"] == rpt["dim_center_image"]


@pytest.mark.parametrize("flip", [
    lambda v: v["e_dims"].update(chi0=0),
    lambda v: v["e_dims"].update(chi1=1),
    lambda v: v["center_surjectivity"]["chi0"].update(surjective=False),
], ids=["distinguished-e-dim", "other-e-dim", "surjectivity"])
def test_theorems_hold_sees_one_flipped_entry(flip):
    # one block {chi0, chi1} with chi0 distinguished
    part = partition("Zm:2", "zero")
    assert part.theorems_hold()
    broken = copy.copy(part)
    broken.verification = copy.deepcopy(part.verification)
    flip(broken.verification)
    assert not broken.theorems_hold()


def test_center_surjectivity_z2():
    R = restricted("Zm:2", "1")
    rpt = R.center_surjectivity_on_baby_verma(R.group.irrep("chi0"))
    assert rpt == {"dim_end": 1, "dim_center_image": 1, "surjective": True}


def test_center_surjectivity_s3_two_dim_block():
    R = restricted("Sn:3:reduced", "1")
    rpt = R.center_surjectivity_on_baby_verma(R.group.irrep((2, 1)))
    assert rpt["surjective"]


def test_center_surjectivity_fails_off_distinguished():
    """The surjectivity statement is sharp: at c = 0 the S_3 block is
    {all three irreducibles} with the trivial rep distinguished, and the
    center does not surject onto End of the standard module at (2,1)."""
    R = restricted("Sn:3:reduced", "zero")
    part = R.cm_partition(verify=False)
    assert len(part.blocks) == 1
    assert str(part.blocks[0].distinguished) == "(3,)"
    good = R.center_surjectivity_on_baby_verma(R.group.irrep((3,)))
    bad = R.center_surjectivity_on_baby_verma(R.group.irrep((2, 1)))
    assert good["surjective"]
    assert not bad["surjective"]
    assert bad["dim_end"] == 4 and bad["dim_center_image"] == 1


def _center_structure(R):
    """Structure constants of Z_0 over its RREF basis, and the coordinates
    of the unit: products of the algebra, read back at the pivots of Z_0.
    The input of the idempotent splitter, the oracle for ``block_count``."""
    zbasis = R.degree_zero_center()
    pivots = [next(iter(z)) for z in zbasis]

    def coordinates(vec):
        # an RREF row is 1 at its pivot and 0 at every other pivot
        coords = [vec.get(p, ZERO) for p in pivots]
        residual = dict(vec)
        for c, z in zip(coords, zbasis):
            _axpy(residual, z, -c)
        assert not residual, "a product left the computed Z_0"
        return coords

    k = len(zbasis)
    prods = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            prods[i][j] = prods[j][i] = coordinates(
                R.multiply(zbasis[i], zbasis[j]))
    return prods, coordinates(R.unit)


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced"])
def test_center_idempotent_identities(spec):
    # the structure constants are over the Z_0 basis
    R = restricted(spec, "generic")
    prods, unit = _center_structure(R)
    from cherednik.comalg import idempotents_of_commutative_algebra
    idems = idempotents_of_commutative_algebra(prods, unit,
                                               conductor=R.group.conductor)
    alg_mul = R.multiply
    zbasis = R.degree_zero_center()
    vecs = []
    for coords in idems:
        vec = {}
        for c, z in zip(coords, zbasis):
            for k, v in z.items():
                vec[k] = vec.get(k, F(0)) + c * v
        vecs.append({k: v for k, v in vec.items() if v})
    total = {}
    for e in vecs:
        assert alg_mul(e, e) == e
        for k, v in e.items():
            total[k] = total.get(k, F(0)) + v
    assert {k: v for k, v in total.items() if v} == R.unit


def _center_in_one_system(R):
    """The center as the kernel of every adjoint map at once, the grading
    unused: RREF rows in pivot order, each as (key, value) pairs."""
    def image(key):
        out = {}
        for g, (gvec, _deg) in enumerate(R.generators):
            diff = dict(R.multiply({key: F(1)}, gvec))
            for k, v in R.multiply(gvec, {key: F(1)}).items():
                _add_term(diff, k, -v)
            out.update(((g, k), v) for k, v in diff.items())
        return out

    return [list(row.items()) for row in kernel_basis(_basis(R), image)]


@pytest.mark.parametrize("spec,ctag,seed,digest", [
    ("Sn:3:reduced", "zero", 0,
     "4a1758806961e4b7c3bcccca9d2fc0589b71e091c4da8c80cd4120d23ff1b2d7"),
    ("I2:4", "generic", 1,
     "b41341b49f10c53d613391143acc46aebf0119477b45f6fa8e48e6f79802610d")],
    ids=["Sn:3:reduced-zero", "I2:4-generic:1"])
def test_center_rows_are_pinned(spec, ctag, seed, digest):
    # SHA-256 of every row as (key, coefficient text) pairs, taken when the
    # rows were keyed by position in a |W|^3 basis list: the rows, their
    # normalization and their order
    rows = [[(k, str(c)) for k, c in z.items()]
            for z in restricted(spec, ctag, seed).center()]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,ctag,seed", [
    ("Zm:3", "zero", 0), ("Sn:3:reduced", "zero", 0),
    ("Sn:3:reduced", "generic", 1)])
def test_center_rows_are_the_rref_of_the_whole_system(spec, ctag, seed):
    R = restricted(spec, ctag, seed)
    assert [list(z.items()) for z in R.center()] == _center_in_one_system(R)


@pytest.mark.parametrize("spec,ctag,seed,point", [
    ("Zm:3", "zero", 0, None), ("Zm:3", "generic", 1, None),
    ("Sn:3:reduced", "zero", 0, None), ("Sn:3:reduced", "generic", 1, None),
    ("I2:4", "zero", 0, None), ("I2:4", "generic", 1, None),
    ("Sn:3:reduced", "generic", 1, (F(1), F(0)))], ids=[
    "Zm:3-zero", "Zm:3-generic:1", "Sn:3:reduced-zero",
    "Sn:3:reduced-generic:1", "I2:4-zero", "I2:4-generic:1",
    "Sn:3:reduced-generic:1-b=(1,0)"])
def test_direct_adjoint_is_the_product_table_commutator(spec, ctag, seed,
                                                        point):
    # [m, g] from the basis key equals m g - g m from the product table, for
    # every generator, the ones the pick leaves out included
    g = group(spec)
    R = build_restricted(g, parameter(spec, ctag, seed), b_point=point)
    names = ([(kind, i) for i in range(g.n) for kind in ("x", "y")]
             + [("w", s) for s in g.generators.values()])
    assert {gen for gen, _deg in R._adjoint_generators} <= set(names)
    for gen, (gvec, _deg) in zip(names, R.generators, strict=True):
        for m in _basis(R):
            em = {m: F(1)}
            assert R._adjoint(gen, m) == _axpy(
                R.multiply(em, gvec), R.multiply(gvec, em),
                F(-1)), (gen, m)


def _fiber_sum(R, terms):
    """The plain reduction of PBW terms: the sum of v * cx * cy over the
    images cx of x^a and cy of y^b in the two fibers, in field
    arithmetic."""
    out = {}
    for (a, w, b), v in terms.items():
        for xm, cx in R._x_fiber[a].items():
            _axpy(out, {(xm, w, ym): cx * cy
                        for ym, cy in R._y_fiber[b].items()}, v)
    return out


@pytest.mark.parametrize("spec,ctag,point", [
    ("Zm:3", "generic", None), ("I2:5", "generic", None),
    ("Sn:3:reduced", "generic", None), ("I2:4", "1", (F(1), F(0))),
    ("I2:4", "1", (F(1, 2), F(1, 3)))],
    ids=["Zm:3", "I2:5", "Sn:3:reduced", "I2:4-b=(1,0)", "I2:4-b=(1/2,1/3)"])
def test_fraction_free_reduction_is_the_plain_fiber_sum(spec, ctag, point):
    # seeded terms of degree up to two past the coinvariant top, with
    # Fraction and Cyc coefficients; the output keeps the oracle's order.
    # Off b = 0 with a fractional point the x images have denominators.
    g = group(spec)
    R = build_restricted(g, parameter(spec, ctag, 1), b_point=point)
    top = sum(d - 1 for d in g.degrees)
    rng = random.Random(31)

    def scalar():
        v = F(rng.choice((-7, -2, -1, 1, 3, 5)), rng.choice((1, 2, 3, 10)))
        if rng.random() < 0.5:
            return v
        return Cyc(g.conductor, {rng.randrange(g.conductor): v,
                                 rng.randrange(g.conductor): F(1, 6)})

    for _ in range(25):
        terms = {}
        for _ in range(4):
            a = tuple(rng.randrange(top + 3) for _ in range(g.n))
            b = tuple(rng.randrange(top + 3) for _ in range(g.n))
            terms[(a, rng.randrange(g.order), b)] = scalar()
        terms = {k: v for k, v in terms.items() if v}
        got = R._reduce_terms(terms)
        assert list(got.items()) == list(_fiber_sum(R, terms).items())
        assert all(type(c) in (Fraction, Cyc) for c in got.values())
        # a contribution and its negative over another denominator cancel,
        # and the key is dropped
        (key, v), = rng.sample(sorted(terms.items(), key=str), 1)
        assert R._reduce_pairs([(key, (v.numerator, v.denominator)),
                                (key, (-3 * v.numerator,
                                       3 * v.denominator))]) == {}


@pytest.mark.parametrize("ctag", ["zero", "generic"])
@pytest.mark.parametrize("make,kept", [
    (lambda: build_from_generators(1, [[[F(-1), F(0)], [F(0), F(1)]],
                                       [[F(1), F(0)], [F(0), F(-1)]]]),
     [0, 1]),
    (lambda: group("Sn:3:permutation"), [0])],
    ids=["klein", "Sn:3:permutation"])
def test_orbit_spanning_pick(make, kept, ctag):
    # on the diagonal Z_2 x Z_2 each x_i spans only its own line; the
    # symmetric group moves x_0 onto every coordinate
    g = make()
    par = Parameter.zero(g) if ctag == "zero" else Parameter.generic(g, 1)
    R = build_restricted(g, par)
    assert R._orbit_spanning("x") == R._orbit_spanning("y") == kept
    assert [list(z.items()) for z in R.center()] == _center_in_one_system(R)


def test_sn4_degree_zero_center_past_the_default_cap():
    g = group("Sn:4:reduced")
    R = build_restricted(g, Parameter.zero(g), cap=13824)
    assert len(R.degree_zero_center()) == 21


@pytest.mark.parametrize("spec,ctag,seed,sizes", [
    ("Sn:3:reduced", "zero", 0, (11, 7)), ("I2:3", "zero", 0, (11, 7)),
    ("I2:4", "zero", 0, (14, 12)), ("Sn:3:reduced", "generic", 1, (6, 4)),
    ("I2:3", "generic", 1, (6, 4))], ids=[
    "Sn:3:reduced", "I2:3", "I2:4", "Sn:3:reduced-generic:1", "I2:3-generic:1"])
def test_center_off_degree_zero_is_nilpotent_and_traceless(spec, ctag, seed,
                                                           sizes):
    # the facts that let the blocks be read off Z_0 alone, and the
    # surjectivity check leave out the negative degrees
    R = restricted(spec, ctag, seed)
    zbasis, zero = R.center(), R.degree_zero_center()
    assert (len(zbasis), len(zero)) == sizes
    degrees = [{sum(a) - sum(b) for a, _w, b in z} for z in zbasis]
    assert zero == [z for z, ds in zip(zbasis, degrees) if ds == {0}]
    steps = len(R.degree_slices)
    positive_acts = False
    for z, ds in zip(zbasis, degrees):
        if ds == {0}:
            continue
        assert len(ds) == 1
        power = z
        for _ in range(steps):
            power = R.multiply(power, z)
        assert not power
        for rep in R.group.irreps:
            mat = _dense(R.baby_verma(rep).act_columns(z))
            assert trace(mat) == 0, rep.label
            acts = any(v for row in mat for v in row)
            # below degree 0: the lowest degree, which generates, is killed
            assert not (acts and min(ds) < 0), rep.label
            positive_acts = positive_acts or acts
    # at generic c a positive degree acts, so the trace check has teeth
    assert positive_acts == (ctag == "generic")
    for rep in R.group.irreps:
        mod = R.baby_verma(rep)
        full = rank([[v for row in _dense(mod.act_columns(z)) for v in row]
                     for z in zbasis], mod.dim ** 2)
        rpt = R.center_surjectivity_on_baby_verma(rep)
        assert rpt["dim_center_image"] == full, rep.label


@pytest.mark.parametrize("spec,point", [
    ("Sn:3:reduced", (1, 0)), ("I2:3", (1, 2))],
    ids=["Sn:3:reduced-b=(1,0)", "I2:3-b=(1,2)"])
def test_center_image_off_the_graded_fiber_is_the_full_matrix_rank(spec,
                                                                   point):
    # off the graded fiber there is one slice, Z = Z_0, and the image read
    # on the generator 1 (x) v_0 still has the rank of the action matrices
    g = group(spec)
    R = build_restricted(g, parameter(spec, "generic", 1),
                         b_point=tuple(map(F, point)))
    assert not R.graded
    zbasis = R.center()
    for rep in g.irreps:
        mod = R.baby_verma(rep)
        full = rank([[v for row in _dense(mod.act_columns(z)) for v in row]
                     for z in zbasis], mod.dim ** 2)
        rpt = R.center_surjectivity_on_baby_verma(rep)
        assert rpt["dim_center_image"] == full, rep.label


@pytest.mark.parametrize("spoil,message", [
    (lambda factors: factors[1:], "leave a remainder in degree 0"),
    (lambda factors: factors + factors[:1], "leave a remainder in degree 0"),
    (lambda factors: [(mu, m / 2) for mu, m in factors],
     "multiplicity 1/2 of .* is not a non-negative integer"),
], ids=["dropped", "duplicated", "non-integer"])
def test_linkage_route_rejects_a_spoiled_peel(spoil, message, monkeypatch):
    R = restricted("Sn:3:reduced", "generic", 1)
    decompose = R._decompose
    monkeypatch.setattr(R, "_decompose",
                        lambda chi: spoil(decompose(chi)))
    with pytest.raises(CompositionMismatch, match=message):
        R.cm_partition(verify=False)


def test_linkage_route_rejects_a_head_past_the_top_degree(monkeypatch):
    # a head with a piece far above its true degrees
    R = restricted("Sn:3:reduced", "zero")
    character = R._graded_character

    def stretched(mod):
        chars = character(mod)
        if mod is R.simple_module(R.group.irrep((3,))):
            chars[100] = chars[0]
        return chars

    monkeypatch.setattr(R, "_graded_character", stretched)
    with pytest.raises(CompositionMismatch, match="runs past the top degree"):
        R.cm_partition(verify=False)


def _count_products(R, monkeypatch):
    """Count R.multiply calls from here on: returns the list of calls."""
    calls, multiply = [], R.multiply

    def counted(u, v):
        calls.append(None)
        return multiply(u, v)

    monkeypatch.setattr(R, "multiply", counted)
    return calls


def _certificate_products(R):
    """The products the centrality certificate may make on the slices solved
    so far: z g and g z for each certified row z and each g of the
    generating set (the W generators and the orbit-spanning x_i, y_j)."""
    gens = (len(R.group.generators) + len(R._orbit_spanning("x"))
            + len(R._orbit_spanning("y")))
    return 2 * gens * sum(map(len, R._center_slices.values()))


@pytest.mark.parametrize("spec,ctag,seed", [
    ("Sn:3:reduced", "zero", 0), ("Sn:3:reduced", "generic", 1),
    ("I2:4", "zero", 0), ("Zm:3", "generic", 2)])
def test_cm_partition_never_splits_the_center(spec, ctag, seed, monkeypatch):
    # no |W|^3 product table: the only products are the certificate's,
    # on a fresh algebra that solves every slice it reads here
    R = build_restricted(group(spec), parameter(spec, ctag, seed))
    calls = _count_products(R, monkeypatch)
    part = R.cm_partition(verify=True)
    assert part.route_agreement and part.theorems_hold()
    assert 0 < len(calls) <= _certificate_products(R)


@pytest.mark.parametrize("spec,ctag,seed", [
    ("Zm:3", "zero", 0), ("Zm:3", "generic", 1), ("Sn:3:reduced", "zero", 0),
    ("Sn:3:reduced", "generic", 1), ("I2:4", "zero", 0),
    ("I2:3", "generic", 2)])
def test_composition_factors_rebuild_the_baby_verma(spec, ctag, seed):
    # sum of m * dim L(mu) over the factors is dim Delta, Delta(lambda) has
    # its head once in degree 0, and every factor lies in lambda's block
    R = restricted(spec, ctag, seed)
    heads = {rep.label: R._graded_character(R.simple_module(rep))
             for rep in R.group.irreps}
    blocks = {lbl: blk for blk in R.cm_partition(verify=False).blocks
              for lbl in blk.labels}
    for rep in R.group.irreps:
        factors = R._composition_factors(rep, heads)
        assert factors.get((rep.label, 0)) == 1
        assert sum(m * R.simple_module(R.group.irrep(mu)).dim
                   for (mu, _k), m in factors.items()) == \
            R.baby_verma(rep).dim
        assert all(mu in blocks[rep.label].labels for mu, _k in factors)


def test_a_non_scalar_central_character_is_an_error(monkeypatch):
    # cm_partition on Zm:2 at c = 1, with z e_0 of the first Z_0 vector on
    # Delta(chi1) given an entry off e_0
    g = build_zm(2)
    R = build_restricted(g, Parameter.constant(g, 1))
    terms = R.degree_zero_center()[0]
    mod = R.baby_verma(g.irrep("chi1"))
    apply = mod.apply

    def spoiled(zterms, vec):
        col = apply(zterms, vec)
        if zterms == terms and vec == {0: F(1)}:
            _add_term(col, 1, F(1))
        return col

    monkeypatch.setattr(mod, "apply", spoiled)
    with pytest.raises(CherednikError, match="not a scalar on the baby Verma "
                                             "'chi1'"):
        R.cm_partition(verify=False)


@pytest.mark.parametrize("spec,ctag,sizes", [
    ("I2:4", "zero", (12, 34)), ("I2:4", "generic", (6, 15)),
    ("Sn:3:reduced", "zero", (7, 21))])
def test_certificate_refuses_a_center_solved_without_w(spec, ctag, sizes,
                                                      monkeypatch):
    # with the W rows dropped from the solve, Z_0 takes in vectors that are
    # not central; the certificate, which reads its generators off
    # ``generators``, refuses them at a W generator
    g = group(spec)
    true = build_restricted(g, parameter(spec, ctag, 1)).degree_zero_center()
    R = build_restricted(g, parameter(spec, ctag, 1))
    monkeypatch.setitem(R.__dict__, "_adjoint_generators", [
        (gen, gdeg) for gen, gdeg in R._adjoint_generators if gen[0] != "w"])
    grown = R._slice_kernel(0, [(partial(R._adjoint, gen), gdeg)
                                for gen, gdeg in R._adjoint_generators])
    assert (len(true), len(grown)) == sizes
    names = "|".join(g.generators)
    with pytest.raises(CherednikError, match=rf"^a vector of Z_0 does not "
                                             rf"commute with the generator "
                                             rf"({names})$"):
        R.degree_zero_center()
    assert 0 not in R._center_slices


@pytest.mark.parametrize("spec,ctag", [("I2:4", "generic"),
                                       ("Sn:3:reduced", "zero")])
def test_certificate_generators_are_named_once(spec, ctag, monkeypatch):
    # every slice reads one generating set: the orbit-spanning indices are
    # found once per side, and the certificate multiplies by the W
    # generators and the kept x_i, y_j under their own names
    R = build_restricted(group(spec), parameter(spec, ctag, 1))
    calls, spanning = [], R._orbit_spanning
    monkeypatch.setattr(R, "_orbit_spanning",
                        lambda side: calls.append(side) or spanning(side))
    R.center()
    assert sorted(calls) == ["x", "y"]
    # ``generators`` lists x_0, y_0, x_1, y_1, ... and then the W generators
    vec = dict(zip([(side, i) for i in range(R.group.n) for side in "xy"]
                   + list(R.group.generators),
                   (v for v, _deg in R.generators)))
    assert R._certificate_generators == (
        [(s, vec[s]) for s in R.group.generators]
        + [(f"{side}{i + 1}", vec[side, i])
           for side in "xy" for i in spanning(side)])


def _flip_y_commutator_term(R, monkeypatch):
    """``_adjoint`` with the sign of its [y_j, x^a] u y^b term flipped."""
    adjoint, mult = R._adjoint, R.group.mult

    def flipped(gen, m):
        out = adjoint(gen, m)
        if gen[0] == "y":
            a, u, b = m
            _axpy(out, R._reduce_terms({
                (e, mult(s, u), b): c
                for (e, s), c in R.algebra._comm_mono(gen[1], a).items()}),
                F(2))
        return out

    monkeypatch.setattr(R, "_adjoint", flipped)


@pytest.mark.parametrize("spec", ["I2:4", "Sn:3:reduced"])
def test_a_flipped_y_term_at_zero_leaves_the_true_center(spec, monkeypatch):
    # at c = 0, [y_j, x^a] is 0, so the flip changes no constraint
    true = restricted(spec, "zero")
    R = build_restricted(group(spec), parameter(spec, "zero"))
    _flip_y_commutator_term(R, monkeypatch)
    for d in R.degree_slices:
        assert R._center_slice(d) == true._center_slice(d), d


def test_a_flipped_y_term_at_generic_c_shrinks_the_center(monkeypatch):
    # at generic c the flip imposes a constraint that central vectors break:
    # Z_0 shrinks to central vectors that the certificate accepts, as it
    # checks only that what is solved is central, and route 2 then
    # disagrees with linkage
    R = build_restricted(group("I2:4"), parameter("I2:4", "generic", 1))
    _flip_y_commutator_term(R, monkeypatch)
    assert len(R.degree_zero_center()) == 1
    assert not R.cm_partition(verify=False).route_agreement


@pytest.mark.parametrize("spec,ctag,top", [
    ("Zm:8", "zero", 14), ("Zm:8", "generic", 14), ("Zm:10", "zero", 18),
    ("Zm:10", "generic", 18)])
def test_degree_cap_covers_every_restricted_vector(spec, ctag, top):
    # a vector x^a w y^b has |a|, |b| <= N, the number of reflections; Z_d
    # reaches past the default degree cap, and the certificate multiplies it
    g = group(spec)
    R = build_restricted(g, parameter(spec, ctag, 1))
    assert R.algebra.degree_cap == 2 * len(g.reflections) >= top
    assert max(sum(a) + sum(b) for z in R.center() for a, _w, b in z) == top


def test_a_short_degree_cap_is_refused_up_front():
    # Zm:8 has N = 7 reflections: the certificate multiplies terms of total
    # degree 14, past the default cap of 12
    g = group("Zm:8")
    par = Parameter.generic(g, 1)
    with pytest.raises(InvalidInput, match=r"cap 12 .* 2N = 14 .*"
                                           r"build_restricted"):
        RestrictedCherednikAlgebra(CherednikAlgebra(g, par))
    R = RestrictedCherednikAlgebra(CherednikAlgebra(g, par, degree_cap=14))
    assert R.degree_zero_center() == \
        build_restricted(g, par).degree_zero_center()


@pytest.mark.parametrize("spec,ctag,seed", [
    ("Sn:3:reduced", "zero", 0), ("Sn:3:reduced", "generic", 1),
    ("I2:3", "generic", 1)])
def test_center_is_solved_only_where_it_is_read(spec, ctag, seed):
    g = group(spec)
    R = build_restricted(g, parameter(spec, ctag, seed))
    R.cm_partition(verify=False)
    assert list(R._center_slices) == [0]
    R.cm_partition(verify=True)
    assert set(R._center_slices) == {
        d for d in R.degree_slices if d >= 0}


@pytest.mark.parametrize("spec", CM_GRID)
def test_zero_parameter_is_one_block_led_by_b_zero(spec):
    # the premise of marking the other irreducibles in `characters` at c = 0
    R = restricted(spec, "zero")
    blocks = R.cm_partition(verify=False).blocks
    assert len(blocks) == 1
    assert R.group.b_invariant(R.group.irrep(blocks[0].distinguished)) == 0


@pytest.mark.parametrize("spec", ["Zm:3", "Sn:3:reduced", "I2:4"])
def test_skew_center_agrees_on_every_slice_at_zero(spec):
    # skew_center solves Z_d from skew-group commutators with every
    # generator, _center_slice from the direct adjoint actions of fewer
    R = restricted(spec, "zero")
    for d in R.degree_slices:
        assert R.skew_center(d) == R._center_slice(d), d


def test_skew_center_refuses_a_nonzero_parameter():
    with pytest.raises(InvalidInput, match="c = 0"):
        restricted("Zm:3", "generic", 1).skew_center(0)


def test_distinguished_rep_tie_detected():
    with pytest.raises(TieDetected):
        distinguished_rep(["a", "b"], {"a": 1, "b": 1})
    assert distinguished_rep(["a", "b"], {"a": 0, "b": 1}) == "a"
    assert distinguished_rep(["a"], {"a": 5}) == "a"


def test_partition_payload_schema():
    part = partition("Zm:2", "1")
    payload = part.payload()
    assert set(payload) >= {"group", "parameter", "blocks", "verified",
                            "generic_confirmed", "route_agreement"}
    for blk in payload["blocks"]:
        assert set(blk) == {"labels", "b_invariants", "distinguished"}


def test_cm_s3_permutation_rep_matches_reduced():
    """The same group in its 3-dimensional permutation representation (one
    invariant direction) yields the same block partition."""
    part_perm = partition("Sn:3:permutation", "1")
    part_red = partition("Sn:3:reduced", "1")
    shape = lambda p: sorted(sorted(map(str, b.labels)) for b in p.blocks)
    assert shape(part_perm) == shape(part_red)
    assert {str(b.distinguished) for b in part_perm.blocks} == \
        {str(b.distinguished) for b in part_red.blocks}


def test_block_count_equals_idempotent_count():
    for spec, ctag in (("Zm:3", "generic"), ("Sn:3:reduced", "1"),
                       ("Zm:2", "zero")):
        part = partition(spec, ctag)
        R = restricted(spec, ctag)
        assert len(part.blocks) == R.block_count()


def test_nonzero_fiber_point():
    """The quotient at b != 0 keeps dimension |W|^3 (free fiber) and its
    block count matches the fiber geometry of the two-sided quotient."""
    import random
    g = build_zm(2)
    for par, expected_blocks in ((Parameter.zero(g), 1),
                                 (Parameter.constant(g, 1), 2)):
        R = build_restricted(g, par, b_point=(F(1),))
        assert R.dim == 8 and not R.graded
        basis = _basis(R)
        rng = random.Random(2)
        for _ in range(40):
            i, j, k = (basis[rng.randrange(R.dim)] for _ in range(3))
            lhs = R.multiply(R.multiply({i: F(1)}, {j: F(1)}), {k: F(1)})
            rhs = R.multiply({i: F(1)}, R.multiply({j: F(1)}, {k: F(1)}))
            assert lhs == rhs
        # at c = 0 the two fiber roots are exchanged by the group: one
        # point with nilpotents; at c = 1 the fiber splits into two
        assert R.block_count() == expected_blocks


@pytest.mark.parametrize("spec", CM_GRID)
@pytest.mark.parametrize("ctag", ["zero", "generic"])
def test_block_count_is_the_number_of_linkage_classes(spec, ctag):
    R = restricted(spec, ctag, 1)
    assert R.block_count() == len(R._linkage_classes())


@pytest.mark.parametrize("spec,ctag,seed,point,conductor,blocks", [
    ("Sn:3:reduced", "1", 0, (1, 0), 12, 4),
    ("I2:3", "generic", 2, (1, 2), 24, 4),
    ("I2:4", "1", 0, (1, 0), 4, 3)],
    ids=["Sn:3:reduced-b=(1,0)", "I2:3-generic:2-b=(1,2)", "I2:4-b=(1,0)"])
def test_block_count_needs_no_split_field(spec, ctag, seed, point, conductor,
                                          blocks):
    # off the graded fiber Z_0 need not split over the field of the group
    # (it does not for S_3 and I_2(3) here); the trace form counts its
    # blocks all the same
    g = group(spec)
    par = parameter(spec, ctag, seed)
    point = tuple(map(F, point))
    assert build_restricted(g, par, b_point=point).block_count() == blocks
    # oracle: the same matrices and (constant) parameter over
    # Q(zeta_conductor), where Z_0 splits into primitive idempotents
    from cherednik.comalg import idempotents_of_commutative_algebra
    (value,) = set(par.values.values())
    gN = build_from_generators(
        conductor, [g.matrix(w) for w in g.generators.values()])
    RN = build_restricted(gN, Parameter.constant(gN, value), b_point=point)
    prods, unit = _center_structure(RN)
    assert len(idempotents_of_commutative_algebra(
        prods, unit, conductor=conductor)) == blocks


@pytest.mark.parametrize("spec,ctag,seed,point,blocks", [
    ("I2:4", "generic", 1, None, 5), ("Zm:3", "zero", 0, None, 1),
    ("Sn:3:reduced", "1", 0, (1, 0), 4)],
    ids=["I2:4-generic:1", "Zm:3-zero", "Sn:3:reduced-b=(1,0)"])
def test_block_count_reads_no_product_table(spec, ctag, seed, point, blocks,
                                            monkeypatch):
    # the only products are the certificate's on Z_0
    R = build_restricted(group(spec), parameter(spec, ctag, seed),
                         b_point=point and tuple(map(F, point)))
    calls = _count_products(R, monkeypatch)
    assert R.block_count() == blocks
    assert list(R._center_slices) == [0]
    assert 0 < len(calls) <= _certificate_products(R)


def test_cm_partition_requires_graded_fiber():
    from cherednik.errors import CherednikError
    g = build_zm(2)
    R = build_restricted(g, Parameter.zero(g), b_point=(F(1),))
    with pytest.raises(CherednikError):
        R.cm_partition()


def test_ungraded_head_at_free_orbit():
    # over the free fiber at c = 0 the standard module is already simple
    g = build_zm(2)
    R = build_restricted(g, Parameter.zero(g), b_point=(F(1),))
    mod = R.baby_verma(g.irrep("chi0"))
    assert mod.dim == 2 and mod.weights is None
    assert R.simple_head(mod).dim == 2


@pytest.mark.parametrize("spec,point", [
    ("Zm:2", (1, 2)), ("Zm:2", ()), ("Sn:3:reduced", (1, 0, 0)),
    ("Sn:3:reduced", (1,))])
@pytest.mark.parametrize("build", [
    lambda g, par, p: build_restricted(g, par, b_point=p),
    lambda g, par, p: StandardModules(CherednikAlgebra(g, par), p),
    lambda g, par, p: make_context(g, par, p),
], ids=["restricted", "modules", "context"])
def test_a_point_of_the_wrong_length_is_refused(spec, point, build):
    g = group(spec)
    message = f"needs n = {g.n} coordinates, got {len(point)}"
    with pytest.raises(DimensionMismatch, match=message):
        build(g, parameter(spec, "1"), tuple(F(v) for v in point))


def _dense_monomial(mod, key):
    """X^a W_w Y^b for key (a, w, b), multiplied out from the module's own
    matrices: the reference for ``act_columns`` and ``apply``."""
    a, w, b = key
    mat = _dense(mod._columns(("w", w)))
    for y, e in zip(map(_dense, mod.y), b):
        for _ in range(e):
            mat = mat_mul(mat, y)
    for x, e in zip(map(_dense, mod.x), a):
        for _ in range(e):
            mat = mat_mul(x, mat)
    return mat


@pytest.mark.parametrize("spec,ctag,point", [
    (spec, ctag, None) for spec in ("Zm:3", "Sn:3:reduced", "I2:3")
    for ctag in ("zero", "generic")] + [("Sn:3:reduced", "1", (1, 0))],
    ids=lambda v: "graded" if v is None else str(v))
def test_the_module_action_is_the_monomial_product(spec, ctag, point):
    # every basis key on every baby Verma and head, against X^a W_w Y^b;
    # then apply on a random sparse vector against mat_vec of its matrix
    g = group(spec)
    b_point = None if point is None else tuple(map(F, point))
    R = build_restricted(g, parameter(spec, ctag, 1), b_point=b_point)
    rng = random.Random(3)
    for rep in g.irreps:
        verma = R.baby_verma(rep)
        for mod in (verma, R.simple_head(verma)):
            for key in _basis(R):
                assert _dense(mod.act_columns({key: F(1)})) == \
                    _dense_monomial(mod, key), (rep.label, mod.dim, key)
            terms = {key: F(rng.choice((-2, -1, 1, 3)))
                     for key in rng.sample(_basis(R), 5)}
            vec = {k: F(rng.randint(1, 4)) for k in
                   rng.sample(range(mod.dim), min(3, mod.dim))}
            dense = mat_vec(_dense(mod.act_columns(terms)),
                            [vec.get(k, ZERO) for k in range(mod.dim)])
            assert mod.apply(terms, vec) == \
                {i: v for i, v in enumerate(dense) if v}, (rep.label, mod.dim)


@pytest.mark.parametrize("spec,ctag,point", [
    (spec, ctag, None) for spec in CM_GRID for ctag in ("zero", "generic")]
    + [("Sn:3:reduced", "1", (1, 0))],
    ids=lambda v: "graded" if v is None else str(v))
def test_module_actions_are_stored_as_sparse_columns(spec, ctag, point):
    # every stored x, y and class-representative w matrix, on every baby
    # Verma and head: dim columns, each a dict from a basis index to a
    # nonzero coefficient
    g = group(spec)
    M = StandardModules(CherednikAlgebra(g, parameter(spec, ctag, 1)),
                        None if point is None else tuple(map(F, point)))
    for rep in g.irreps:
        verma = M.baby_verma(rep)
        for mod in (verma, M.simple_head(verma)):
            mats = mod.x + mod.y + [mod._columns(("w", w))
                                    for w in g.class_representatives]
            for mat in mats:
                assert len(mat) == mod.dim, (rep.label, mod.dim)
                for col in mat:
                    assert type(col) is dict, (rep.label, mod.dim)
                    assert all(type(i) is int and 0 <= i < mod.dim and v
                               for i, v in col.items()), (rep.label, col)


def _end_by_reduced_projector(R, mod):
    """endomorphism_dimension through the |W|^3 algebra: the isotypic
    projector reduced into it, then acting as a matrix."""
    rep, g = mod.rep, R.group
    proj = {}
    for w in range(g.order):
        _axpy(proj, R.reduce_pbw(R.algebra.grp(w)),
              F(rep.dim, g.order) * rep.char(g.inv(w)))
    mat = _dense(mod.act_columns(proj))
    return rank([mat_vec(mat, [v.get(k, ZERO) for k in range(mod.dim)])
                 for v in R.singular_vectors(mod)], mod.dim) // rep.dim


def _seeded_pbw(H, rng, top):
    """Three terms x^a w y^b; the first has x-degree and the second
    y-degree above the coinvariant top ``top``."""
    terms = {}
    for k in range(3):
        a = [rng.randrange(top + 2) for _ in range(H.n)]
        b = [rng.randrange(top + 2) for _ in range(H.n)]
        if k == 0:
            a[0] += top + 1
        elif k == 1:
            b[0] += top + 1
        terms[(tuple(a), rng.randrange(H.group.order), tuple(b))] = \
            F(rng.choice((-3, -1, 1, 2)))
    return PBWElement(H, terms)


@pytest.mark.parametrize("spec", CM_GRID)
@pytest.mark.parametrize("ctag,seed", [("zero", 0), ("generic", 1)])
def test_module_actions_match_the_reduced_algebra(spec, ctag, seed):
    # the module layer acts by exponents; the oracle reduces into the
    # |W|^3 algebra first and acts by the reduced terms
    R = restricted(spec, ctag, seed)
    H = R.algebra
    e = R.reduce_pbw(H.symmetrizer())
    top = max(sum(m) for m in R.x_basis)
    rng = random.Random(11)
    for rep in R.group.irreps:
        mod, head = R.baby_verma(rep), R.simple_module(rep)
        assert R.dim_e_simple(rep) == rank(_dense(head.act_columns(e)),
                                           head.dim)
        for m in (mod, head):
            assert R.endomorphism_dimension(m) == \
                _end_by_reduced_projector(R, m), (rep.label, m.dim)
        for _ in range(3):
            u = _seeded_pbw(H, rng, top)
            assert act_on_baby_verma(u, mod) == \
                _dense(mod.act_columns(R.reduce_pbw(u))), (rep.label, u)


def test_the_module_layer_builds_no_algebra(monkeypatch):
    # S_4 has |W|^3 = 13824, past RESTRICTED_CAP
    def refuse(*args, **kwargs):
        raise AssertionError("the |W|^3 algebra was built")

    monkeypatch.setattr(RestrictedCherednikAlgebra, "__init__", refuse)
    g = group("Sn:4:reduced")
    for par, sizes in ((Parameter.zero(g), [5]),
                       (Parameter.generic(g, 1), [1] * 5)):
        M = StandardModules(CherednikAlgebra(g, par))
        assert sorted(map(len, M._linkage_classes())) == sizes
        if len(sizes) == 5:   # Gordon: every block a singleton at generic c
            assert [M.dim_e_simple(rep) for rep in g.irreps] == [1] * 5
        assert not any(hasattr(M, name)
                       for name in ("basis", "index", "y_basis"))
    gp = group("Sn:4:permutation")
    mod = cherednik.baby_verma(gp, Parameter.generic(gp, 1), (3, 1))
    assert mod.dim == 24 * 3 and not hasattr(mod.parent, "basis")


def test_act_on_baby_verma_dimension_mismatch():
    from cherednik.errors import DimensionMismatch
    R = restricted("Zm:2", "1")
    mod = R.baby_verma(R.group.irrep("chi0"))
    other = algebra("Zm:3", "zero")
    with pytest.raises(DimensionMismatch):
        act_on_baby_verma(other.one(), mod)


def test_module_level_operations():
    from cherednik.restricted import baby_verma
    g = group("Zm:2")
    par = parameter("Zm:2", "1")
    mod = baby_verma(g, par, "chi0")
    assert mod.dim == 2
    head = mod.parent.simple_module(g.irrep("chi0"))
    assert head.dim == 2
    part = build_restricted(g, par).cm_partition(verify=False)
    assert len(part.blocks) == 2
    assert build_restricted(g, par).dim_e_simple(g.irrep("chi0")) == 1


def test_simple_module_refuses_a_head_that_is_not_simple(monkeypatch):
    from cherednik.errors import NotSimpleHead
    R = build_restricted(group("Zm:2"), parameter("Zm:2", "1"))
    monkeypatch.setattr(R, "is_simple", lambda mod: False)
    with pytest.raises(NotSimpleHead, match="'chi0' is not simple"):
        R.simple_module(R.group.irrep("chi0"))


def test_baby_verma_routes_through_stabilizer():
    from cherednik.restricted import baby_verma
    g = group("Sn:3:permutation")
    par = parameter("Sn:3:permutation", "1")
    mod = baby_verma(g, par, (2,), p=(F(1), F(1), F(0)))
    # standard module of the order-2 stabilizer: dim |W_p| * dim rep = 2
    assert mod.dim == 2


def test_graded_character_of_baby_verma():
    """As graded W-modules Delta(rep) = C[h]^coW (x) rep, so degree d of the
    module's trace at w is chi_rep(w) times the q^d coefficient of
    prod_i (1 - q^{d_i}) / det(1 - q w^{-1}|_h): a second route for the w
    action that ``_induced`` builds."""
    from cherednik.invariants import _h_series
    from cherednik.series import product_of_binomials
    for spec in CM_GRID + ("I2:5", "Sn:4:reduced"):
        g = group(spec)
        top = sum(d - 1 for d in g.degrees)
        binomials = product_of_binomials(g.degrees).coeffs
        modules = StandardModules(algebra(spec, "1"))
        for rep in g.irreps:
            traces = modules._graded_character(modules.baby_verma(rep))
            assert set(traces) <= set(range(top + 1))
            for c, w in enumerate(g.class_representatives):
                h = _h_series(g, g.inv(w), top)
                for d in range(top + 1):
                    coinv = sum((v * h[d - e] for e, v in binomials.items()
                                 if e <= d), ZERO)
                    got = traces.get(d, [ZERO] * len(g.conjugacy_classes))[c]
                    assert got == rep.char(w) * coinv, (spec, rep.label, w, d)
