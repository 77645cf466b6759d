import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cherednik
from cherednik.comalg import CommutativeAlgebra, idempotents_of_commutative_algebra
from cherednik.cyclotomic import Cyc
from cherednik.errors import FieldExtensionNeeded, NotCommutative

F = Fraction


def poly_quotient_algebra(relation):
    """Q[u]/(u^2 - relation[1] u - relation[0]) as structure constants."""
    c0, c1 = relation
    prods = [
        [[F(1), F(0)], [F(0), F(1)]],
        [[F(0), F(1)], [c0, c1]],
    ]
    return prods, [F(1), F(0)]


def test_split_idempotent():
    prods, unit = poly_quotient_algebra((F(0), F(1)))  # u^2 = u
    idems = idempotents_of_commutative_algebra(prods, unit)
    assert sorted(idems) == sorted([[F(0), F(1)], [F(1), F(-1)]])


def test_local_algebra():
    prods, unit = poly_quotient_algebra((F(0), F(0)))  # u^2 = 0
    assert idempotents_of_commutative_algebra(prods, unit) == [[F(1), F(0)]]


def test_crt_split():
    prods, unit = poly_quotient_algebra((F(1), F(0)))  # u^2 = 1
    idems = idempotents_of_commutative_algebra(prods, unit)
    assert sorted(idems) == sorted([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])


def test_field_extension_needed():
    prods, unit = poly_quotient_algebra((F(-1), F(0)))  # u^2 = -1
    with pytest.raises(FieldExtensionNeeded) as exc:
        idempotents_of_commutative_algebra(prods, unit)
    assert exc.value.required_conductor == 4


def test_field_extension_sqrt2():
    prods, unit = poly_quotient_algebra((F(2), F(0)))  # u^2 = 2
    with pytest.raises(FieldExtensionNeeded) as exc:
        idempotents_of_commutative_algebra(prods, unit)
    assert exc.value.required_conductor == 8


def test_splits_over_larger_field():
    # over Q(zeta_4), u^2 = -1 splits into two idempotents
    prods, unit = poly_quotient_algebra((F(-1), F(0)))
    prods = [[[Cyc.of(v, 4) for v in vec] for vec in row] for row in prods]
    unit = [Cyc.of(v, 4) for v in unit]
    idems = idempotents_of_commutative_algebra(prods, unit, conductor=4)
    assert len(idems) == 2
    alg = CommutativeAlgebra(prods, unit, conductor=4)
    for e in idems:
        assert alg.mul(e, e) == e
    assert all(not v for v in alg.mul(idems[0], idems[1]))


def test_not_commutative_detected():
    # 2x2 upper triangular matrices: e11, e12, e22 basis; e11*e12 != e12*e11
    def vec(*vals):
        return [F(v) for v in vals]
    prods = [
        [vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 0)],
        [vec(0, 0, 0), vec(0, 0, 0), vec(0, 1, 0)],
        [vec(0, 0, 0), vec(0, 0, 0), vec(0, 0, 1)],
    ]
    with pytest.raises(NotCommutative):
        idempotents_of_commutative_algebra(prods, vec(1, 0, 1))


def test_orthogonality_completeness_stability():
    # product ring Q[u]/(u^3 - u) = Q x Q x Q via u diag(0, 1, -1)
    prods = [
        [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]],
        [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]],
        [[F(0), F(0), F(1)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]],
    ]
    unit = [F(1), F(0), F(0)]
    alg = CommutativeAlgebra(prods, unit)
    idems = idempotents_of_commutative_algebra(prods, unit, seed=11)
    assert len(idems) == 3
    total = [F(0)] * 3
    for e in idems:
        assert alg.mul(e, e) == e
        total = [a + b for a, b in zip(total, e)]
    assert total == unit
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            if i != j:
                assert all(not v for v in alg.mul(e, f))


def test_radical_via_trace_form():
    # Q[u]/(u^2): radical is span(u)
    prods, unit = poly_quotient_algebra((F(0), F(0)))
    alg = CommutativeAlgebra(prods, unit)
    rad = alg.radical_basis()
    assert len(rad) == 1
    assert rad[0][0] == 0 and rad[0][1] != 0


def test_determinism_under_seed():
    prods, unit = poly_quotient_algebra((F(1), F(0)))
    a = idempotents_of_commutative_algebra(prods, unit, seed=5)
    b = idempotents_of_commutative_algebra(prods, unit, seed=5)
    assert a == b


def test_importing_the_package_leaves_sympy_unloaded():
    # sympy is imported on the first factorization, not with the package
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cherednik.__file__)))
    code = "import sys, cherednik; sys.exit('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0
