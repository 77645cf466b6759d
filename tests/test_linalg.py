from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from cherednik.cyclotomic import Cyc, IntCyc
from cherednik.linalg import (ONE, ZERO, Echelon, _add_term, _axpy, echelon,
                              identity, kernel_basis, mat_vec, rank, rref,
                              solve)

F = Fraction


def _scalar(draw, n):
    """A small exact scalar of Q (n = 1) or Q(zeta_n); often 0."""
    if draw(st.booleans()):
        return ZERO
    if n == 1:
        return F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    exps = draw(st.sets(st.integers(0, 3), min_size=1, max_size=2))
    return Cyc(n, {e: F(draw(st.integers(-2, 2))) for e in exps})


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    """(rows, ncols) over Q or Q(zeta_5), sometimes with a dependent row."""
    n = draw(st.sampled_from([1, 5]))
    ncols = draw(st.integers(1, max_cols))
    rows = [[_scalar(draw, n) for _ in range(ncols)]
            for _ in range(draw(st.integers(0, max_rows)))]
    if rows and draw(st.booleans()):
        c = _scalar(draw, n)
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    return rows, ncols


@st.composite
def keyed_systems(draw):
    """(keys, images) over Q or Q(zeta_4): distinct tuple keys in shuffled
    order, each with a sparse image {target tuple: coeff}; sometimes one
    image is a combination of two others."""
    n = draw(st.sampled_from([1, 4]))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         unique=True, max_size=7))
    keys = draw(st.permutations(keys))
    targets = [("t", i) for i in range(draw(st.integers(0, 5)))]
    images = {}
    for key in keys:
        vec = {t: _scalar(draw, n) for t in targets}
        images[key] = {t: x for t, x in vec.items() if x}
    if len(keys) >= 3 and draw(st.booleans()):
        images[keys[2]] = _axpy(dict(images[keys[1]]), images[keys[0]],
                                _scalar(draw, n))
    return keys, images


def _nullspace(mat, ncols):
    """A basis of {v : mat v = 0} by textbook Gauss-Jordan on dense rows,
    one vector per free column."""
    rows, pivots = [list(r) for r in mat], []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in (f for f in range(ncols) if f not in pivots):
        vec = [ZERO] * ncols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        basis.append(vec)
    return basis


@st.composite
def axpy_cases(draw):
    """(u, v, c): sparse maps without zeros over Q or Q(zeta_5) and a
    scalar; c * v often cancels some entries of u."""
    n = draw(st.sampled_from([1, 5]))

    def sparse():
        keys = draw(st.sets(st.integers(0, 5), max_size=5))
        vec = {k: _scalar(draw, n) for k in keys}
        return {k: x for k, x in vec.items() if x}

    u, v, c = sparse(), sparse(), _scalar(draw, n)
    if c and u:
        for k in draw(st.sets(st.sampled_from(sorted(u)))):
            v[k] = -u[k] / c
    return u, v, c


def _combination(coeffs, rows, ncols):
    out = [ZERO] * ncols
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _dense_kernel(rows, ncols):
    """The kernel of the dense rows through ``kernel_basis``, as dense
    vectors."""
    ker = kernel_basis(range(ncols), lambda j: {
        i: row[j] for i, row in enumerate(rows) if row[j]})
    return [[vec.get(j, ZERO) for j in range(ncols)] for vec in ker]


def test_kernel_identity_is_trivial():
    assert _dense_kernel(identity(3), 3) == []


def test_kernel_zero_map():
    assert len(_dense_kernel([[ZERO] * 3, [ZERO] * 3], 3)) == 3


def test_kernel_rank_one():
    ker = _dense_kernel([[ONE, ONE], [ONE, ONE]], 2)
    assert len(ker) == 1
    v = ker[0]
    # proportional to (1, -1)
    assert v[0] * (-1) == v[1]
    assert all(a + b == 0 for a, b in [(v[0], v[1])])


@settings(max_examples=80, deadline=None)
@given(matrices())
@example(([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]], 3))
def test_kernel_count_matches_rank(mat):
    rows, ncols = mat
    r = rank(rows, ncols)
    ker = _dense_kernel(rows, ncols)
    assert r + len(ker) == ncols
    for v in ker:
        assert all(not x for x in mat_vec(rows, v))


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_rref_does_not_depend_on_row_order(mat, data):
    rows, ncols = mat
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = [rows[i] for i in order]
    assert rref(shuffled, ncols) == rref(rows, ncols)
    ech = Echelon(ncols)
    gained = sum(ech.add(row) for row in shuffled)
    assert gained == len(ech) == rank(rows, ncols)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_reduce_rebuilds_span_vectors(mat, data):
    rows, ncols = mat
    ech = echelon(rows, ncols)
    coeffs = [_scalar(data.draw, 1) for _ in rows]
    vec = _combination(coeffs, rows, ncols)
    residual, found = ech.reduce(vec)
    assert residual == {}
    pivots = ech.pivots()
    dense_rows = [[ech.rows[p].get(j, ZERO) for j in range(ncols)]
                  for p in pivots]
    assert _combination([found.get(p, ZERO) for p in pivots], dense_rows,
                        ncols) == vec
    # a unit vector at a free column is not in the span
    for f in range(ncols):
        if f not in ech.rows:
            residual, _ = ech.reduce({f: ONE})
            assert residual.get(f) == ONE


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_solve_resubstitutes_exactly(mat, data):
    a, ncols = mat
    x = [_scalar(data.draw, 1) for _ in range(ncols)]
    b = mat_vec(a, x)
    sol = solve(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == b
    # pivots only among the first ncols columns; b is carried along
    red, piv = rref([row + [v] for row, v in zip(a, b)], ncols)
    assert all(p < ncols for p in piv)
    carried = [ZERO] * ncols
    for row, p in zip(red, piv):
        carried[p] = row[ncols]
    assert mat_vec(a, carried) == b


@settings(max_examples=120, deadline=None)
@given(axpy_cases())
def test_axpy_is_the_dense_sum_without_zeros(case):
    u, v, c = case
    v_before = dict(v)
    out = dict(u)
    assert _axpy(out, v, c) is out
    for k in set(u) | set(v):
        assert out.get(k, ZERO) == u.get(k, ZERO) + c * v.get(k, ZERO)
    assert set(out) <= set(u) | set(v)
    assert all(out.values())
    assert v == v_before


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_add_term_sums_without_zeros(data):
    n = data.draw(st.sampled_from([1, 5]))
    terms = [(k, _scalar(data.draw, n))
             for k in data.draw(st.lists(st.integers(0, 3), max_size=8))]
    if terms:
        # undo some terms so that sums cancel
        undone = data.draw(st.lists(st.sampled_from(terms)))
        terms += [(k, -x) for k, x in undone]
    out, dense = {}, dict.fromkeys(range(4), ZERO)
    for k, x in terms:
        _add_term(out, k, x)
        dense[k] = dense[k] + x
        assert all(out.values())
    assert out == {k: x for k, x in dense.items() if x}


@settings(max_examples=120, deadline=None)
@given(keyed_systems())
@example(([(0, 1), (3, 0), (1, 1)],
          {(0, 1): {("t", 0): F(1)}, (3, 0): {("t", 0): F(2)}, (1, 1): {}}))
def test_kernel_rows_are_the_keyed_rref_of_the_kernel(system):
    keys, images = system
    rows = kernel_basis(keys, images.__getitem__)
    pos = {key: t for t, key in enumerate(keys)}
    targets = sorted({t for img in images.values() for t in img})
    dense = [[images[key].get(t, ZERO) for key in keys] for t in targets]
    # every row is sent to 0
    for row in rows:
        sent = {}
        for key, c in row.items():
            _axpy(sent, images[key], c)
        assert sent == {}, row
    # RREF over the key order: entries in key order, a leading 1 at each
    # pivot, pivots increasing and absent from every other row
    leads = [pos[next(iter(row))] for row in rows]
    assert leads == sorted(set(leads))
    for row, lead in zip(rows, leads):
        assert [pos[key] for key in row] == sorted(pos[key] for key in row)
        assert row[keys[lead]] == ONE and all(row.values())
        assert sum(keys[lead] in other for other in rows) == 1
    assert len(rows) == len(keys) - rank(dense, len(keys))
    # the echelon of a kernel basis solved by plain Gauss-Jordan
    ech = echelon(_nullspace(dense, len(keys)), len(keys))
    assert [list(row.items()) for row in rows] == [
        [(keys[t], c) for t, c in sorted(ech.rows[p].items())]
        for p in ech.pivots()]


def test_rank_rref_and_solve_read_a_sparse_row_to_its_largest_column():
    # a sparse row's width is its largest column + 1, not its entry count
    assert rank([{5: F(1)}]) == 1
    assert rref([{0: F(1), 3: F(2)}]) == ([[F(1), F(0), F(0), F(2)]], [0])
    assert solve([{1: F(2)}], [F(1)]) == [F(0), F(1, 2)]


def test_solve_inconsistent_returns_none():
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_cyclotomic_entries():
    z = Cyc.zeta(4)
    rows = [[z, ONE], [ONE, -z]]
    # determinant = -z^2 - 1 = 0, so a kernel vector exists
    ker = _dense_kernel(rows, 2)
    assert len(ker) == 1
    assert all(not v for v in mat_vec(rows, ker[0]))


def test_rref_pivots():
    red, piv = rref([[F(0), F(2)], [F(3), F(0)]], 2)
    assert piv == [0, 1]
    assert red == [[F(1), F(0)], [F(0), F(1)]]


def test_exact_matrix_api():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert rank(m) == 2
    assert _dense_kernel(m, 2) == []
    sol = solve(m, [F(5), F(11)])
    assert mat_vec(m, sol) == [F(5), F(11)]


def _sequential_rref(rows, ncols, width):
    """{pivot: dense row} by textbook Gauss-Jordan over the scalars as
    given, one row at a time: each row is reduced by the rows kept so far
    and kept, scaled to a leading 1, when it is nonzero in the first ncols
    columns (the columns past ncols are augmented)."""
    kept = {}
    for row in rows:
        r = [row.get(j, ZERO) if isinstance(row, dict) else row[j]
             for j in range(width)]
        r = [x if isinstance(x, Cyc) else F(x) for x in r]
        for p, k in kept.items():
            if r[p]:
                c = r[p]
                r = [a - c * b for a, b in zip(r, k)]
        p = next((j for j in range(ncols) if r[j]), None)
        if p is None:
            continue
        r = [a / r[p] for a in r]
        for q, k in kept.items():
            if k[p]:
                c = k[p]
                kept[q] = [a - c * b for a, b in zip(k, r)]
        kept[p] = r
    return kept


def _rational(draw):
    """0, a large int, or a Fraction with a large numerator and
    denominator."""
    kind = draw(st.sampled_from(["zero", "zero", "int", "fraction"]))
    if kind == "zero":
        return 0
    if kind == "int":
        return draw(st.integers(-10 ** 12, 10 ** 12))
    return F(draw(st.integers(-10 ** 18, 10 ** 18)),
             draw(st.integers(1, 10 ** 15)))


@st.composite
def rational_systems(draw):
    """(rows, ncols, width, vecs): rows of int and Fraction entries, dense
    or sparse, over ncols pivot columns and up to two augmented ones; some
    rows are combinations of earlier ones; vecs to reduce, some in the
    span."""
    ncols = draw(st.integers(1, 6))
    width = ncols + draw(st.integers(0, 2))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = _rational(draw), _rational(draw)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [_rational(draw) for _ in range(width)]
        rows.append(row)
    vecs = [[_rational(draw) for _ in range(width)] for _ in range(3)]
    if rows:
        s = _rational(draw)
        vecs.append([s * x for x in draw(st.sampled_from(rows))])
    sparse = draw(st.booleans())
    as_given = [{j: x for j, x in enumerate(r) if x} if sparse else r
                for r in rows]
    return as_given, ncols, width, vecs


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_integer_rows_match_a_fraction_gauss_jordan(system):
    rows, ncols, width, vecs = system
    ech = echelon(rows, ncols)
    kept = _sequential_rref(rows, ncols, width)
    assert ech.pivots() == sorted(kept)
    for p, row in kept.items():
        got = ech.rows[p]
        assert got == {j: x for j, x in enumerate(row) if x}
        assert all(type(x) is Fraction for x in got.values())
        assert all(type(x) is int for x in ech._rows[p].values())
    _assert_canonical_storage(ech)
    for vec in vecs:
        residual, coeffs = ech.reduce(vec)
        expected = list(vec)
        for p, row in kept.items():
            if vec[p]:
                expected = [a - vec[p] * b for a, b in zip(expected, row)]
        assert residual == {j: x for j, x in enumerate(expected) if x}
        assert coeffs == {p: vec[p] for p in kept if vec[p]}
        assert all(type(x) is Fraction
                   for x in (*residual.values(), *coeffs.values()))


def _assert_canonical_storage(ech):
    """Every stored row is int and IntCyc numerators over a positive int
    denominator, which is the (int) numerator at the pivot, with integer
    content 1."""
    for p, nums in ech._rows.items():
        den = ech._dens[p]
        assert type(den) is int and den > 0
        assert all(type(x) in (int, IntCyc) for x in nums.values())
        assert type(nums[p]) is int and nums[p] == den
        assert gcd(*(c for x in nums.values()
                     for c in ((x,) if type(x) is int else x.num))) == 1


def test_a_cyc_row_after_rational_rows_joins_the_integer_rows():
    z = Cyc.zeta(5)
    rows = [[3, F(10 ** 15, 7), 0, 5],
            [F(-2, 3), 1, F(4, 10 ** 12), 0],
            [1, z, 0, z * z],
            [0, 2, F(1, 3), 1]]
    ech = echelon(rows, 3)
    kept = _sequential_rref(rows, 3, 4)
    assert ech.pivots() == sorted(kept) == [0, 1, 2]
    for p, row in kept.items():
        got = ech.rows[p]
        assert got == {j: x for j, x in enumerate(row) if x}
        assert all(type(x) in (Fraction, Cyc) for x in got.values())
    residual, coeffs = ech.reduce([F(1, 2), 0, 0, 7])
    assert coeffs == {0: F(1, 2)}
    assert residual == {3: 7 - kept[0][3] / 2}
    assert all(type(x) in (Fraction, Cyc)
               for x in (*residual.values(), *coeffs.values()))
    _assert_canonical_storage(ech)


def _cyclotomic(draw, n):
    """0, a small rational, or a Cyc of Q(zeta_n) with up to three terms
    of exponent below n and small rational coefficients."""
    kind = draw(st.sampled_from(["zero", "rational", "cyc", "cyc"]))
    if kind == "zero":
        return 0
    if kind == "rational":
        return F(draw(st.integers(-20, 20)), draw(st.integers(1, 6)))
    exps = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    return Cyc(n, {e: F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
                   for e in exps})


@st.composite
def cyclotomic_systems(draw):
    """(rows, ncols, width, vecs) over Q(zeta_N), N in {3, 4, 5, 8, 12}:
    rows with Cyc entries mixed with rational rows, dense or sparse, over
    ncols pivot columns and up to two augmented ones; some rows are
    combinations of earlier ones with cyclotomic scalars; vecs to reduce,
    some in the span."""
    n = draw(st.sampled_from([3, 4, 5, 8, 12]))
    ncols = draw(st.integers(1, 5))
    width = ncols + draw(st.integers(0, 2))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["cyc", "rational", "combination"]))
        if kind == "combination" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = _cyclotomic(draw, n), _cyclotomic(draw, n)
            row = [s * x + t * y for x, y in zip(a, b)]
        elif kind == "rational":
            row = [_rational(draw) for _ in range(width)]
        else:
            row = [_cyclotomic(draw, n) for _ in range(width)]
        rows.append(row)
    vecs = [[_cyclotomic(draw, n) for _ in range(width)] for _ in range(2)]
    if rows:
        s = _cyclotomic(draw, n)
        vecs.append([s * x for x in draw(st.sampled_from(rows))])
    sparse = draw(st.booleans())
    as_given = [{j: x for j, x in enumerate(r) if x} if sparse else r
                for r in rows]
    return as_given, ncols, width, vecs


@settings(max_examples=150, deadline=None)
@given(cyclotomic_systems())
def test_integer_rows_over_cyclotomic_fields_match_a_field_gauss_jordan(
        system):
    rows, ncols, width, vecs = system
    ech = echelon(rows, ncols)
    kept = _sequential_rref(rows, ncols, width)
    assert ech.pivots() == sorted(kept)
    for p, row in kept.items():
        got = ech.rows[p]
        assert got == {j: x for j, x in enumerate(row) if x}
        assert all(type(x) in (Fraction, Cyc) for x in got.values())
    _assert_canonical_storage(ech)
    for vec in vecs:
        residual, coeffs = ech.reduce(vec)
        expected = [x if isinstance(x, Cyc) else F(x) for x in vec]
        for p, row in kept.items():
            if vec[p]:
                expected = [a - vec[p] * b for a, b in zip(expected, row)]
        assert residual == {j: x for j, x in enumerate(expected) if x}
        assert coeffs == {p: vec[p] for p in kept if vec[p]}
        assert all(type(x) in (Fraction, Cyc)
                   for x in (*residual.values(), *coeffs.values()))
