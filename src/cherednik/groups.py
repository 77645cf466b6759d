"""Complex reflection groups on h with reflection data and irreducibles.

Three families are constructible: cyclic Z_m acting on C, symmetric groups
S_n in the permutation (C^n) or reduced (C^{n-1}) representation, and
dihedral I_2(m) on C^2 in coordinates where the rotation is diagonal.
Stabilizer subgroups W_p inherit the ambient space and coefficient field;
their irreducibles are built by structure recognition (full group, Young
products of symmetric groups, abelian) rather than a generic algorithm.

Conventions.  Elements act on h by matrices A_w (columns are images of the
basis y_1..y_n of h); the action on h* is by (A_{w^{-1}})^T.  For each
reflection s, alpha_s spans Im(s-1)|_h and alpha_s^vee spans Im(s-1)|_{h*},
rescaled so that alpha_s^vee(alpha_s) = 2.  The coefficient field is
Q(zeta_N) with N the exponent of the group.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm

from .cyclotomic import Cyc
from .errors import (CapExceeded, CherednikError, FieldExtensionNeeded,
                     InvalidInput, UnsupportedGroup)
from .linalg import (ONE, ZERO, identity, mat_mul, mat_vec, rank, trace,
                     transpose)

ORDER_CAP = 720     # largest |W| a group builder accepts


def _closure(seeds, moves):
    """Everything reachable from ``seeds`` through ``moves(x)``, in
    depth-first discovery order; more than ORDER_CAP elements is an error."""
    found = list(seeds)
    seen = set(found)
    stack = list(found)
    while stack:
        for y in moves(stack.pop()):
            if y not in seen:
                if len(found) >= ORDER_CAP:
                    raise CapExceeded(
                        f"group closure exceeds cap {ORDER_CAP}")
                seen.add(y)
                found.append(y)
                stack.append(y)
    return found


# --------------------------------------------------------------------------
# Partitions and standard tableaux (Young's seminormal form for S_n)
# --------------------------------------------------------------------------

def partitions_of(n):
    """All partitions of n as decreasing tuples, in lexicographic-descending order."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


def standard_tableaux(shape):
    """Standard Young tableaux of the given shape (values 1..n), fixed order."""
    n = sum(shape)
    rows = len(shape)

    def rec(filled, counts, v):
        if v > n:
            yield tuple(tuple(row) for row in filled)
            return
        for r in range(rows):
            c = counts[r]
            if c < shape[r] and (r == 0 or counts[r - 1] > c):
                filled[r].append(v)
                counts[r] += 1
                yield from rec(filled, counts, v + 1)
                counts[r] -= 1
                filled[r].pop()

    return list(rec([[] for _ in range(rows)], [0] * rows, 1))


def _tableau_position(tab, value):
    for r, row in enumerate(tab):
        for c, v in enumerate(row):
            if v == value:
                return r, c
    raise ValueError(f"{value} not in tableau")


def _swap_values(tab, a, b):
    return tuple(tuple(b if v == a else a if v == b else v for v in row)
                 for row in tab)


def seminormal_transposition_matrix(shape, k):
    """Matrix of the adjacent transposition (k, k+1) on standard tableaux."""
    tabs = standard_tableaux(shape)
    index = {t: i for i, t in enumerate(tabs)}
    d = len(tabs)
    mat = [[ZERO] * d for _ in range(d)]
    for j, tab in enumerate(tabs):
        rk, ck = _tableau_position(tab, k)
        rk1, ck1 = _tableau_position(tab, k + 1)
        dist = (ck1 - rk1) - (ck - rk)  # axial distance, never 0
        a = Fraction(1, dist)
        mat[j][j] = a
        swapped = _swap_values(tab, k, k + 1)
        if swapped in index:
            gamma = (1 - a * a) if dist > 0 else ONE
            mat[index[swapped]][j] = gamma
    return mat


def perm_to_adjacent_word(perm):
    """Express a permutation (tuple of images, 0-indexed) as adjacent swaps.

    Returns indices k meaning the transposition (k, k+1) (0-indexed) with
    perm = s_{w[0]} o s_{w[1]} o ... as composition of functions.
    """
    line = list(perm)
    word_right = []
    n = len(line)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                word_right.append(i)
                changed = True
    # perm o s_{i1} o ... o s_{im} = id, hence perm = s_{im} o ... o s_{i1}
    return list(reversed(word_right))


def compose_perm(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def kron(a, b):
    ra, rb = len(a), len(b)
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    out = [[ZERO] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            v = a[i][j]
            if v:
                for k in range(rb):
                    for l in range(cb):
                        if b[k][l]:
                            out[i * rb + k][j * cb + l] = v * b[k][l]
    return out


def _root(a):
    """A nonzero column of A - 1 when A - 1 has rank 1, else None."""
    n = len(a)
    diff = [[a[r][c] - (ONE if r == c else ZERO) for c in range(n)]
            for r in range(n)]
    if rank(diff, n) != 1:
        return None
    return next(col for col in zip(*diff) if any(col))


# --------------------------------------------------------------------------
# Reflection data and irreducibles
# --------------------------------------------------------------------------

class Reflection:
    """A reflection with its root/coroot data, normalized to pairing 2."""

    __slots__ = ("element", "alpha", "alpha_vee", "class_label")

    def __init__(self, element, alpha, alpha_vee, class_label):
        self.element = element
        self.alpha = tuple(alpha)
        self.alpha_vee = tuple(alpha_vee)
        self.class_label = class_label

    def pairing(self):
        s = ZERO
        for a, b in zip(self.alpha_vee, self.alpha):
            s = s + a * b
        return s

    def __repr__(self):
        return f"Reflection(elem={self.element}, class={self.class_label})"


class IrrRep:
    """An irreducible representation with explicit matrices per element."""

    def __init__(self, group, label, dim, matrix_fn):
        self.group = group
        self.label = label
        self.dim = dim
        self._matrix_fn = matrix_fn
        self._mats = {}
        self._char = {}

    def matrix(self, idx):
        m = self._mats.get(idx)
        if m is None:
            m = self._matrix_fn(self.group.metas[idx])
            self._mats[idx] = m
        return m

    def char(self, idx):
        cls = self.group.class_of[idx]
        v = self._char.get(cls)
        if v is None:
            v = self._char[cls] = trace(
                self.matrix(self.group.class_representatives[cls]))
        return v

    def character_vector(self):
        """Character values on class representatives, in class order."""
        return tuple(self.char(r) for r in self.group.class_representatives)

    def __repr__(self):
        return f"IrrRep({self.label!r}, dim={self.dim})"


# --------------------------------------------------------------------------
# The group class
# --------------------------------------------------------------------------

class ReflectionGroup:
    """A finite group on its element list ``metas``, with the law
    ``mult_fn`` and the matrices ``matrix_fn`` of its action on h.

    ``identity`` and the values of ``generators`` (label -> element) are
    elements; generators equal to the identity are dropped.  Inverses are
    read off the law: the powers of an element reach the identity within
    |W| steps, or the element has no inverse and the input is rejected.
    """

    def __init__(self, name, n, conductor, metas, kind, mult_fn, matrix_fn,
                 identity, generators, parent=None, parent_indices=None,
                 family=None):
        self.name = name
        self.n = n
        self.conductor = conductor
        self.metas = metas
        self.kind = kind
        self._mult_fn = mult_fn
        self._matrix_fn = matrix_fn
        self.parent = parent
        self.parent_indices = parent_indices
        self.family = family
        self.order = len(metas)
        self._meta_index = {m: i for i, m in enumerate(metas)}
        self._identity = self._meta_index[identity]
        self._products = {}
        self.generators = {label: self._meta_index[m]
                           for label, m in generators.items() if m != identity}
        self._inverse = self._inverse_table()
        self._mats = {}
        self._hstar_mats = {}
        self._inv_theory = {}
        self._fake_cache = {}

    def _inverse_table(self):
        """inverse[i] for every i: the powers i, i^2, .., i^k = 1 of one
        element invert each other in pairs, i^j * i^(k-j) = 1."""
        inverse = [None] * self.order
        for i in range(self.order):
            if inverse[i] is not None:
                continue
            powers = [i]
            while powers[-1] != self._identity:
                if len(powers) > self.order:
                    raise InvalidInput(
                        f"element w{i} of {self.name} has no inverse: "
                        "no power of it is the identity")
                powers.append(self.mult(powers[-1], i))
            k = len(powers)
            for j, x in enumerate(powers):
                inverse[x] = powers[(k - 2 - j) % k]
        return inverse

    # ---- basic operations -------------------------------------------------
    def mult(self, i, j):
        """The index of w_i * w_j, composed on first request and memoized
        per pair (no |W|^2 table is built)."""
        key = (i, j)
        k = self._products.get(key)
        if k is None:
            k = self._products[key] = self._meta_index[
                self._mult_fn(self.metas[i], self.metas[j])]
        return k

    def inv(self, i):
        return self._inverse[i]

    @property
    def identity(self):
        return self._identity

    def matrix(self, i):
        m = self._mats.get(i)
        if m is None:
            m = tuple(tuple(row) for row in self._matrix_fn(self.metas[i]))
            self._mats[i] = m
        return m

    def hstar_matrix(self, i):
        """Matrix of the action on h* coordinates: (A_{w^{-1}})^T."""
        m = self._hstar_mats.get(i)
        if m is None:
            m = tuple(tuple(row) for row in transpose(
                [list(r) for r in self.matrix(self.inv(i))]))
            self._hstar_mats[i] = m
        return m

    def act_hstar(self, i, vec):
        return tuple(mat_vec(self.hstar_matrix(i), vec))

    # ---- conjugacy classes ---------------------------------------------------
    @cached_property
    def conjugacy_classes(self):
        """Classes as sorted element tuples, ordered by least element."""
        gens = list(self.generators.values())
        classes = []
        seen = set()
        for i in range(self.order):
            if i not in seen:
                orbit = tuple(sorted(_closure([i], lambda x: [
                    self.mult(self.mult(g, x), self.inv(g)) for g in gens])))
                seen.update(orbit)
                classes.append(orbit)
        return classes

    @cached_property
    def class_of(self):
        out = [0] * self.order
        for ci, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                out[x] = ci
        return out

    @cached_property
    def class_representatives(self):
        return [cls[0] for cls in self.conjugacy_classes]

    # ---- reflections ----------------------------------------------------------
    @cached_property
    def reflections(self):
        """Reflections in element order; class labels c0, c1, .. follow the
        class order (a class of reflections holds only reflections)."""
        found = [(i, alpha) for i in range(self.order)
                 if (alpha := _root(self.matrix(i))) is not None]
        classes = sorted({self.class_of[i] for i, _ in found})
        labels = {ci: f"c{k}" for k, ci in enumerate(classes)}
        out = []
        for i, alpha in found:
            r = Reflection(i, alpha, _root(self.hstar_matrix(i)),
                           labels[self.class_of[i]])
            pairing = r.pairing()
            if not pairing:
                raise CherednikError("degenerate root/coroot pairing")
            scale = 2 / pairing
            r.alpha_vee = tuple(scale * v for v in r.alpha_vee)
            out.append(r)
        return out

    @cached_property
    def reflection_class_labels(self):
        return sorted({r.class_label for r in self.reflections},
                      key=lambda s: int(s[1:]))

    def reflection_by_element(self, idx):
        for r in self.reflections:
            if r.element == idx:
                return r
        raise KeyError(idx)

    # ---- stabilizers ------------------------------------------------------------
    def stabilizer(self, p):
        """Subgroup fixing the point p of h* (coordinates over the field).

        Asserts the Steinberg property: the stabilizer must be generated by
        the reflections it contains; failure is a hard error.  The subgroup
        takes those reflections as its generators.
        """
        p = tuple(p)
        fix = [i for i in range(self.order) if self.act_hstar(i, p) == p]
        fix_set = set(fix)
        refl_fix = [r.element for r in self.reflections if r.element in fix_set]
        generated = set(_closure([self._identity], lambda x: [
            self.mult(x, g) for g in refl_fix]))
        if generated != fix_set:
            raise CherednikError(
                "stabilizer is not generated by the reflections it contains "
                f"(point {p}): got {len(generated)} of {len(fix)} elements")
        # the full group keeps its family (so its irreducibles rebuild)
        family = self.family if len(fix) == self.order else None
        return ReflectionGroup(
            f"{self.name}|stab", self.n, self.conductor,
            [self.metas[i] for i in fix], self.kind, self._mult_fn,
            self._matrix_fn, self.metas[self._identity],
            {f"g{k}": self.metas[r] for k, r in enumerate(refl_fix)},
            parent=self, parent_indices=fix, family=family)

    def ambient_reflection_class(self, refl):
        """Ambient class label of a subgroup reflection (self if no parent)."""
        if self.parent is None:
            return refl.class_label
        parent_idx = self.parent_indices[refl.element]
        return self.parent.reflection_by_element(parent_idx).class_label

    # ---- irreducibles --------------------------------------------------------------
    @cached_property
    def irreps(self):
        if self.order == 1:
            return [IrrRep(self, "triv", 1, lambda meta: ((ONE,),))]
        if self.kind == "zm" and self.family is not None:
            return self._zm_irreps()
        if self.kind == "perm":
            return self._perm_irreps()
        if self.kind == "i2" and self.family is not None:
            return self._i2_irreps()
        if self._is_abelian():
            return self._abelian_irreps()
        raise UnsupportedGroup(
            f"no exact irreducible construction for group {self.name}")

    def irrep(self, label):
        for rep in self.irreps:
            if rep.label == label:
                return rep
        raise InvalidInput(f"no irreducible labeled {label!r} in {self.name}")

    def irrep_with_character(self, values):
        """The irreducible whose character on the class representatives, in
        class order, is ``values``."""
        for rep in self.irreps:
            if rep.character_vector() == values:
                return rep
        raise CherednikError(f"no irreducible of {self.name} has character "
                             f"{values}")

    def multiplicity(self, rep, chi):
        """Multiplicity of ``rep`` in the class function ``chi`` (values on
        the class representatives, in class order): the inner product
        (1/|W|) sum over classes C of |C| chi(C) rep(C^-1)."""
        return sum((len(cls) * v * rep.char(self.inv(cls[0]))
                    for cls, v in zip(self.conjugacy_classes, chi) if v),
                   ZERO) / self.order

    def trivial_irrep(self):
        return self.irrep_with_character(
            (ONE,) * len(self.class_representatives))

    def dual_of(self, rep):
        """The dual representation: its character is the inverse-argument one."""
        return self.irrep_with_character(
            tuple(rep.char(self.inv(r)) for r in self.class_representatives))

    def _is_abelian(self):
        gens = list(self.generators.values())
        return all(self.mult(a, b) == self.mult(b, a)
                   for a in gens for b in gens)

    def _zm_irreps(self):
        m = self.order
        N = self.conductor
        step = N // m

        def matrix_fn_for(j):
            # chi_j is the character of the degree-j piece of C[h]
            def fn(meta):
                return ((Cyc.zeta(N, (-j * meta * step) % N),),)
            return fn

        return [IrrRep(self, f"chi{j}", 1, matrix_fn_for(j)) for j in range(m)]

    def _perm_irreps(self):
        pts = len(self.metas[0])
        orbits = self._perm_orbits(pts)
        expected = 1
        for o in orbits:
            expected *= factorial(len(o))
        if expected != self.order:
            if self._is_abelian():
                return self._abelian_irreps()
            raise UnsupportedGroup(
                f"permutation group {self.name} is not a product of full "
                "symmetric groups on its orbits")
        # Young product: outer tensor of seminormal representations per orbit
        blocks = [tuple(o) for o in orbits if len(o) > 1]
        factor_shapes = [partitions_of(len(b)) for b in blocks]
        reps = []
        gens_cache = {}

        def make_matrix_fn(shapes):
            def factor_matrix(block, shape, meta):
                local = {v: k for k, v in enumerate(block)}
                perm = tuple(local[meta[v]] for v in block)
                word = perm_to_adjacent_word(perm)
                key = (block, shape)
                if key not in gens_cache:
                    d = len(standard_tableaux(shape))
                    gens_cache[key] = {
                        "dim": d,
                        "s": [seminormal_transposition_matrix(shape, k + 1)
                              for k in range(len(block) - 1)],
                    }
                data = gens_cache[key]
                mat = identity(data["dim"])
                for k in word:
                    mat = mat_mul(mat, data["s"][k])
                return mat

            def fn(meta):
                mat = [[ONE]]
                for block, shape in zip(blocks, shapes):
                    mat = kron(mat, factor_matrix(block, shape, meta))
                return mat
            return fn

        for shapes in itertools.product(*factor_shapes):
            dim = 1
            for shape in shapes:
                dim *= len(standard_tableaux(shape))
            label = shapes[0] if len(blocks) == 1 else tuple(shapes)
            reps.append(IrrRep(self, label, dim, make_matrix_fn(shapes)))
        if not blocks:
            reps = [IrrRep(self, "triv", 1, lambda meta: ((ONE,),))]
        return reps

    def _perm_orbits(self, pts):
        seen = set()
        orbits = []
        for i in range(pts):
            if i in seen:
                continue
            orbit = sorted(_closure([i], lambda x: [m[x] for m in self.metas]))
            seen.update(orbit)
            orbits.append(orbit)
        return orbits

    def _i2_irreps(self):
        m = self.family[1]
        N = self.conductor
        step = N // m if m > 0 else N
        reps = []

        def linear(cr, cs):
            # value on s^eps r^k is cr^k * cs^eps
            def fn(meta):
                eps, k = meta
                v = ONE
                if cr == -1 and k % 2 == 1:
                    v = -v
                if cs == -1 and eps == 1:
                    v = -v
                return ((v,),)
            return fn

        reps.append(IrrRep(self, "triv", 1, linear(1, 1)))
        reps.append(IrrRep(self, "sgn", 1, linear(1, -1)))
        if m % 2 == 0:
            reps.append(IrrRep(self, "sgnr", 1, linear(-1, 1)))
            reps.append(IrrRep(self, "sgnrs", 1, linear(-1, -1)))
        top = (m - 1) // 2 if m % 2 == 1 else m // 2 - 1

        def rho(j):
            def fn(meta):
                eps, k = meta
                zp = Cyc.zeta(N, (j * k * step) % N)
                zm = Cyc.zeta(N, (-j * k * step) % N)
                if eps == 0:
                    return ((zp, ZERO), (ZERO, zm))
                return ((ZERO, zm), (zp, ZERO))
            return fn

        for j in range(1, top + 1):
            reps.append(IrrRep(self, f"rho{j}", 2, rho(j)))
        return reps

    def _abelian_irreps(self):
        """The characters of an abelian group: each sends a generator of
        order o to an o-th root of unity, and every choice that is well
        defined on the products of the generators is one.  Q(zeta_N) holds
        the lcm(2, N)-th roots of unity and no others."""
        n, N = self.order, self.conductor
        roots = N if N % 2 == 0 else 2 * N
        gens = list(self.generators.values())
        orders = []
        for g in gens:
            k, h = 1, g
            while h != self._identity:
                h, k = self.mult(h, g), k + 1
            if roots % k:
                raise FieldExtensionNeeded(
                    f"the characters of {self.name} need the {k}-th roots of "
                    f"unity, which Q(zeta_{N}) does not contain",
                    required_conductor=lcm(N, k))
            orders.append(k)
        # the powers of a primitive roots-th root of unity; for odd N that
        # root is -zeta_N^((N + 1) / 2)
        root = Cyc.zeta(N) if roots == N else -Cyc.zeta(N, (N + 1) // 2)
        zeta = [ONE]
        while len(zeta) < roots:
            zeta.append(zeta[-1] * root)

        def phases(steps):
            # {element: t} with chi(element) = zeta^t, the generators going
            # to zeta^steps; None when that is not well defined
            phase = {self._identity: 0}
            queue = [self._identity]
            for h in queue:
                for g, step in zip(gens, steps):
                    h2, t = self.mult(h, g), (phase[h] + step) % roots
                    if h2 not in phase:
                        phase[h2] = t
                        queue.append(h2)
                    elif phase[h2] != t:
                        return None
            return phase

        chars = []
        for js in itertools.product(*(range(o) for o in orders)):
            phase = phases([j * (roots // o) for j, o in zip(js, orders)])
            if phase is not None:
                chars.append(tuple(zeta[phase[g]] for g in range(n)))
        chars.sort(key=lambda chi: (0 if all(v == 1 for v in chi) else 1,
                                    _vec_sort_key(chi)))
        reps = []
        for j, chi in enumerate(chars):
            label = "triv" if j == 0 else f"chi{j}"

            def fn(meta, chi=chi):
                return ((chi[self._meta_index[meta]],),)
            reps.append(IrrRep(self, label, 1, fn))
        return reps

    # ---- invariant theory hooks (implemented in invariants.py) ---------------
    def invariant_theory(self, side="x"):
        from .invariants import InvariantTheory
        if side not in self._inv_theory:
            self._inv_theory[side] = InvariantTheory(self, side)
        return self._inv_theory[side]

    @cached_property
    def degrees(self):
        from .invariants import molien_degrees
        return molien_degrees(self)

    def fake_polynomial(self, rep):
        if rep.label not in self._fake_cache:
            from .invariants import fake_polynomial
            self._fake_cache[rep.label] = fake_polynomial(self, rep)
        return self._fake_cache[rep.label]

    def b_invariant(self, rep):
        from .series import b_invariant
        return b_invariant(self.fake_polynomial(rep))

    def __repr__(self):
        return f"ReflectionGroup({self.name}, order={self.order}, n={self.n})"


def _vec_sort_key(vec):
    """Each entry as its sorted (k, num, den) terms in zeta^k."""
    return [tuple(map(tuple, v.literals())) if isinstance(v, Cyc)
            else ((0, v.numerator, v.denominator),) for v in vec]


# --------------------------------------------------------------------------
# Family constructors
# --------------------------------------------------------------------------

def build_zm(m):
    if m < 1:
        raise InvalidInput("m >= 1 required")
    if m > ORDER_CAP:
        raise CapExceeded(f"|W| = {m} exceeds cap {ORDER_CAP}")
    N = m
    metas = list(range(m))

    def mult(a, b):
        return (a + b) % m

    def matrix_fn(a):
        return ((Cyc.zeta(N, a % N),),)

    return ReflectionGroup(f"Zm:{m}", 1, N, metas, "zm", mult, matrix_fn,
                           0, {"g": 1 % m}, family=("Zm", m))


def build_sn(n, rep="permutation"):
    if not 1 <= n <= 6:     # so n! <= ORDER_CAP
        raise InvalidInput("1 <= n <= 6 required")
    if rep not in ("permutation", "reduced"):
        raise InvalidInput(f"unknown S_n representation {rep!r}")
    metas = sorted(itertools.permutations(range(n)))
    N = 1
    for k in range(1, n + 1):
        N = N * k // gcd(N, k)
    dim = n if rep == "permutation" else n - 1

    if rep == "permutation":
        def matrix_fn(perm):
            return tuple(tuple(ONE if perm[j] == i else ZERO
                               for j in range(n)) for i in range(n))
    else:
        def matrix_fn(perm):
            # basis f_i = e_i - e_{i+1}; column j = image of f_j
            cols = []
            for j in range(n - 1):
                a, b = perm[j], perm[j + 1]
                coeffs = [ZERO] * (n - 1)
                sign = ONE
                if a > b:
                    a, b = b, a
                    sign = -ONE
                for k in range(a, b):
                    coeffs[k] = sign
                cols.append(coeffs)
            return tuple(tuple(cols[j][i] for j in range(n - 1))
                         for i in range(n - 1))

    gens = {}
    for k in range(n - 1):
        t = list(range(n))
        t[k], t[k + 1] = t[k + 1], t[k]
        gens[f"s{k + 1}{k + 2}"] = tuple(t)
    return ReflectionGroup(f"Sn:{n}:{rep}", dim, N, metas, "perm",
                           compose_perm, matrix_fn, tuple(range(n)), gens,
                           family=("Sn", n, rep))


def build_i2(m):
    if m < 1:
        raise InvalidInput("m >= 1 required")
    if 2 * m > ORDER_CAP:
        raise CapExceeded(f"|W| = {2 * m} exceeds cap {ORDER_CAP}")
    lcm = 2 * m // gcd(2, m)
    N = lcm
    metas = [(eps, k) for eps in (0, 1) for k in range(m)]

    def mult(a, b):
        e1, k1 = a
        e2, k2 = b
        if e2 == 0:
            return (e1, (k1 + k2) % m)
        return ((e1 + 1) % 2, (k2 - k1) % m)

    step = N // m

    def matrix_fn(meta):
        eps, k = meta
        zp = Cyc.zeta(N, (k * step) % N) if m > 1 else ONE
        zm = Cyc.zeta(N, (-k * step) % N) if m > 1 else ONE
        if eps == 0:
            return ((zp, ZERO), (ZERO, zm))
        return ((ZERO, zm), (zp, ZERO))

    return ReflectionGroup(f"I2:{m}", 2, N, metas, "i2", mult, matrix_fn,
                           (0, 0), {"r": (0, 1 % m), "s": (1, 0)},
                           family=("I2", m))


def build_from_generators(conductor, gen_matrices, name="custom"):
    """Close a set of exact matrices into a group (custom-group JSON path)."""
    n = len(gen_matrices[0])
    gens = [tuple(tuple(Cyc.of(v, conductor) for v in row) for row in m)
            for m in gen_matrices]
    ident = tuple(tuple(ONE if i == j else ZERO for j in range(n))
                  for i in range(n))

    def mult(a, b):
        return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(n)), ZERO)
                           for j in range(n)) for i in range(n))

    def matrix_fn(meta):
        return meta

    metas = _closure([ident], lambda x: [mult(x, g) for g in gens])
    return ReflectionGroup(name, n, conductor, metas, "matrix", mult,
                           matrix_fn, ident,
                           {f"g{k}": g for k, g in enumerate(gens)})


def build_group(spec):
    """Build from a shorthand string: "Zm:5", "Sn:4:permutation", "I2:6"."""
    parts = str(spec).split(":")
    fam = parts[0]
    if len(parts) >= 2 and parts[1].isdigit():
        if fam == "Zm" and len(parts) == 2:
            return build_zm(int(parts[1]))
        if fam == "Sn" and len(parts) in (2, 3):
            rep = parts[2] if len(parts) == 3 else "permutation"
            return build_sn(int(parts[1]), rep)
        if fam == "I2" and len(parts) == 2:
            return build_i2(int(parts[1]))
    raise InvalidInput(f"unrecognized group spec {spec!r}")
