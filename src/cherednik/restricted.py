"""Baby Verma modules, their simple heads, End and linkage, and the restricted
quotient as an explicit |W|^3-dimensional algebra on top of them.

``StandardModules`` builds Delta_b(lambda) = (x-coinvariants at a fiber point
b of h/W, default 0) (x) lambda from the x side alone, with no cap.  Heads
come from the grading (off the graded fiber, from the acting image).  One
W-character route, traces of class representatives and the character inner
product, gives End and e L dimensions and, at b = 0, the blocks: the linkage
classes of the graded decomposition numbers [Delta(lambda) : L(mu)[k]].

``RestrictedCherednikAlgebra`` adds the algebra, under a cap on |W|^3: its
vectors are PBW terms x^a w y^b with x^a and y^b coinvariant monomials,
reduced at b on the x side and at 0 on the y side.  The center is solved
one degree at a time where it is read and certified through the product;
central characters cross-check the linkage blocks, and the trace form of
Z_0 on the baby Vermas counts the blocks at any fiber point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from operator import add

from .errors import (CapExceeded, CherednikError, CompositionMismatch,
                     DimensionMismatch, InvalidInput, NotSimpleHead,
                     TieDetected)
from .linalg import (ONE, ZERO, Echelon, _add_term, _axpy, _numerators,
                     echelon, kernel_basis, rank)
from .pbw import DEFAULT_DEGREE_CAP, CherednikAlgebra, PBWElement, _unit_exp

RESTRICTED_CAP = 1000   # default largest |W|^3; `cm --cap` overrides it


class FDModule:
    """A module over a restricted algebra: explicit action matrices, each
    a list of sparse columns {row: coeff}, one per basis vector, with no
    zero stored.

    ``x`` and ``y`` list the matrices of x_i and y_i; ``w_action`` maps a
    group element index to its matrix, read once per element through
    ``_columns``.  ``rep`` is the irreducible of W that the module is built
    from, or None.  ``apply`` is the one action routine.
    """

    def __init__(self, parent, dim, x, y, w_action, weights=None, label=None,
                 rep=None):
        self.parent = parent          # StandardModules
        self.dim = dim
        self.x = x
        self.y = y
        self.weights = weights        # grading weight per basis vector, or None
        self.label = label
        self.rep = rep
        self._w_action = w_action
        self._cols = {}               # group element index -> sparse columns
        self._pow = {}                # (kind, exponent, k) -> x^a or y^b e_k

    def generators(self):
        """Matrix of each of the parent's ``generators``, in order."""
        mats = [m for xy in zip(self.x, self.y) for m in xy]
        return mats + [self._columns(("w", w))
                       for w in self.parent.group.generators.values()]

    def _columns(self, gen):
        """The matrix of ("x", i), ("y", j) or ("w", w); each w's is built
        on first use."""
        kind, i = gen
        if kind != "w":
            return getattr(self, kind)[i]
        if i not in self._cols:
            self._cols[i] = self._w_action(i)
        return self._cols[i]

    def _power_column(self, kind, expo, k):
        """x^expo e_k (kind "x") or y^expo e_k (kind "y"), sparse."""
        key = (kind, expo, k)
        if key not in self._pow:
            i = next((i for i, e in enumerate(expo) if e), None)
            if i is None:
                return {k: ONE}
            lower = expo[:i] + (expo[i] - 1,) + expo[i + 1:]
            cols, vec = self._columns((kind, i)), {}
            for j, c in self._power_column(kind, lower, k).items():
                _axpy(vec, cols[j], c)
            self._pow[key] = vec
        return self._pow[key]

    def apply(self, terms, vec):
        """The sparse vector z v, for z the PBW terms {(a, w, b): c} of any
        degree and v a sparse vector {index: coeff}: y^b on v first, then w
        on the sum for each (a, w), then x^a on the sum for each a."""
        by_b, by_aw, by_a = {}, {}, {}
        for (a, w, b), c in terms.items():
            if b not in by_b:
                by_b[b] = _combination((v, self._power_column("y", b, k))
                                       for k, v in vec.items())
            _axpy(by_aw.setdefault((a, w), {}), by_b[b], c)
        for (a, w), u in by_aw.items():
            cols, acc = self._columns(("w", w)), by_a.setdefault(a, {})
            for k, c in u.items():
                _axpy(acc, cols[k], c)
        return _combination((c, self._power_column("x", a, k))
                            for a, u in by_a.items() for k, c in u.items())

    def act_columns(self, terms):
        """Action matrix of PBW terms {(a, w, b): c} of any degree: column k
        is ``apply(terms, {k: 1})``."""
        return [self.apply(terms, {k: ONE}) for k in range(self.dim)]

    def __repr__(self):
        lbl = f", label={self.label!r}" if self.label is not None else ""
        return f"FDModule(dim={self.dim}{lbl})"


class Block:
    def __init__(self, labels, b_invariants, distinguished):
        self.labels = tuple(labels)
        self.b_invariants = dict(b_invariants)
        self.distinguished = distinguished

    def is_singleton(self):
        return len(self.labels) == 1

    def payload(self):
        return {
            "labels": [str(l) for l in self.labels],
            "b_invariants": {str(l): b for l, b in self.b_invariants.items()},
            "distinguished": str(self.distinguished),
        }

    def __repr__(self):
        return f"Block({list(self.labels)!r}, distinguished={self.distinguished!r})"


class BlockPartition:
    def __init__(self, group, param, blocks, route_agreement,
                 verification=None):
        self.group = group
        self.param = param
        self.blocks = blocks
        self.route_agreement = route_agreement
        self.verification = verification or {}

    def all_singletons(self):
        return all(b.is_singleton() for b in self.blocks)

    def theorems_hold(self):
        """The block theorems on ``verification`` (a verified partition):
        e.L(lambda) is one-dimensional exactly on the distinguished member of
        each block and zero on the others, and the center surjects onto the
        endomorphisms of each distinguished baby Verma."""
        e_dims = self.verification["e_dims"]
        surjectivity = self.verification["center_surjectivity"]
        return all(
            e_dims[str(lbl)] == (1 if lbl == blk.distinguished else 0)
            and surjectivity[str(blk.distinguished)]["surjective"]
            for blk in self.blocks for lbl in blk.labels)

    def payload(self):
        return {
            "group": self.group.name,
            "parameter": self.param.payload(),
            "blocks": [b.payload() for b in self.blocks],
            "block_count": len(self.blocks),
            "generic_confirmed": self.all_singletons(),
            "route_agreement": self.route_agreement,
            "verified": self.verification,
        }

    def __repr__(self):
        return f"BlockPartition({[list(b.labels) for b in self.blocks]!r})"


class StandardModules:
    """Baby Vermas Delta_b(lambda) at a fiber point b (default 0), their
    simple heads, End and e L dimensions, and at b = 0 their linkage classes.
    Only the x side is built, so there is no cap but the group order."""

    def __init__(self, algebra, b_point=None):
        group = algebra.group
        if b_point is None:
            b_point = (ZERO,) * group.n
        self.algebra = algebra
        self.group = group
        self.itx = group.invariant_theory("x")
        self.b_point = tuple(b_point)
        self.x_values = self.itx.invariant_values_at(self.b_point)
        self._x_fiber = self.itx.fiber(self.x_values)
        self.graded = not any(self.x_values)
        self.x_basis = self.itx.coinv_monomials()
        self._module_cache = {}
        self._head_cache = {}

    # ---- baby Verma modules ----------------------------------------------------
    def baby_verma(self, rep):
        """Delta(0, rep, b): the standard module with its graded structure."""
        if rep.group is not self.group:
            raise DimensionMismatch(
                f"irreducible {rep.label!r} is not one of {self.group.name}")
        if rep.label in self._module_cache:
            return self._module_cache[rep.label]
        fiber, ident = self._x_fiber, self.group.identity

        def x_image(i):
            # x_i times the coinvariant part
            return lambda m: (((m2, ident), c) for m2, c in
                              fiber[m[:i] + (m[i] + 1,) + m[i + 1:]].items())

        def y_image(j):
            # the commutator [y_j, x^m], as y_j kills rep
            return lambda m: (((m2, s), c * c2) for (e, s), c in
                              self.algebra._comm_mono(j, m).items()
                              for m2, c2 in fiber[e].items())

        def w_image(w):
            return lambda m: (((m2, w), c) for m2, c in self.itx.reduce(
                self.itx._act_monomial(w, m), self.x_values).items())

        mod = FDModule(
            self, len(self.x_basis) * rep.dim,
            [self._induced(rep, x_image(i)) for i in range(self.group.n)],
            [self._induced(rep, y_image(j)) for j in range(self.group.n)],
            lambda w: self._induced(rep, w_image(w)),
            weights=([sum(m) for m in self.x_basis for _t in range(rep.dim)]
                     if self.graded else None),
            label=rep.label, rep=rep)
        self._module_cache[rep.label] = mod
        return mod

    def _induced(self, rep, image):
        """Matrix on (coinvariant monomials) (x) rep of m (x) v -> sum of
        c * m2 (x) rep(s) v over the ((m2, s), c) that ``image(m)`` yields."""
        r = rep.dim
        slot = {m: k * r for k, m in enumerate(self.x_basis)}
        cols = [{} for _ in range(len(slot) * r)]
        for m, col in slot.items():
            for (m2, s), c in image(m):
                rho, row = rep.matrix(s), slot[m2]
                for t in range(r):
                    for t2 in range(r):
                        if rho[t2][t]:
                            _add_term(cols[col + t], row + t2, c * rho[t2][t])
        return cols

    # ---- simple heads ---------------------------------------------------------------
    def acting_image(self, mod):
        """Basis of the image of the algebra in End(M): the identity closed
        under left multiplication by the generator actions."""
        gens = mod.generators()
        dim = mod.dim
        basis = []
        span = Echelon(dim * dim)
        queue = [[{k: ONE} for k in range(dim)]]
        while queue:
            mat = queue.pop()
            if span.add({i * dim + k: v for k, col in enumerate(mat)
                         for i, v in col.items()}):
                basis.append(mat)
                queue.extend([_combination((c, g[j]) for j, c in col.items())
                              for col in mat] for g in gens)
        return basis

    def _image_radical(self, mod):
        """Echelon of J(A) M, spanned by the columns of the radical of the
        acting image, the kernel of its trace form tr(ab) = sum of a_ij b_ji
        (characteristic 0): the route for modules without a grading."""
        basis, dim = self.acting_image(mod), mod.dim
        gram = _trace_gram([[a] for a in basis])
        rad = kernel_basis(range(len(basis)), lambda i: {
            j: row[i] for j, row in enumerate(gram) if row[i]})
        return echelon([_combination((c, basis[i][k]) for i, c in vec.items())
                        for vec in rad for k in range(dim)], dim)

    def _graded_radical(self, mod):
        """Echelon of the radical J of a graded module, degree by degree.

        Every graded module built here, a baby Verma at b = 0 or a head of
        one, is generated by its lowest degree, an irreducible W-module, and
        each y_j lowers the degree by one.  So J is the largest submodule
        that misses the lowest degree: J is 0 there, and
        J_d = {v in M_d : y_j v in J_(d-1) for every j}.  The space so
        defined is stable under y and W, and under x as [y_j, x_i] lies in
        the group algebra.
        """
        by_degree = {}
        for k, d in enumerate(mod.weights):
            by_degree.setdefault(d, []).append(k)
        jm = Echelon(mod.dim)
        for d in sorted(by_degree)[1:]:
            # y_j e_k reduced against the rows of J found so far, keyed
            # (j, coordinate)
            for vec in kernel_basis(by_degree[d], lambda k: {
                    (j, i): val for j, y in enumerate(mod.y)
                    for i, val in jm.reduce(y[k])[0].items()}):
                jm.add(vec)
        return jm

    def simple_head(self, mod):
        """M / J(A) M, with the radical J(A) M from the grading when M has
        one and from the acting image otherwise."""
        jm = (self._image_radical(mod) if mod.weights is None
              else self._graded_radical(mod))
        keep = [i for i in range(mod.dim) if i not in jm.rows]
        pos = {i: t for t, i in enumerate(keep)}

        def induce(mat):
            # the columns of the kept basis vectors, reduced modulo J(A) M:
            # a residual vanishes at every pivot, so its rows are kept
            return [{pos[i]: c for i, c in jm.reduce(mat[k])[0].items()}
                    for k in keep]

        return FDModule(self, len(keep), [induce(m) for m in mod.x],
                        [induce(m) for m in mod.y],
                        lambda widx: induce(mod._columns(("w", widx))),
                        weights=([mod.weights[i] for i in keep]
                                 if mod.weights is not None else None),
                        label=mod.label, rep=mod.rep)

    def singular_vectors(self, mod):
        """Basis of M^{y=0}, the vectors every y_j kills: sparse RREF
        rows."""
        return kernel_basis(range(mod.dim), lambda k: {
            (j, i): v for j, y in enumerate(mod.y) for i, v in y[k].items()})

    def is_simple(self, mod):
        """Is M simple (over the splitting field)?  A graded module built
        here is generated by its lowest degree, an irreducible W-module, and
        y lowers the degree, so every nonzero submodule meets M^{y=0} and a
        singular vector of higher degree generates a proper submodule: M is
        simple exactly when M^{y=0} is its lowest degree.  Off the graded
        fiber y may kill a simple module; there M is simple exactly when the
        algebra acts by all of End(M) (Burnside)."""
        if mod.weights is None:
            return len(self.acting_image(mod)) == mod.dim ** 2
        return len(self.singular_vectors(mod)) == mod.weights.count(
            min(mod.weights))

    def endomorphism_dimension(self, mod):
        """dim Hom(Delta(rep), M) = multiplicity of rep in M^{y=0}
        (Frobenius reciprocity), by class traces: on the RREF rows v of that
        W-stable space, tr(w) sums the coordinate of w v at v's pivot.  That
        is dim End(M) for the only modules the library builds, Delta_b(rep)
        at any fiber and its head: the head is semisimple, so every map from
        Delta_b(rep) to it factors through it."""
        rep = mod.rep
        if rep is None:
            raise CherednikError(f"module {mod.label!r} has no irreducible "
                                 "to count endomorphisms through")
        rows = [(next(iter(v)), v) for v in self.singular_vectors(mod)]
        chi = []
        for w in self.group.class_representatives:
            cols = mod._columns(("w", w))
            chi.append(sum((c * cols[k][p] for p, v in rows
                            for k, c in v.items() if p in cols[k]), ZERO))
        return dict(self._factors(
            chi, f"the singular vectors of {mod.label!r}")).get(rep, 0)

    def simple_module(self, rep):
        if rep.label not in self._head_cache:
            head = self.simple_head(self.baby_verma(rep))
            if not self.is_simple(head):
                raise NotSimpleHead(f"head of the standard module "
                                    f"{head.label!r} is not simple")
            self._head_cache[rep.label] = head
        return self._head_cache[rep.label]

    def dim_e_simple(self, rep):
        """dim e L(rep): the multiplicity of the trivial irreducible in L."""
        chi = [sum(t, ZERO) for t in zip(
            *self._graded_character(self.simple_module(rep)).values())]
        return dict(self._factors(chi, f"L({rep.label!r})")).get(
            self.group.trivial_irrep(), 0)

    # ---- linkage ------------------------------------------------------------------
    def _graded_character(self, mod):
        """Trace of each class representative on each degree of a module:
        {degree: [trace per class]}, all in degree 0 if it has no grading."""
        mats = [mod._columns(("w", w))
                for w in self.group.class_representatives]
        out = {}
        for k, d in enumerate(mod.weights or [0] * mod.dim):
            row = out.setdefault(d, [ZERO] * len(mats))
            for c, mat in enumerate(mats):
                row[c] += mat[k].get(k, ZERO)
        return out

    def _decompose(self, chi):
        """(irreducible, multiplicity) for each irreducible whose
        multiplicity in the class function ``chi`` (values on the class
        representatives) is nonzero."""
        out = []
        for rep in self.group.irreps:
            m = self.group.multiplicity(rep, chi)
            if m:
                out.append((rep, m))
        return out

    def _factors(self, chi, where):
        """``_decompose(chi)``, chi the character of ``where``, each
        multiplicity as an int; a CompositionMismatch if one is no such int."""
        for mu, m in self._decompose(chi):
            if not (isinstance(m, Fraction) and m.denominator == 1 and m > 0):
                raise CompositionMismatch(
                    f"multiplicity {m} of {mu.label!r} in {where} is not a "
                    "non-negative integer")
            yield mu, m.numerator

    def _composition_factors(self, rep, heads):
        """[Delta(rep) : L(mu)[k]] as {(mu label, k): multiplicity}.

        L(mu) has mu alone in its lowest degree, so the lowest degree of
        what is left of the graded character of Delta(rep) is a sum of the
        mu with multiplicity [Delta(rep) : L(mu)[k]]: peel it off by the
        character inner product and subtract each m * ch L(mu) shifted
        there.  ``heads`` holds the graded character of each L(mu), lowest
        degree 0.
        """
        left = self._graded_character(self.baby_verma(rep))
        top = max(left)
        factors = {}
        for k in sorted(left):
            for mu, m in self._factors(left[k], f"degree {k} of the baby "
                                       f"Verma {rep.label!r}"):
                for d, chi in heads[mu.label].items():
                    if d + k > top:
                        raise CompositionMismatch(
                            f"L({mu.label!r})[{k}] runs past the top degree "
                            f"{top} of the baby Verma {rep.label!r}")
                    left[d + k] = [a - m * b
                                   for a, b in zip(left[d + k], chi)]
                factors[(mu.label, k)] = m
            if any(left[k]):
                raise CompositionMismatch(
                    f"the heads leave a remainder in degree {k} of the baby "
                    f"Verma {rep.label!r}")
        return factors

    def _linkage_classes(self):
        """Blocks as the linkage classes of the graded decomposition
        numbers: lambda and mu are linked when L(mu)[k] is a composition
        factor of Delta(lambda) (each Delta(lambda) has a simple head at
        b = 0).  A list of label sets."""
        irreps = self.group.irreps
        heads = {rep.label: self._graded_character(self.simple_module(rep))
                 for rep in irreps}
        classes = []
        for rep in irreps:
            linked = {mu for mu, _k in self._composition_factors(rep, heads)}
            linked.add(rep.label)
            classes = ([c for c in classes if not c & linked]
                       + [linked.union(*(c for c in classes if c & linked))])
        return classes


class RestrictedCherednikAlgebra(StandardModules):
    """H restricted at a fiber point b (default 0) as a concrete algebra
    under a cap on |W|^3: products, the center and the block partition.  A
    vector is sparse PBW terms {(a, w, b): coeff} with x^a and y^b
    coinvariant monomials, the terms ``FDModule.apply`` reads."""

    def __init__(self, algebra, b_point=None, cap=RESTRICTED_CAP):
        group = algebra.group
        dim = group.order ** 3
        if dim > cap:
            raise CapExceeded(f"|W|^3 = {dim} exceeds cap {cap}")
        # the certificate multiplies terms with |a|, |b| <= N, the reflections
        need = 2 * len(group.reflections)
        if algebra.degree_cap < need:
            raise InvalidInput(
                f"the algebra's degree cap {algebra.degree_cap} is below "
                f"2N = {need} for the N = {need // 2} reflections of "
                f"{group.name}; build_restricted raises the cap to 2N")
        super().__init__(algebra, b_point)
        ity = group.invariant_theory("y")
        self._y_fiber = ity.fiber((ZERO,) * group.n)
        self._x_nums = _Numerators(self._x_fiber)
        self._y_nums = _Numerators(self._y_fiber)
        self.y_basis = ity.coinv_monomials()
        self.dim = len(self.x_basis) * group.order * len(self.y_basis)
        self._center_slices = {}      # degree -> RREF rows of Z_d, on demand
        self.unit = self.reduce_pbw(algebra.one())

    @cached_property
    def generators(self):
        """(vector, degree) of x_0, y_0, x_1, y_1, ... and then of the group
        generators; every degree is 0 off the graded fiber."""
        algebra, step = self.algebra, 1 if self.graded else 0
        gens = [(self.reduce_pbw(gen), deg) for i in range(self.group.n)
                for gen, deg in ((algebra.x(i), step), (algebra.y(i), -step))]
        return gens + [(self.reduce_pbw(algebra.grp(w)), 0)
                       for w in self.group.generators.values()]

    # ---- reduction ----------------------------------------------------------
    def reduce_pbw(self, element):
        """Image of a PBW element: a vector {(a, w, b): coeff}."""
        return self._reduce_terms(element.terms)

    def _reduce_terms(self, terms):
        """Image of PBW terms {(a, w, b): coeff} of any degree."""
        return self._reduce_pairs((key, (c.numerator, c.denominator))
                                  for key, c in terms.items())

    def _reduce_pairs(self, terms):
        """Image of PBW terms given as ((a, w, b), (num, den)) items, an int
        or IntCyc numerator over a positive int den, a key possibly more
        than once: x^a and y^b are read through the fibers as integer
        numerators, each output key sums its contributions as a (num, den)
        pair, as ``CherednikAlgebra.multiply`` does, dropping a key whose
        sum is 0, and each output coefficient is one canonical Fraction or
        Cyc at the end."""
        xnums, ynums = self._x_nums, self._y_nums
        out = {}
        get = out.get
        for (a, w, b), (nv, dv) in terms:
            dx, xs = xnums[a]
            dy, ys = ynums[b]
            dv *= dx * dy
            for xm, nx in xs:
                nvx = nv * nx
                for ym, ny in ys:
                    num, den, key = nvx * ny, dv, (xm, w, ym)
                    old = get(key)
                    if old is not None:
                        onum, oden = old
                        if oden == den:
                            num = onum + num
                        else:
                            num = onum * den + num * oden
                            den *= oden
                        if not num:
                            del out[key]
                            continue
                    out[key] = (num, den)
        return {key: Fraction(num, den) if type(num) is int else num.over(den)
                for key, (num, den) in out.items()}

    def multiply(self, u, v):
        """The product of two vectors: ``CherednikAlgebra.multiply``, reduced."""
        algebra = self.algebra
        return self.reduce_pbw(algebra.multiply(PBWElement(algebra, u),
                                                PBWElement(algebra, v)))

    # ---- grading ----------------------------------------------------------------
    @cached_property
    def degree_slices(self):
        """The keys (a, w, b) by degree |a| - |b|, each slice in x^a, w, y^b
        order; off the graded fiber one slice 0 holds them all."""
        slices = {}
        for a in self.x_basis:
            for w in range(self.group.order):
                for b in self.y_basis:
                    d = sum(a) - sum(b) if self.graded else 0
                    slices.setdefault(d, []).append((a, w, b))
        return dict(sorted(slices.items()))

    # ---- adjoint actions ----------------------------------------------------------
    def _orbit_spanning(self, side):
        """Indices i, in order, each kept when the W-conjugates of the i-th
        x (side "x", in h*) or y (side "y", in h) widen the span of those
        kept before, until the span is all n dimensions."""
        group, n = self.group, self.group.n
        act = self.algebra._act_x if side == "x" else self.algebra._act_y
        span, keep = Echelon(n), []
        for i in range(n):
            if len(span) == n:
                break
            unit = _unit_exp(n, i)
            grew = False
            for w in range(group.order):
                grew |= span.add({e.index(1): c
                                  for e, c in act(w, unit).items()})
            if grew:
                keep.append(i)
        return keep

    @cached_property
    def _adjoint_generators(self):
        """(generator, degree) for the pbw centre: the group generators
        ("w", s), and ("x", i), ("y", j) for the orbit-spanning i and j.  An
        element that commutes with W and with x_i commutes with every w . x_i,
        so commuting with these is commuting with all of h* + h + W."""
        step = 1 if self.graded else 0
        return ([(("w", s), 0) for s in self.group.generators.values()]
                + [(("x", i), step) for i in self._orbit_spanning("x")]
                + [(("y", j), -step) for j in self._orbit_spanning("y")])

    @cached_property
    def _certificate_generators(self):
        """(name, vector) of the W generators and of the x_i, y_j of
        ``_adjoint_generators``, read off ``generators``."""
        vecs = [vec for vec, _deg in self.generators]
        xy = dict(zip(product(range(self.group.n), "xy"), vecs))
        return list(zip(self.group.generators, vecs[len(xy):])) + [
            (f"{side}{i + 1}", xy[i, side])
            for (side, i), _deg in self._adjoint_generators if side != "w"]

    def _adjoint(self, gen, m):
        """m g - g m, the key m = (a, u, b), x^a u y^b, times a generator
        ("w", s), ("x", i) or ("y", j) on either side, formed from the key:

            m s = x^a (us) (s^-1 . y^b),  s m = (s . x^a) (su) y^b,
            m x_i = x^a (u . x^e) (us) y^f  over  y^b x_i = x^e s y^f,
            x_i m = x^(a + e_i) u y^b,
            m y_j = x^a u y^(b + e_j),
            y_j m = [y_j, x^a] u y^b + x^a u (u^-1 . y_j) y^b,

        reduced through the two fibers."""
        algebra, group = self.algebra, self.group
        mult, inverse = group.mult, group._inverse
        a, u, b = m
        kind, k = gen
        terms = []      # ((a, w, b), (numerator, den)), as _reduce_pairs reads
        put = terms.append
        if kind == "w":
            us, su = mult(u, k), mult(k, u)
            for f, c in algebra._act_y(inverse[k], b).items():
                put(((a, us, f), (c.numerator, c.denominator)))
            for e, c in algebra._act_x(k, a).items():
                put(((e, su, b), (-c.numerator, c.denominator)))
        elif kind == "x":
            unit = _unit_exp(group.n, k)
            for (e, s, f), t in algebra._yb_xc(b, unit).items():
                us = mult(u, s)
                nt, dt = t.numerator, t.denominator
                for xm, c in algebra._act_x(u, e).items():
                    put(((tuple(map(add, a, xm)), us, f),
                         (nt * c.numerator, dt * c.denominator)))
            put(((tuple(map(add, a, unit)), u, b), (-1, 1)))
        else:
            unit = _unit_exp(group.n, k)
            put(((a, u, tuple(map(add, b, unit))), (1, 1)))
            for (e, s), c in algebra._comm_mono(k, a).items():
                put(((e, mult(s, u), b), (-c.numerator, c.denominator)))
            for f, c in algebra._act_y(inverse[u], unit).items():
                put(((a, u, tuple(map(add, b, f))), (-c.numerator,
                                                     c.denominator)))
        return self._reduce_pairs(terms)

    # ---- center -------------------------------------------------------------------
    def _slice_kernel(self, d, adjoints):
        """RREF rows, in pivot order and keyed (a, w, b), of the common
        kernel on slice d of the maps m -> [m, g] over the (adjoint, degree
        of g) pairs in ``adjoints``, each image tagged by its generator."""
        slices = self.degree_slices
        # an adjoint that lands in a zero space poses no constraint
        live = [(g, adjoint) for g, (adjoint, gdeg) in enumerate(adjoints)
                if d + gdeg in slices]
        return kernel_basis(slices.get(d, []), lambda m: {
            (g, k): val for g, adjoint in live
            for k, val in adjoint(m).items()})

    def _center_slice(self, d):
        """RREF rows of Z_d, the central elements of degree d, solved on
        first use from ``_adjoint`` and certified through ``multiply``: each
        commutes with the W generators and the orbit-spanning x_i, y_j."""
        if d not in self._center_slices:
            rows = self._slice_kernel(d, [
                (partial(self._adjoint, gen), gdeg)
                for gen, gdeg in self._adjoint_generators])
            for z, (name, g) in product(rows, self._certificate_generators):
                if self.multiply(z, g) != self.multiply(g, z):
                    raise CherednikError(f"a vector of Z_{d} does not commute "
                                         f"with the generator {name}")
            self._center_slices[d] = rows
        return self._center_slices[d]

    def skew_center(self, d):
        """RREF rows of Z_d solved from ``skew_multiply`` commutators with
        every entry of ``generators``: the c = 0 oracle for the centre, with
        no straightening and no direct adjoint map."""
        algebra = self.algebra
        if not algebra.param.is_zero():
            raise InvalidInput("skew_center is the c = 0 oracle; c is not 0")

        def commutator(gvec, m):
            g = PBWElement(algebra, gvec)
            em = PBWElement(algebra, {m: ONE})
            return self.reduce_pbw(algebra.skew_multiply(em, g)
                                   - algebra.skew_multiply(g, em))

        return self._slice_kernel(d, [(partial(commutator, gvec), gdeg)
                                      for gvec, gdeg in self.generators])

    def center(self):
        """Basis of the center, as vectors: the RREF rows of every Z_d,
        ordered by their pivot, a row's first key, in x^a, w, y^b order.
        Distinct degrees have disjoint supports, so these are the rows of
        the echelon of the center."""
        by_pivot = {next(iter(row)): row for d in self.degree_slices
                    for row in self._center_slice(d)}
        return [by_pivot[key] for key in product(
            self.x_basis, range(self.group.order), self.y_basis)
            if key in by_pivot]

    def degree_zero_center(self):
        """Basis of Z_0, the degree-0 part of the center (RREF rows in pivot
        order); at b != 0 that is the whole center."""
        return self._center_slice(0)

    # ---- blocks -----------------------------------------------------------------
    def _central_character(self, rep):
        """Scalar of each Z_0 basis vector on Delta(rep).

        Each is certified central of degree 0, so it acts on the lowest
        degree, the irreducible rep, by a scalar s (Schur), and by s on all
        of Delta(rep), which that degree generates: it sends basis vector 0,
        1 (x) v_0, to s e_0, and anything else is an error.  An element of
        nonzero degree is nilpotent and adds nothing.
        """
        mod = self.baby_verma(rep)
        cols = [mod.apply(z, {0: ONE}) for z in self.degree_zero_center()]
        if any(set(col) - {0} for col in cols):
            raise CherednikError(f"a Z_0 basis vector is not a scalar on the "
                                 f"baby Verma {rep.label!r}")
        return tuple(col.get(0, ZERO) for col in cols)

    def block_count(self):
        """Number of blocks over the algebraic closure, at any fiber point:
        the rank of the trace form (z, z') -> sum over lambda of
        tr(z z') on Delta_b(lambda), on Z_0.

        A central element of nonzero degree is nilpotent, so Z_0 / rad Z_0
        is Z / rad Z, one field (over the closure) per block.  Nilpotents
        have trace 0.  On Z / rad Z the form is diagonal in the block
        idempotents e_i, with entries dim e_i (sum of the Delta_b(lambda)),
        and none is 0: each simple module is a quotient of some
        Delta_b(lambda) (y acts nilpotently, so L^{y=0} is not 0, and
        Frobenius reciprocity gives the map).
        """
        zero = self.degree_zero_center()
        actions = [[self.baby_verma(rep).act_columns(z) for z in zero]
                   for rep in self.group.irreps]
        return rank(_trace_gram(list(zip(*actions))))

    def cm_partition(self, verify=True):
        """Blocks by linkage of graded decomposition numbers; route 2, central
        characters (each Z_0 basis vector takes one value on every baby
        Verma of a block), cross-checks them in ``route_agreement``."""
        if not self.graded:
            raise CherednikError(
                "the partition of the irreducibles is defined through the "
                "graded quotient at b = 0; use block_count() at other fibers")
        group = self.group
        linkage = self._linkage_classes()
        # route 2: Mueller-type linking by central characters
        by_char = {}
        for rep in group.irreps:
            by_char.setdefault(self._central_character(rep), []).append(
                rep.label)
        route2 = sorted([tuple(sorted(v, key=str)) for v in by_char.values()])
        route1 = sorted([tuple(sorted(v, key=str)) for v in linkage])
        agreement = route1 == route2
        # assemble blocks
        blocks = []
        for labels in sorted((sorted(v, key=str) for v in linkage), key=str):
            b_inv = {lbl: group.b_invariant(group.irrep(lbl))
                     for lbl in labels}
            blocks.append(Block(labels, b_inv,
                                distinguished_rep(labels, b_inv)))
        verification = {}
        if verify:
            surj = self.center_surjectivity_on_baby_verma
            verification = {
                "e_dims": {str(lbl): self.dim_e_simple(group.irrep(lbl))
                           for blk in blocks for lbl in blk.labels},
                "center_surjectivity": {str(blk.distinguished): surj(
                    group.irrep(blk.distinguished)) for blk in blocks}}
        return BlockPartition(group, self.algebra.param, blocks, agreement,
                              verification)

    def center_surjectivity_on_baby_verma(self, rep):
        """Does the center surject onto End(Delta(0, rep, b))?

        Only the degrees d >= 0 of the center are read.  A central element
        of degree d < 0 sends the lowest degree of Delta(rep) below degree
        0, where there is nothing; as it is central and the lowest degree
        generates, it acts by 0 on all of Delta(rep).  As a module map, z is
        fixed by its value on the generator 1 (x) v_0, basis vector 0.
        """
        mod = self.baby_verma(rep)
        dim_end = self.endomorphism_dimension(mod)
        dim_image = rank([mod.apply(z, {0: ONE}) for d in self.degree_slices
                          if d >= 0 for z in self._center_slice(d)], mod.dim)
        return {"dim_end": dim_end, "dim_center_image": dim_image,
                "surjective": dim_image == dim_end}

    def __repr__(self):
        return (f"RestrictedCherednikAlgebra({self.group.name}, dim={self.dim},"
                f" b={'0' if self.graded else self.b_point})")


class _Numerators(dict):
    """Monomial -> its image in one fiber as (den, ((monomial, integer
    numerator), ...)) over one positive int den, read once from the fiber."""

    def __init__(self, fiber):
        super().__init__()
        self.fiber = fiber

    def __missing__(self, mono):
        nums, den = _numerators(self.fiber[mono])
        out = self[mono] = (den, tuple(nums.items()))
        return out


def _combination(pairs):
    """The sparse vector sum of c * vec over the (c, vec) pairs."""
    out = {}
    for c, vec in pairs:
        if c:
            _axpy(out, vec, c)
    return out


def _trace_gram(elements):
    """Gram matrix of the trace form (a, b) -> sum over k of tr(a_k b_k) on
    ``elements``, each a list of square matrices a_k, one per module: the
    sum of a_k[i][j] b_k[j][i] over the entries both store."""
    return [[sum((v * bk[i][j] for ak, bk in zip(u, w)
                  for j, col in enumerate(ak) for i, v in col.items()
                  if j in bk[i]), ZERO) for w in elements] for u in elements]


def distinguished_rep(labels, b_invariants):
    """The unique minimal-b member of a block; ties are a hard error."""
    if not labels:
        raise ValueError("empty block")
    best = min(b_invariants[l] for l in labels)
    winners = [l for l in labels if b_invariants[l] == best]
    if len(winners) > 1:
        raise TieDetected(
            f"b-invariant tie at {best} among {winners}", labels=winners)
    return winners[0]


def build_restricted(group, param, b_point=None, cap=RESTRICTED_CAP):
    """Construct the restricted algebra for (group, param) at fiber point b,
    degree cap 2N or more: |a|, |b| <= N, the reflections, in x^a w y^b."""
    algebra = CherednikAlgebra(
        group, param, max(DEFAULT_DEGREE_CAP, 2 * len(group.reflections)))
    return RestrictedCherednikAlgebra(algebra, b_point=b_point, cap=cap)


def act_on_baby_verma(element, mod):
    """Matrix of a PBW element on a baby Verma module, as dense rows."""
    if element.algebra is not mod.parent.algebra:
        raise DimensionMismatch(
            "element and module live over different algebras")
    cols = mod.act_columns(element.terms)
    return [[col.get(i, ZERO) for col in cols] for i in range(mod.dim)]


def baby_verma(group, param, rep_label, p=None, b_point=None):
    """The standard module quotient for (group, param) at fiber point b.

    For p != 0 the construction routes through the stabilizer pair: the
    module returned is the one induced at 0 over (W_p, c'), where
    ``rep_label`` names an irreducible of the stabilizer.
    """
    if p is not None and any(p):
        from .parabolic import make_context
        ctx = make_context(group, param, p)
        group, param = ctx.stabilizer, ctx.restricted_param
    modules = StandardModules(CherednikAlgebra(group, param), b_point)
    return modules.baby_verma(group.irrep(rep_label))
