"""Normal-form arithmetic in the rational Cherednik algebra at t = 0.

Elements are finite sums of normal-ordered monomials x^a * w * y^b with
exact coefficients.  Multiplication straightens every y leftward past x's
through the defining commutation relation

    [y, x] = sum_s c(s) * x(alpha_s) * alpha_s^vee(y) / alpha_s^vee(alpha_s) * s

and past group elements through w * y * w^{-1} = w(y); each swap strictly
lowers the y-to-the-left disorder, so straightening terminates.  The
commutator of y with a monomial is computed by the recursion
[y, x*f] = [y, x]*f + x*[y, f] and cached.

The x-degree minus y-degree grading is tracked exactly; products beyond the
per-factor degree cap raise instead of truncating.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import add

from .cyclotomic import Cyc, scalar_payload
from .errors import DegreeCapExceeded, InvalidElement, InvalidInput
from .linalg import ONE, ZERO, _add_term, _axpy, _interned

DEFAULT_DEGREE_CAP = 12
# what an element compares with as algebra.scalar(c)
_SCALARS = (int, Fraction, Cyc)


def _in_field(c, n, error):
    """The scalar c read in Q(zeta_n), the field of a group of conductor n:
    an int as a Fraction, a Cyc through ``Cyc.of``.  A Cyc whose conductor
    does not divide n, and any scalar that is not exact, is ``error``."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if not isinstance(c, Cyc):
        raise error(f"scalar {c!r} is not exact; use an int, a Fraction or "
                    "a Cyc")
    if n % c.n:
        raise error(f"scalar {c} of Q(zeta_{c.n}) is not in Q(zeta_{n}): "
                    f"conductor {c.n} does not divide the group's {n}")
    return Cyc.of(c, n)


class Parameter:
    """A W-equivariant function on reflections: class label -> scalar."""

    def __init__(self, group, values):
        self.group = group
        labels = set(group.reflection_class_labels)
        got = set(values)
        if labels != got:
            raise InvalidInput(
                f"parameter must assign exactly the reflection classes "
                f"{sorted(labels)}, got {sorted(got)}")
        self.values = {lbl: _in_field(v, group.conductor, InvalidInput)
                       for lbl, v in values.items()}

    @classmethod
    def zero(cls, group):
        return cls(group, dict.fromkeys(group.reflection_class_labels, ZERO))

    @classmethod
    def constant(cls, group, value):
        return cls(group, dict.fromkeys(group.reflection_class_labels, value))

    @classmethod
    def generic(cls, group, seed=0):
        """Seeded random rationals with distinct large numerators."""
        rng = random.Random(seed)
        used = set()
        values = {}
        for lbl in group.reflection_class_labels:
            while True:
                num = 10007 + rng.randrange(90000)
                if num not in used:
                    used.add(num)
                    break
            values[lbl] = Fraction(num, 1)
        return cls(group, values)

    def value(self, class_label):
        return self.values[class_label]

    def is_zero(self):
        return all(not v for v in self.values.values())

    def restrict_to(self, subgroup):
        """The restriction c' to a reflection subgroup of the same group."""
        out = {}
        for r in subgroup.reflections:
            lbl = subgroup.ambient_reflection_class(r)
            v = self.values[lbl]
            prev = out.get(r.class_label)
            if prev is not None and prev != v:
                raise ValueError("parameter is not constant on a subgroup "
                                 "reflection class")
            out[r.class_label] = v
        return Parameter(subgroup, out)

    def payload(self):
        return {lbl: scalar_payload(v) for lbl, v in sorted(self.values.items())}

    def __repr__(self):
        vals = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"Parameter({vals})"


class PBWElement:
    """A finite linear combination of normal-ordered monomials x^a w y^b."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        t = {}
        if terms:
            for key, v in terms.items():
                if v:
                    t[key] = v
        self.terms = t

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements live over different (group, parameter)")

    def __add__(self, other):
        if not isinstance(other, PBWElement):
            other = self.algebra.scalar(other)
        self._check(other)
        return PBWElement(self.algebra,
                          _axpy(dict(self.terms), other.terms, ONE))

    __radd__ = __add__

    def __neg__(self):
        return PBWElement(self.algebra, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PBWElement):
            other = self.algebra.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PBWElement):
            other = _in_field(other, self.algebra.group.conductor,
                              InvalidElement)
            return PBWElement(self.algebra,
                              {k: v * other for k, v in self.terms.items()})
        self._check(other)
        return self.algebra.multiply(self, other)

    __rmul__ = __mul__      # only for a scalar on the left, and scalars commute

    def __pow__(self, k):
        # refused before any product, as k factors are multiplied in turn
        if not isinstance(k, int):
            raise InvalidElement(f"power {k!r} of an algebra element is not "
                                 "an integer")
        top = 2 * self.algebra.degree_cap
        if not 0 <= k <= top:
            raise InvalidElement(f"power {k} of an algebra element is not in "
                                 f"0..{top} (twice the degree cap)")
        out = self.algebra.one()
        for _ in range(k):
            out = _join(out, self)
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = self.algebra.scalar(other)
        if not isinstance(other, PBWElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Grading degree |a| - |b| for homogeneous elements, else None."""
        degs = {sum(a) - sum(b) for (a, _w, b) in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    def max_polynomial_degree(self):
        return max((sum(a) + sum(b) for (a, _w, b) in self.terms), default=0)

    def y_symbol(self):
        """Terms of maximal total y-degree (top symbol of the y-filtration)."""
        if not self.terms:
            return PBWElement(self.algebra, {})
        top = max(sum(b) for (_a, _w, b) in self.terms)
        return PBWElement(self.algebra,
                          {k: v for k, v in self.terms.items()
                           if sum(k[2]) == top})

    def __str__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        parts = []
        for (a, w, b) in sorted(self.terms):
            v = self.terms[(a, w, b)]
            factors = []
            for i, k in enumerate(a):
                if k:
                    factors.append(f"x{i + 1}" + (f"^{k}" if k > 1 else ""))
            if w != alg.group._identity:
                factors.append(f"w{w}")
            for i, k in enumerate(b):
                if k:
                    factors.append(f"y{i + 1}" + (f"^{k}" if k > 1 else ""))
            body = "*".join(factors) if factors else "1"
            if v == 1:
                parts.append(body)
            elif v == -1:
                parts.append(f"-{body}")
            else:
                sv = str(v)
                if not isinstance(v, Fraction) and len(v.c) > 1:
                    sv = f"({sv})"
                parts.append(f"{sv}*{body}")
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

    def __repr__(self):
        return f"PBW({self})"


class CherednikAlgebra:
    """Normal-form arithmetic over a fixed (group, parameter) pair."""

    def __init__(self, group, param, degree_cap=DEFAULT_DEGREE_CAP):
        if param.group is not group:
            raise ValueError("parameter was built for a different group")
        self.group = group
        self.param = param
        self.n = group.n
        self.degree_cap = degree_cap
        self._zero_exp = (0,) * self.n
        # reflection data with parameter values attached
        self.refl_data = [(r.element, r.alpha, r.alpha_vee, r.pairing(),
                           param.value(r.class_label))
                          for r in group.reflections]
        self._comm_cache, self._comm_coeffs = {}, {}
        self._ybxc_cache, self._ybxc_coeffs = {}, {}
        # w . x^a and w . y^b, cached per group
        self._act_x = group.invariant_theory("x")._act_monomial
        self._act_y = group.invariant_theory("y")._act_monomial

    # ---- constructors ------------------------------------------------------
    def zero(self):
        return PBWElement(self, {})

    def scalar(self, c):
        c = _in_field(c, self.group.conductor, InvalidElement)
        return PBWElement(
            self, {(self._zero_exp, self.group._identity, self._zero_exp): c})

    def one(self):
        return self.scalar(ONE)

    def x(self, i, power=1):
        e = [0] * self.n
        e[i] = power
        return PBWElement(
            self, {(tuple(e), self.group._identity, self._zero_exp): ONE})

    def y(self, i, power=1):
        e = [0] * self.n
        e[i] = power
        return PBWElement(
            self, {(self._zero_exp, self.group._identity, tuple(e)): ONE})

    def grp(self, widx):
        return PBWElement(self, {(self._zero_exp, widx, self._zero_exp): ONE})

    def monomial(self, a, widx, b, coeff=ONE):
        return PBWElement(self, {(tuple(a), widx, tuple(b)):
                                 _in_field(coeff, self.group.conductor,
                                           InvalidElement)})

    def symmetrizer(self):
        """The averaging idempotent e = |W|^{-1} sum_w w."""
        c = Fraction(1, self.group.order)
        return PBWElement(self, {(self._zero_exp, w, self._zero_exp): c
                                 for w in range(self.group.order)})

    # ---- the defining commutator -----------------------------------------------
    def commutator_yx(self, yvec, xvec):
        """[y, x] for vectors y in h, x in h*: a group-algebra element."""
        terms = {}
        for (widx, alpha, alpha_vee, pairing, c) in self.refl_data:
            if not c:
                continue
            x_of_alpha = sum((xv * av for xv, av in zip(xvec, alpha) if xv),
                             ZERO)
            avee_of_y = sum((bv * yv for bv, yv in zip(alpha_vee, yvec) if yv),
                            ZERO)
            coeff = c * x_of_alpha * avee_of_y / pairing
            _add_term(terms, (self._zero_exp, widx, self._zero_exp), coeff)
        return PBWElement(self, terms)

    def _comm_mono(self, j, a):
        """[y_j, x^a] as {(x-monomial, w): coeff}; empty for |a| = 0."""
        key = (j, a)
        out = self._comm_cache.get(key)
        if out is not None:
            return out
        if not any(a):
            out = {}
        else:
            i = next(t for t, k in enumerate(a) if k)
            rest = list(a)
            rest[i] -= 1
            rest = tuple(rest)
            xi = _unit_exp(self.n, i)
            act_x = self._act_x
            out = {}
            # x_i * [y_j, x^rest]
            for (e, w), c in self._comm_mono(j, rest).items():
                _add_term(out, (tuple(map(add, e, xi)), w), c)
            # [y_j, x_i] * x^rest = sum_s kappa * (s . x^rest) * s
            for (widx, alpha, alpha_vee, pairing, c) in self.refl_data:
                if not c or not alpha[i]:
                    continue
                kappa = c * alpha[i] * alpha_vee[j] / pairing
                if not kappa:
                    continue
                for e, ce in act_x(widx, rest).items():
                    _add_term(out, (e, widx), kappa * ce)
        out = self._comm_cache[key] = _interned(out, self._comm_coeffs)
        return out

    def _yb_xc(self, b, c):
        """y^b x^c as {(x-mono, w, y-mono): coeff} in normal order."""
        key = (b, c)
        out = self._ybxc_cache.get(key)
        if out is not None:
            return out
        if not any(b):
            out = {(c, self.group._identity, self._zero_exp): ONE}
        else:
            j = next(t for t, k in enumerate(b) if k)
            rest = list(b)
            rest[j] -= 1
            rest = tuple(rest)
            inner = self._yb_xc(rest, c)
            yj = _unit_exp(self.n, j)
            mult, inverse = self.group.mult, self.group._inverse
            act_y, comm_mono = self._act_y, self._comm_mono
            out = {}
            for (e, w, f), coeff in inner.items():
                # y_j * x^e * w * y^f
                # commutator part: [y_j, x^e] w y^f
                for (e2, s), c2 in comm_mono(j, e).items():
                    _add_term(out, (e2, mult(s, w), f), coeff * c2)
                # straight part: x^e (y_j w) y^f = x^e w (w^{-1}.y_j) y^f
                for ym, cy in act_y(inverse[w], yj).items():
                    _add_term(out, (e, w, tuple(map(add, f, ym))),
                              coeff * cy)
        out = self._ybxc_cache[key] = _interned(out, self._ybxc_coeffs)
        return out

    # ---- multiplication -----------------------------------------------------------
    def multiply(self, u, v):
        cap = self.degree_cap
        for elt in (u, v):
            d = elt.max_polynomial_degree()
            if d > cap:
                raise DegreeCapExceeded(
                    f"factor of total degree {d} exceeds cap {cap}")
        # Each contribution is an integer numerator (an int, or an IntCyc
        # over Q(zeta_N)) over a positive int denominator, multiplied with
        # plain operators and never normalized; out[key] holds such a pair
        # and each output coefficient is built once, at the end.
        out = {}
        get = out.get
        mult, inverse = self.group.mult, self.group._inverse
        act_x, act_y, yb_xc = self._act_x, self._act_y, self._yb_xc
        vterms = [(c, w2, d, inverse[w2], cv.numerator, cv.denominator)
                  for (c, w2, d), cv in v.terms.items()]
        for (a, w, b), cu in u.terms.items():
            nu, du = cu.numerator, cu.denominator
            for c, w2, d, w2inv, nv, dv in vterms:
                nuv, duv = nu * nv, du * dv
                for (e, s, f), t in yb_xc(b, c).items():
                    nt, dt = nuv * t.numerator, duv * t.denominator
                    # x^a (w . x^e) [w s w2] ((w2^{-1}) . y^f) y^d
                    g = mult(mult(w, s), w2)
                    ys = [(tuple(map(add, d, ym)), cy.numerator,
                           cy.denominator)
                          for ym, cy in act_y(w2inv, f).items()]
                    for xm, cx in act_x(w, e).items():
                        am = tuple(map(add, a, xm))
                        nx, dx = nt * cx.numerator, dt * cx.denominator
                        for bm, ny, dy in ys:
                            num, den = nx * ny, dx * dy
                            # out[key] += num / den, dropping a key that
                            # sums to 0, as _add_term does
                            key = (am, g, bm)
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
        return PBWElement(self, {
            key: Fraction(num, den) if isinstance(num, int) else num.over(den)
            for key, (num, den) in out.items()})

    def skew_multiply(self, u, v):
        """Product in C[h + h*] rtimes W (the c = 0 degeneration), computed
        directly without straightening; independent oracle for c = 0."""
        out = {}
        group = self.group
        for (a, w, b), cu in u.terms.items():
            for (c, w2, d), cv in v.terms.items():
                cuv = cu * cv
                xpoly = self._act_x(w, c)
                g = group.mult(w, w2)
                ypoly = self._act_y(group.inv(w2), b)
                for xm, cx in xpoly.items():
                    am = tuple(p + q for p, q in zip(a, xm))
                    cxx = cuv * cx
                    for ym, cy in ypoly.items():
                        bm = tuple(p + q for p, q in zip(d, ym))
                        _add_term(out, (am, g, bm), cxx * cy)
        return PBWElement(self, out)

    # ---- parsing / printing ---------------------------------------------------
    def parse(self, text):
        return _parse_element(self, text)

    def __repr__(self):
        return (f"CherednikAlgebra({self.group.name}, "
                f"c={dict(sorted(self.param.values.items()))})")


def _unit_exp(n, j):
    e = [0] * n
    e[j] = 1
    return tuple(e)


# --------------------------------------------------------------------------
# Element text syntax: e.g. "y1*x1^2 + 2*s12 - 1/2*w3"; z is zeta_N, the
# root of unity of the group's conductor N, as Cyc values print it.
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]\w*)"
                    r"|(?P<op>[-+*^()]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise InvalidElement(
                f"cannot tokenize element text at {text[pos:]!r}")
        pos = m.end()
        if m.group("num"):
            a, _, b = m.group("num").partition("/")
            try:  # a zero denominator, or a literal too long for int()
                out.append(("num", Fraction(int(a), int(b or 1))))
            except (ValueError, ZeroDivisionError):
                raise InvalidElement("not a rational number in element text: "
                                     f"{m.group('num')[:40]!r}") from None
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def _parse_element(algebra, text):
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else (None, None)

    def advance():
        t = peek()
        pos[0] += 1
        return t

    def atom():
        kind, val = peek()
        if kind == "num":
            advance()
            return algebra.scalar(val)
        if kind == "name":
            advance()
            return _resolve_name(algebra, val)
        if kind == "op" and val == "(":
            advance()
            e = expression()
            kind, val = advance()
            if val != ")":
                raise InvalidElement("unbalanced parentheses in element text")
            return e
        if kind is None:
            raise InvalidElement("element text ends too early")
        raise InvalidElement(f"unexpected token {val!r} in element text")

    def factor():
        bare_z = peek() == ("name", "z")
        base = atom()
        kind, val = peek()
        if kind == "op" and val == "^":
            advance()
            kind, k = advance()
            if kind != "num" or k.denominator != 1:
                raise InvalidElement("exponent must be a nonnegative integer")
            if bare_z:  # in the field, so every z^e a Cyc prints reads back
                N = algebra.group.conductor
                return algebra.scalar(Cyc.zeta(N, int(k) % N))
            return base ** int(k)
        return base

    def term():
        out = factor()
        while True:
            kind, val = peek()
            if kind == "op" and val == "*":
                advance()
                out = _join(out, factor())
            else:
                return out

    def expression():
        kind, val = peek()
        sign = ONE
        if kind == "op" and val in "+-":
            advance()
            sign = -ONE if val == "-" else ONE
        out = term() * sign
        while True:
            kind, val = peek()
            if kind == "op" and val in "+-":
                advance()
                nxt = term()
                out = out + (nxt if val == "+" else -nxt)
            else:
                return out

    out = expression()
    if pos[0] != len(tokens):
        raise InvalidElement("trailing tokens in element text")
    return out


def _join(u, v):
    """u * v, with no straightening where each pair of terms x^a w y^b and
    x^c w2 y^d already reads in PBW order: y^b meets no x^c or w2, and x^c
    meets no w.  So a power of a variable is one monomial, and a printed
    term (x-part, then group element, then y-part) reads back past the
    degree cap."""
    algebra = u.algebra
    ident = algebra.group._identity
    if not all((not any(b) or not any(c) and w2 == ident)
               and (not any(c) or w == ident)
               for (_a, w, b) in u.terms for (c, w2, _d) in v.terms):
        return u * v
    mult = algebra.group.mult
    out = {}
    for (a, w, b), cu in u.terms.items():
        for (c, w2, d), cv in v.terms.items():
            _add_term(out, (tuple(map(add, a, c)), mult(w, w2),
                            tuple(map(add, b, d))), cu * cv)
    return PBWElement(algebra, out)


def _resolve_name(algebra, name):
    group = algebra.group
    m = re.fullmatch(r"([xy])(\d+)", name)
    if m:
        i = int(m.group(2)) - 1
        if not 0 <= i < algebra.n:
            raise InvalidElement(f"variable index out of range in {name!r}")
        return algebra.x(i) if m.group(1) == "x" else algebra.y(i)
    m = re.fullmatch(r"w(\d+)", name)
    if m:
        idx = int(m.group(1))
        if not 0 <= idx < group.order:
            raise InvalidElement(
                f"group element index out of range in {name!r}")
        return algebra.grp(idx)
    if name == "e":
        return algebra.symmetrizer()
    if name == "z":
        return algebra.scalar(Cyc.zeta(group.conductor))
    if name in group.generators:
        return algebra.grp(group.generators[name])
    raise InvalidElement(f"unknown generator {name!r} for group {group.name}")
