"""Reduction of standard modules at a point p != 0 of h* to the stabilizer.

The endomorphism ring of the module induced at p is that of the module
induced at 0 over the stabilizer pair (W_p, c'), where c' restricts the
parameter to the reflections fixing p.  This module packages the transfer:
orbit data, the stabilizer group with inherited reflection data, the
restricted parameter, and characters computed over (W_p, c') with the full
ambient space h (so the degrees multiset always has n = dim h entries).
"""

from __future__ import annotations

from .cyclotomic import scalar_payload
from .errors import CherednikError, DimensionMismatch
from .groups import _closure
from .series import DEFAULT_TRUNCATION
from .verma import endo_character


class ReductionContext:
    """Orbit, stabilizer and restricted parameter at a point of h*."""

    def __init__(self, group, param, point, orbit, stabilizer, restricted):
        self.group = group
        self.param = param
        self.point = tuple(point)
        self.orbit = orbit
        self.stabilizer = stabilizer
        self.restricted_param = restricted
        if len(orbit) * stabilizer.order != group.order:
            raise CherednikError(
                "orbit-stabilizer mismatch: "
                f"{len(orbit)} * {stabilizer.order} != {group.order}")

    def payload(self):
        def pt(p):
            return [scalar_payload(v) for v in p]
        return {
            "group": self.group.name,
            "parameter": self.param.payload(),
            "point": pt(self.point),
            "orbit_size": len(self.orbit),
            "orbit": [pt(p) for p in self.orbit],
            "stabilizer_order": self.stabilizer.order,
            "stabilizer_degrees": list(self.stabilizer.degrees),
            "restricted_parameter": self.restricted_param.payload(),
        }

    def __repr__(self):
        return (f"ReductionContext(point={self.point}, orbit={len(self.orbit)},"
                f" |W_p|={self.stabilizer.order})")


def make_context(group, param, point):
    """Orbit, stabilizer (with Steinberg check) and restricted parameter."""
    group.degrees   # rejects a group that is not a reflection group
    point = tuple(point)
    if len(point) != group.n:
        raise DimensionMismatch(f"a point of h* for {group.name} needs n = "
                                f"{group.n} coordinates, got {len(point)}")
    gen_idx = list(group.generators.values())
    orbit = _closure([point], lambda q: [group.act_hstar(g, q)
                                         for g in gen_idx])
    stab = group.stabilizer(point)
    restricted = param.restrict_to(stab)
    return ReductionContext(group, param, point, orbit, stab, restricted)


def reduced_endo_character(ctx, rep, truncation=DEFAULT_TRUNCATION):
    """Character of End(Delta(p, rep)) computed over (W_p, c').

    ``rep`` is an irreducible of the stabilizer (or its label); it must be
    the distinguished member of its block of (W_p, c') for the formula to
    apply.  ``verma.undistinguished_note`` decides that at c' = 0; at other
    parameters the caller guarantees it (checked downstream by positivity).
    """
    if not hasattr(rep, "matrix"):
        rep = ctx.stabilizer.irrep(rep)
    return endo_character(ctx.stabilizer, rep, truncation)


def conjugate_rep_label(ctx_from, ctx_to, widx, rep):
    """Label of the w-conjugate of a stabilizer irreducible.

    For w with w(p) = p', conjugation maps W_p isomorphically onto W_{p'};
    the matching irreducible has character chi'(g') = chi(w^{-1} g' w).
    """
    group = ctx_from.group
    stab_to = ctx_to.stabilizer
    winv = group.inv(widx)
    target = []
    for r2 in stab_to.class_representatives:
        parent_idx = stab_to.parent_indices[r2]
        conj = group.mult(group.mult(winv, parent_idx), widx)
        local = ctx_from.stabilizer.parent_indices.index(conj)
        target.append(rep.char(local))
    return stab_to.irrep_with_character(tuple(target)).label


def verify_reduction_invariance(group, param, point, widx,
                                truncation=DEFAULT_TRUNCATION):
    """Reduced characters agree at p and w(p) (with conjugated labels)."""
    ctx1 = make_context(group, param, tuple(point))
    point2 = group.act_hstar(widx, tuple(point))
    ctx2 = make_context(group, param, point2)
    if len(ctx1.orbit) != len(ctx2.orbit):
        return False
    if ctx1.stabilizer.order != ctx2.stabilizer.order:
        return False
    for rep in ctx1.stabilizer.irreps:
        lbl2 = conjugate_rep_label(ctx1, ctx2, widx, rep)
        ch1 = reduced_endo_character(ctx1, rep, truncation)
        ch2 = reduced_endo_character(ctx2, lbl2, truncation)
        if not ch1.equals(ch2, up_to=truncation):
            return False
    return True
