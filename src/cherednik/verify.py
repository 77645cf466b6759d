"""The consolidated verification suite behind ``cherednik verify``.

Six suites (PBW associativity, restricted dimensions, block partitions,
character formulas, exterior-model identities, parabolic reduction), each a
function ``(seed, deep)`` returning a list of ``{"name", "pass", ...}``
checks; a failing check that folds several conditions also lists, under
``failed``, the names of those that failed.
``run_verification`` runs a selection of them into one report; the report is
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bv import bv_check
from .groups import build_group
from .parabolic import (make_context, reduced_endo_character,
                        verify_reduction_invariance)
from .pbw import CherednikAlgebra, Parameter
from .restricted import build_restricted
from .series import DEFAULT_TRUNCATION, GradedCharacter, product_of_geometric
from .verma import (endo_character, ext_character, hook_identity_check,
                    solve_eis, solve_eis_from_character, tor_character)

PBW_GRID = ("Zm:2", "Zm:3", "Sn:2:permutation", "Sn:3:reduced", "I2:3")
DIM_GRID = ("Zm:2", "Zm:3", "Sn:3:reduced", "Sn:2:permutation", "I2:4")
CM_GRID = ("Zm:2", "Zm:3", "Zm:4", "Sn:2:permutation", "Sn:3:reduced", "I2:3")


def _random_pbw(algebra, rng, max_terms=3, max_deg=2):
    out = algebra.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        a = tuple(rng.randrange(0, max_deg) for _ in range(algebra.n))
        b = tuple(rng.randrange(0, max_deg) for _ in range(algebra.n))
        w = rng.randrange(algebra.group.order)
        coeff = Fraction(rng.randrange(-4, 5))
        if coeff:
            out = out + algebra.monomial(a, w, b, coeff)
    return out


def _check(name, conditions, **extra):
    """A check that passes when every named condition holds; a failing one
    lists the names of the conditions that failed."""
    failed = [cond for cond, ok in conditions.items() if not ok]
    check = {"name": name, "pass": not failed, **extra}
    if failed:
        check["failed"] = failed
    return check


def _suite_pbw(seed, deep):
    checks = []
    for spec in PBW_GRID:
        group = build_group(spec)
        for cname, param in (("zero", Parameter.zero(group)),
                             ("generic", Parameter.generic(group, seed))):
            algebra = CherednikAlgebra(group, param)
            rng = random.Random(seed)
            conditions = {"associativity": True, "skew_agreement": True}
            for _ in range(100):
                u, v, w = (_random_pbw(algebra, rng) for _ in range(3))
                if (u * v) * w != u * (v * w):
                    conditions["associativity"] = False
                    break
                if param.is_zero() and u * v != algebra.skew_multiply(u, v):
                    conditions["skew_agreement"] = False
                    break
            conditions["commutation"] = all(
                algebra.x(i) * algebra.x(j) == algebra.x(j) * algebra.x(i)
                and algebra.y(i) * algebra.y(j) == algebra.y(j) * algebra.y(i)
                for i in range(group.n) for j in range(group.n))
            checks.append(_check(f"pbw:{spec}:c={cname}", conditions))
    return checks


def _suite_dimensions(seed, deep):
    expected = {"Zm:2": 8, "Zm:3": 27, "Sn:3:reduced": 216,
                "Sn:2:permutation": 8, "I2:4": 512}
    checks = []
    for spec in DIM_GRID:
        group = build_group(spec)
        rest = build_restricted(group, Parameter.generic(group, seed))
        ok = rest.dim == expected[spec] == group.order ** 3
        checks.append({"name": f"dimension:{spec}", "pass": ok,
                       "dim": rest.dim})
    return checks


def _suite_cm(seed, deep):
    checks = []
    grid = list(CM_GRID) + (["I2:4"] if deep else [])
    for spec in grid:
        group = build_group(spec)
        for cname, param in (("generic", Parameter.generic(group, seed)),
                             ("zero", Parameter.zero(group))):
            rest = build_restricted(group, param)
            part = rest.cm_partition(verify=True)
            conditions = {"route_agreement": part.route_agreement,
                          "theorems": part.theorems_hold()}
            if cname == "generic":
                conditions["singletons"] = part.all_singletons()
            if cname == "zero" and spec in ("Zm:2", "Zm:3"):
                conditions["zm_block_shape"] = (
                    len(part.blocks) == 1
                    and str(part.blocks[0].distinguished) == "chi0")
            if spec == "Sn:3:reduced" and cname == "generic":
                conditions["sn3_block_count"] = len(part.blocks) == 3
            # c = 0: Z_0 solved again from skew-group products must be the
            # same; the blocks read only the modules and Z_0, so they agree too
            if param.is_zero():
                conditions["skew_agreement"] = (
                    rest.degree_zero_center() == rest.skew_center(0))
            checks.append(_check(f"cm:{spec}:c={cname}", conditions,
                                 blocks=[list(map(str, b.labels))
                                         for b in part.blocks]))
    return checks


def _suite_characters(seed, deep):
    checks = []
    trunc = DEFAULT_TRUNCATION
    # hook identities
    for n in (2, 3) + ((4,) if deep else ()):
        group = build_group(f"Sn:{n}:permutation")
        ok = all(hook_identity_check(group, rep.label, trunc)
                 for rep in group.irreps)
        checks.append({"name": f"hook:Sn:{n}", "pass": ok})
    # generator degrees
    zm = [(m, build_group(f"Zm:{m}")) for m in (2, 3, 4)]
    s3 = build_group("Sn:3:permutation")
    synthetic = GradedCharacter({0: Fraction(1), 1: Fraction(1)}, trunc)

    def reconstructs(group, lbl):
        rep = group.irrep(lbl)
        recon = product_of_geometric(solve_eis(group, rep, trunc).exponents,
                                     trunc)
        return recon.equals(endo_character(group, rep, trunc), up_to=trunc)

    checks.append(_check("generator-degrees", {
        "zm_exponents": all(solve_eis(group, rep, trunc).exponents == (m,)
                            for m, group in zm for rep in group.irreps),
        "s3_exponents": (solve_eis(s3, s3.irrep((2, 1)), trunc).exponents
                         == (1, 1, 3)),
        "synthetic_no_solution": not solve_eis_from_character(
            synthetic, 1, trunc).is_solution(),
        "reconstruction": all(reconstructs(group, lbl) for group, lbl in (
            (s3, (2, 1)), (build_group("Zm:3"), "chi1"))),
    }))
    # tor/ext consistency
    slices = dict.fromkeys(("tor_t0", "ext_t0", "ext_top", "tor_top"), True)
    for spec, lbl in (("Zm:2", "chi1"), ("Zm:3", "chi2"),
                      ("Sn:3:permutation", (2, 1))):
        group = build_group(spec)
        rep = group.irrep(lbl)
        eis = solve_eis(group, rep, trunc)
        tor = tor_character(group, rep, eis, trunc)
        ext = ext_character(group, rep, eis, trunc)
        top = sum(eis.exponents)
        # End to trunc + top, so that its shift by q^-top covers q <= trunc
        endo = endo_character(group, rep, trunc + top)
        slices["tor_t0"] &= tor[0].equals(endo, up_to=trunc)
        slices["ext_t0"] &= ext[0].equals(endo, up_to=trunc)
        slices["ext_top"] &= ext[group.n].equals(endo.shift(top), up_to=trunc)
        slices["tor_top"] &= tor[group.n].equals(endo.shift(-top),
                                                 up_to=trunc)
    checks.append(_check("tor-ext-slices", slices))
    return checks


def _suite_bv(seed, deep):
    return [{"name": f"bv:n={n}:D={trunc}",
             "pass": bv_check(n, trunc, 50, seed)["checks_pass"]}
            for n in (1, 2, 3) for trunc in (4, 6, 8)]


def _suite_parabolic(seed, deep):
    checks = []
    grid = [
        ("Sn:3:permutation", ((1, 1, 0), (1, 2, 3), (0, 0, 0))),
        ("I2:4", ((1, 1), (0, 0))),
        ("Zm:3", ((1,), (0,))),
    ]
    for spec, points in grid:
        group = build_group(spec)
        param = Parameter.generic(group, seed)
        conditions = dict.fromkeys(("orbit_stabilizer", "identity_at_zero",
                                    "conjugation_invariance"), True)
        for coords in points:
            point = tuple(map(Fraction, coords))
            ctx = make_context(group, param, point)
            conditions["orbit_stabilizer"] &= (
                len(ctx.orbit) * ctx.stabilizer.order == group.order)
            if all(not v for v in point):
                # reduction at 0 must be the identity
                for rep in group.irreps:
                    r2 = ctx.stabilizer.irrep(rep.label)
                    conditions["identity_at_zero"] &= reduced_endo_character(
                        ctx, r2, 12).equals(endo_character(group, rep, 12),
                                            up_to=12)
            rng = random.Random(seed)
            for _ in range(2):
                widx = rng.randrange(group.order)
                conditions["conjugation_invariance"] &= (
                    verify_reduction_invariance(group, param, point, widx,
                                                truncation=12))
        checks.append(_check(f"parabolic:{spec}", conditions))
    return checks


SUITES = {
    "pbw": _suite_pbw,
    "dimensions": _suite_dimensions,
    "cm": _suite_cm,
    "characters": _suite_characters,
    "bv": _suite_bv,
    "parabolic": _suite_parabolic,
}


def run_verification(seed=0, deep=False, inject_fault=None, suites=None):
    """Run the named suites (default all) into one report.

    ``inject_fault`` names a suite whose every check is reported as failed,
    to exercise the failure path of the report and the exit code.
    """
    report = {"command": "verify", "seed": seed, "deep": deep,
              "suites": {}}
    all_pass = True
    for name in suites or list(SUITES):
        checks = SUITES[name](seed, deep)
        if name == inject_fault:
            for check in checks:
                check["pass"] = False
        ok = all(c["pass"] for c in checks)
        all_pass = all_pass and ok
        report["suites"][name] = {"pass": ok, "checks": checks}
    report["all_pass"] = all_pass
    return report
