"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line.  Everything is exact (no tolerances anywhere); series
equalities hold to the stated truncation order.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; the optional deep checks (n = 4 hook identities) are enabled with
the environment variable CHEREDNIK_DEEP=1.
"""

import hashlib
import json
import os
import random
from fractions import Fraction

from cherednik.cli import _to_csv, _to_table, main as cli_main
from cherednik.groups import build_group
from cherednik.series import GradedCharacter, product_of_geometric
from cherednik.verma import (dual_verma_pairing_expected, endo_character,
                             ext_character, hook_identity_check, solve_eis,
                             solve_eis_from_character, tor_character)
from conftest import algebra, group, parameter, partition, restricted

F = Fraction
TRUNC = 24
DEEP = os.environ.get("CHEREDNIK_DEEP") == "1"
# SHA-256 of the json report of ``cherednik --seed 3 verify``: a refactor must
# leave the report byte for byte the same.
# SHA-256 of the `verify --seed 3` report in each output format.
VERIFY_SEED_3_SHA256 = {
    "json": "64df8b486f499b721c936f610237606976cb5bcf64ca8a33dea3aa37104581ce",
    "csv": "0b46d8a4c7ad8190cd5bb040c16320d8b492ec88c595c88e0ff213dfae6e1e01",
    "table": "85b4aa2e43ad8f72bbf3a8c95109ba71b7533115c782e95afcf3b891b8a455ff",
}


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_pbw(H, rng, max_terms=3, max_deg=2):
    out = H.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        a = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        b = tuple(rng.randrange(0, max_deg) for _ in range(H.n))
        w = rng.randrange(H.group.order)
        coeff = F(rng.randrange(-4, 5))
        if coeff:
            out = out + H.monomial(a, w, b, coeff)
    return out


def test_criterion_1_pbw_soundness():
    """Associativity on 100 seeded triples, commuting polynomial parts, and
    the independent skew-group oracle at c = 0; all exact."""
    ok = True
    details = []
    for spec in ("Zm:2", "Zm:3", "Sn:2:permutation", "Sn:3:reduced", "I2:3"):
        for ctag in ("zero", "generic"):
            H = algebra(spec, ctag)
            rng = random.Random(100)
            for _ in range(100):
                u, v, w = (_random_pbw(H, rng) for _ in range(3))
                if (u * v) * w != u * (v * w):
                    ok = False
                    details.append(f"assoc:{spec}:{ctag}")
                    break
                if ctag == "zero" and u * v != H.skew_multiply(u, v):
                    ok = False
                    details.append(f"skew:{spec}")
                    break
            for i in range(H.n):
                for j in range(H.n):
                    if H.x(i) * H.x(j) != H.x(j) * H.x(i) or \
                            H.y(i) * H.y(j) != H.y(j) * H.y(i):
                        ok = False
                        details.append(f"comm:{spec}:{ctag}")
    report(1, ok, "PBW soundness (associativity, [x,x']=[y,y']=0, c=0 oracle)"
           + ("" if ok else f" failures: {details}"))


def test_criterion_2_restricted_dimension():
    expected = {"Zm:2": 8, "Zm:3": 27, "Sn:3:reduced": 216,
                "Sn:2:permutation": 8, "I2:4": 512}
    dims = {}
    ok = True
    for spec, want in expected.items():
        got = restricted(spec, "generic").dim
        dims[spec] = got
        ok = ok and got == want == build_group(spec).order ** 3
    report(2, ok, f"dim = |W|^3 exactly: {dims}")


def test_criterion_3_cm_partitions():
    ok = True
    details = []
    # Z_m at generic c: m singleton blocks
    for m in (2, 3, 4):
        part = partition(f"Zm:{m}", "generic")
        good = len(part.blocks) == m and part.all_singletons() \
            and part.route_agreement
        ok = ok and good
        details.append(f"Zm:{m} generic -> {len(part.blocks)} singletons")
    # Z_2, Z_3 at c = 0: one block with the trivial rep distinguished
    for m in (2, 3):
        part = partition(f"Zm:{m}", "zero")
        good = len(part.blocks) == 1 \
            and part.blocks[0].distinguished == "chi0" \
            and part.route_agreement
        ok = ok and good
        details.append(f"Zm:{m} zero -> single block, distinguished chi0")
    # S_3 at generic c: 3 singleton blocks
    part = partition("Sn:3:reduced", "1")
    good = len(part.blocks) == 3 and part.all_singletons() \
        and part.route_agreement
    ok = ok and good
    details.append("Sn:3 generic -> 3 singletons")
    # the two independent routes (idempotents vs central-character linking)
    # agreed exactly in every computed case (route_agreement above)
    report(3, ok, "; ".join(details))


def test_criterion_4_theorem_verification():
    """dim e L = 1 exactly at the distinguished rep and 0 elsewhere; the
    center surjects onto End of the distinguished standard module."""
    ok = True
    checked = 0
    for spec, ctag in (("Zm:2", "1"), ("Zm:2", "zero"), ("Zm:3", "generic"),
                       ("Zm:3", "zero"), ("Sn:2:permutation", "1"),
                       ("Sn:3:reduced", "1"), ("I2:3", "generic")):
        part = partition(spec, ctag)
        for blk in part.blocks:
            for lbl in blk.labels:
                expected = 1 if lbl == blk.distinguished else 0
                if part.verification["e_dims"][str(lbl)] != expected:
                    ok = False
            rpt = part.verification["center_surjectivity"][
                str(blk.distinguished)]
            if not rpt["surjective"] or rpt["dim_end"] != \
                    rpt["dim_center_image"]:
                ok = False
            checked += 1
    report(4, ok, f"e-dimensions and center surjectivity on {checked} blocks")


def test_criterion_5_hook_identity():
    ok = True
    sizes = [2, 3] + ([4] if DEEP else [])
    for n in sizes:
        g = group(f"Sn:{n}:permutation")
        for rep in g.irreps:
            if not hook_identity_check(g, rep.label, TRUNC):
                ok = False
    extra = "" if DEEP else " (n=4 behind CHEREDNIK_DEEP=1)"
    report(5, ok, f"hook identity for S_n, n in {sizes}, truncation {TRUNC}"
           + extra)


def test_criterion_6_generator_degrees():
    ok = True
    for m in (2, 3, 4):
        g = group(f"Zm:{m}")
        for rep in g.irreps:
            eis = solve_eis(g, rep, TRUNC)
            if eis.exponents != (m,):
                ok = False
            recon = product_of_geometric(eis.exponents, TRUNC)
            if not recon.equals(endo_character(g, rep, TRUNC), up_to=TRUNC):
                ok = False
    s3 = group("Sn:3:permutation")
    eis = solve_eis(s3, s3.irrep((2, 1)), TRUNC)
    if eis.exponents != (1, 1, 3):
        ok = False
    if not product_of_geometric(eis.exponents, TRUNC).equals(
            endo_character(s3, s3.irrep((2, 1)), TRUNC), up_to=TRUNC):
        ok = False
    synthetic = solve_eis_from_character(
        GradedCharacter({0: F(1), 1: F(1)}, TRUNC), 1, TRUNC)
    if synthetic.is_solution():
        ok = False
    report(6, ok, "Z_m -> {m}, S_3 standard -> {1,1,3}, reconstruction to "
           f"truncation {TRUNC}, synthetic case -> NoSolution")


def test_criterion_7_tor_ext_characters():
    ok = True
    for spec, lbl in (("Zm:2", "chi1"), ("Zm:3", "chi2"),
                      ("Sn:3:permutation", (2, 1))):
        g = group(spec)
        rep = g.irrep(lbl)
        eis = solve_eis(g, rep, TRUNC)
        tor = tor_character(g, rep, eis, TRUNC)
        ext = ext_character(g, rep, eis, TRUNC)
        top = sum(eis.exponents)
        endo = endo_character(g, rep, TRUNC + top)
        if not tor[0].equals(endo, up_to=TRUNC):
            ok = False
        if not ext[0].equals(endo, up_to=TRUNC):
            ok = False
        if not ext[g.n].equals(endo.shift(top), up_to=TRUNC):
            ok = False
        if not tor[g.n].equals(endo.shift(-top), up_to=TRUNC):
            ok = False
    # Z_2 sign closed forms: slices 1/(1 - q^2) and q^{-/+2}/(1 - q^2)
    z2 = group("Zm:2")
    sgn = z2.irrep("chi1")
    eis = solve_eis(z2, sgn, TRUNC)
    geo = product_of_geometric([2], TRUNC + 2)
    if tor_character(z2, sgn, eis, TRUNC) != [geo.truncate(TRUNC),
                                              geo.shift(-2)]:
        ok = False
    if ext_character(z2, sgn, eis, TRUNC) != [geo.truncate(TRUNC),
                                              geo.shift(2).truncate(TRUNC)]:
        ok = False
    report(7, ok, "t=0 slices, top-t coefficients, and Z_2 closed forms")


def test_criterion_8_bv_suite():
    from cherednik.bv import (CONORMAL, NORMAL, TruncatedPolyModel, bv_delta,
                              check_bracket_axioms, check_bv_seven_term,
                              koszul_homology, virtual_homology)
    ok = True
    stability = {}
    for n in (1, 2, 3):
        totals_c = []
        totals_n = []
        for trunc in (4, 6, 8):
            model = TruncatedPolyModel(n, trunc)
            rng = random.Random(8)
            for i in range(50):
                side = CONORMAL if i % 2 == 0 else NORMAL
                a = model.random_element(
                    side, rng, exterior_degree=rng.randrange(0, n + 1))
                b = model.random_element(
                    side, rng, exterior_degree=rng.randrange(0, n + 1))
                c = model.random_element(
                    side, rng, exterior_degree=rng.randrange(0, n + 1))
                if bv_delta(model, bv_delta(model, a)):
                    ok = False
                if not check_bv_seven_term(model, a, b, c):
                    ok = False
                if not check_bracket_axioms(model, a, b, c):
                    ok = False
            vc = virtual_homology(model, CONORMAL)
            vn = virtual_homology(model, NORMAL)
            totals_c.append(vc["total"])
            totals_n.append(vn["total"])
            seq = []
            for i in range(n):
                e = [0] * (2 * n)
                e[n + i] = 1
                seq.append({tuple(e): F(1)})
            kz = koszul_homology(n, trunc, seq,
                                 vanishing_vars=list(range(n)))
            expected = dual_verma_pairing_expected(n)
            if not kz["regular"]:
                ok = False
            if kz["homology"].get(0, 0) != expected["tor"][0][1]:
                ok = False
            if kz["cohomology_reindexed"].get(n, 0) != expected["ext"][0][1]:
                ok = False
            if any(kz["homology"].get(r, 0) != 0 for r in range(1, n + 1)):
                ok = False
        stability[n] = (totals_c, totals_n)
        if set(totals_c) != {1} or set(totals_n) != {1}:
            ok = False
    report(8, ok, f"identities on 50 samples x 9 grids; virtual homology "
           f"totals stable at 1: {stability}; Koszul C[0] and C[n]")


def test_criterion_9_parabolic_reduction():
    from cherednik.parabolic import (make_context, reduced_endo_character,
                                     verify_reduction_invariance)
    from cherednik.verma import endo_character as endo
    ok = True
    grid = [
        ("Sn:3:permutation", [(1, 1, 0), (1, 2, 3), (2, 2, 2), (0, 0, 0)]),
        ("I2:4", [(1, 1), (1, 0), (0, 0)]),
        ("Zm:3", [(1,), (0,)]),
    ]
    count = 0
    for spec, points in grid:
        g = group(spec)
        par = parameter(spec, "generic")
        for pt in points:
            point = tuple(F(v) for v in pt)
            ctx = make_context(g, par, point)
            if len(ctx.orbit) * ctx.stabilizer.order != g.order:
                ok = False
            if all(not v for v in point):
                for rep in g.irreps:
                    inner = ctx.stabilizer.irrep(rep.label)
                    if not reduced_endo_character(ctx, inner, 12).equals(
                            endo(g, rep, 12), up_to=12):
                        ok = False
            rng = random.Random(9)
            widxs = {g._identity} | {rng.randrange(g.order)
                                     for _ in range(2)}
            for widx in widxs:
                if not verify_reduction_invariance(g, par, point, widx,
                                                   truncation=12):
                    ok = False
                count += 1
    report(9, ok, f"orbit-stabilizer identity, p=0 identity, and orbit "
           f"invariance on {count} (point, w) pairs")


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "verify1.json"
    out2 = tmp_path / "verify2.json"
    rc1 = cli_main(["--seed", "3", "--out", str(out1), "verify"])
    rc2 = cli_main(["--seed", "3", "--out", str(out2), "verify"])
    same = out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text(encoding="utf-8"))
    # csv and table are derived from the json report, as the CLI does
    texts = {"json": out1.read_text(encoding="utf-8"),
             "csv": _to_csv(rep), "table": _to_table(rep)}
    pinned = {fmt: hashlib.sha256(text.encode()).hexdigest()
              for fmt, text in texts.items()} == VERIFY_SEED_3_SHA256
    ok = rc1 == 0 and rc2 == 0 and same and pinned and rep["all_pass"]
    report(10, ok, "verify runs are byte-identical at fixed seed, match the "
           "pinned report in json, csv and table, and all suites pass")
