import hashlib
import json
import os
import subprocess
import sys

import pytest

import cherednik
from cherednik.cli import build_parser, main, run_verification
from cherednik.linalg import ONE
from cherednik.pbw import Parameter


def run_json(tmp_path, *argv):
    out = tmp_path / "report.json"
    rc = main(["--out", str(out), *argv])
    return rc, json.loads(out.read_text(encoding="utf-8"))


def test_group_command(tmp_path):
    rc, report = run_json(tmp_path, "group", "--group", "Sn:3:permutation")
    assert rc == 0
    assert report["order"] == 6
    assert report["degrees"] == [1, 2, 3]
    by_label = {e["label"]: e for e in report["irreducibles"]}
    assert by_label["(2, 1)"]["fake_polynomial_str"] == "q+q^2"
    assert by_label["(2, 1)"]["b_invariant"] == 1


def test_group_trivial(tmp_path):
    rc, report = run_json(tmp_path, "group", "--group", "Zm:1")
    assert rc == 0
    assert report["order"] == 1
    assert report["reflection_count"] == 0


def rejected(capsys, *argv):
    """Exit status and the first stderr line of a run on bad input."""
    rc = main(list(argv))
    return rc, capsys.readouterr().err.splitlines()[0]


def test_malformed_group_spec(capsys):
    rc, err = rejected(capsys, "group", "--group", "Xx:9")
    assert rc == 2
    assert err.startswith("error: ") and "Xx:9" in err


def test_cm_command(tmp_path):
    rc, report = run_json(tmp_path, "cm", "--group", "Zm:2", "--c", "1")
    assert rc == 0
    assert report["checks_pass"]
    assert report["block_count"] == 2
    assert {b["distinguished"] for b in report["blocks"]} == {"chi0", "chi1"}


def test_cm_zero_parameter(tmp_path):
    rc, report = run_json(tmp_path, "cm", "--group", "Zm:2", "--c", "zero")
    assert rc == 0
    assert report["block_count"] == 1
    assert report["blocks"][0]["distinguished"] == "chi0"


def test_cm_cap_exceeded(tmp_path):
    rc = main(["cm", "--group", "Sn:4:permutation", "--c", "zero"])
    assert rc == 2    # CapExceeded surfaces as a clean error exit


def test_cm_dihedral_family_at_generic_one(capsys):
    # I_2(5) at equal parameters: the two-dimensional irreducibles are
    # linked, the one-dimensional ones are alone
    assert main(["cm", "--group", "I2:5", "--c", "generic:1",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert sorted(b["labels"] for b in report["blocks"]) == [
        ["rho1", "rho2"], ["sgn"], ["triv"]]
    assert report["route_agreement"] and report["checks_pass"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd26d7b82da15d3aab66b6c87ecdab4276b5d51c5c67475411e29648fbba5a87")


def test_cm_and_block_count_leave_sympy_unloaded():
    # the blocks need no splitting of the center, and block_count off the
    # graded fiber reads the trace form of Z_0 on the baby Vermas: no
    # engine module imports the splitter
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cherednik.__file__)))
    code = """if True:
        import contextlib, io, sys
        from fractions import Fraction
        from cherednik import Parameter, build_group, build_restricted
        from cherednik.cli import main
        from cherednik.verify import CM_GRID
        for spec in CM_GRID + ("I2:4",):
            for c in ("generic:1", "zero"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["cm", "--group", spec, "--c", c]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["characters", "--group", "I2:5",
                         "--c", "generic:1"]) == 0
        assert "sympy" not in sys.modules
        assert "cherednik.comalg" not in sys.modules
        g = build_group("Zm:2")
        R = build_restricted(g, Parameter.constant(g, 1),
                             b_point=(Fraction(1),))
        assert R.block_count() == 2
        g = build_group("Sn:3:reduced")
        R = build_restricted(g, Parameter.constant(g, 1),
                             b_point=(Fraction(1), Fraction(0)))
        assert R.block_count() == 4
        assert "sympy" not in sys.modules
        assert "cherednik.comalg" not in sys.modules
    """
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_reduce_on_an_abelian_stabilizer_leaves_sympy_unloaded():
    # the characters of the order-2 stabilizer come from roots of unity on
    # its generators, with no split of its group algebra
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cherednik.__file__)))
    code = """if True:
        import contextlib, io, sys
        from cherednik.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["reduce", "--group", "I2:4", "--point", "1,1",
                         "--c", "generic:1", "--seed", "1"]) == 0
        assert "sympy" not in sys.modules
        assert "cherednik.comalg" not in sys.modules
    """
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_characters_command(tmp_path):
    rc, report = run_json(tmp_path, "characters", "--group",
                          "Sn:3:permutation", "--c", "generic",
                          "--trunc", "12", "--check-hook")
    assert rc == 0
    by_label = {e["label"]: e for e in report["characters"]}
    std = by_label["(2, 1)"]
    assert std["generator_degrees"]["exponents"] == [1, 1, 3]
    assert std["hook_identity"] is True
    assert std["endo_character"]["truncation"] == 12
    # constant term of the endomorphism character is 1
    assert [0, 0, 1, 1] in std["endo_character"]["terms"]


@pytest.mark.parametrize("spec", ["Sn:3:reduced", "Sn:3:permutation"])
def test_characters_at_zero_mark_the_undistinguished(tmp_path, spec):
    # at c = 0 only the b = 0 irreducible is distinguished: the others get
    # no End(Delta) data, which the formulas would give wrongly
    argv = ["characters", "--group", spec, "--trunc", "6", "--check-hook"]
    rc, zero = run_json(tmp_path, *argv, "--c", "zero")
    _, generic = run_json(tmp_path, *argv, "--c", "generic")
    assert rc == 0
    for at_zero, at_generic in zip(zero["characters"], generic["characters"]):
        if at_zero["b_invariant"] == 0:
            assert at_zero == at_generic
            continue
        assert at_zero["distinguished"] is False
        assert "only for the b = 0 irreducible" in at_zero["note"]
        assert at_zero["verma_character"] == at_generic["verma_character"]
        assert not {"endo_character", "generator_degrees", "tor_character",
                    "ext_character", "hook_identity"} & set(at_zero)
        assert "distinguished" not in at_generic


@pytest.mark.parametrize("argv,exponents", [
    (["--group", "Zm:25", "--rep", "chi0"], [25]),
    (["--group", "I2:30", "--rep", "triv"], [2, 30]),
    (["--group", "Zm:3", "--rep", "chi0", "--trunc", "2"], [3]),
], ids=["Zm:25", "I2:30", "Zm:3-trunc-2"])
def test_generator_degrees_above_the_truncation(tmp_path, argv, exponents):
    # a generator degree above --trunc is still found, with no note
    rc, report = run_json(tmp_path, "characters", *argv)
    (entry,) = report["characters"]
    assert rc == 0 and "note" not in entry
    assert entry["generator_degrees"]["solvable"]
    assert entry["generator_degrees"]["exponents"] == exponents


def test_an_empty_factorization_lists_no_exponents(tmp_path):
    # n = 0: End(Delta) is the ground field, the product of no factors
    rc, report = run_json(tmp_path, "characters", "--group", "Sn:1:reduced")
    (entry,) = report["characters"]
    assert rc == 0
    assert entry["generator_degrees"]["solvable"]
    assert entry["generator_degrees"]["exponents"] == []


def test_characters_csv_format(tmp_path):
    out = tmp_path / "chars.csv"
    rc = main(["--format", "csv", "--out", str(out), "characters",
               "--group", "Zm:3", "--c", "generic", "--rep", "chi1",
               "--trunc", "6"])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "endo_character" in text
    assert text.count("\n") > 3


def test_element_command(tmp_path):
    rc, report = run_json(tmp_path, "element", "--group", "Zm:2",
                          "--c", "1", "--expr", "y1*x1")
    assert rc == 0
    assert report["normal_form"] == "w1+x1*y1"
    assert report["grading_degree"] == 0
    assert report["round_trip_ok"] is True


def test_element_command_cyclotomic_round_trip(tmp_path):
    rc, report = run_json(tmp_path, "element", "--group", "I2:5",
                          "--c", "1", "--expr", "y1*x2")
    assert rc == 0
    assert "z" in report["normal_form"]
    assert report["round_trip_ok"] is True


def test_element_command_syntax_error_exits_2(capsys):
    assert main(["element", "--group", "Zm:2", "--expr", "x1^"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("expr", ["1/0", "e^9999999999", "1/" + "9" * 5000,
                                  "e^" + "9" * 5000],
                         ids=lambda e: e if len(e) < 20 else e[:2] + "<9*5000>")
def test_element_text_exits_2_at_once(expr):
    # a zero denominator, a literal too long for int(), and a power no
    # product could reach are refused before any product is formed; a
    # child process bounds a hang
    code = ("import sys, time; from cherednik.cli import main; "
            "t = time.perf_counter(); rc = main(sys.argv[1:]); "
            "print(time.perf_counter() - t); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cherednik.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, "element", "--group", "Zm:2",
         "--expr", expr], env=env, capture_output=True, text=True,
        timeout=30)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert float(done.stdout) < 1


def test_element_command_bad_generator(capsys):
    rc, err = rejected(capsys, "element", "--group", "Zm:2", "--c", "1",
                       "--expr", "s12")
    assert rc == 2
    assert err.startswith("error: ") and "s12" in err


def test_reduce_command(tmp_path):
    rc, report = run_json(tmp_path, "reduce", "--group", "Sn:3:permutation",
                          "--c", "1", "--point", "1,1,0", "--trunc", "10")
    assert rc == 0
    assert report["orbit_size"] == 3
    assert report["stabilizer_order"] == 2
    assert report["stabilizer_degrees"] == [1, 1, 2]
    assert set(report["reduced_endo_characters"]) == {"(2,)", "(1, 1)"}


def test_reduce_marks_the_undistinguished_at_a_zero_parameter(tmp_path):
    # at c' = 0 the stabilizer pair is one block led by its b = 0
    # irreducible: the others get the note characters prints, not a series;
    # at a nonzero c' every irreducible keeps its series
    from cherednik.groups import build_group
    from cherednik.parabolic import make_context, reduced_endo_character
    note = ("not distinguished: at c = 0 the End(Delta) formulas hold only "
            "for the b = 0 irreducible")
    marked = 0
    for spec, c, point in (("Sn:3:reduced", "zero", "0,0"),
                           ("I2:4", "zero", "1,1"), ("I2:4", "1", "1,1")):
        rc, report = run_json(tmp_path, "reduce", "--group", spec, "--c", c,
                              "--point", point, "--trunc", "10")
        assert rc == 0
        group = build_group(spec)
        param = (Parameter.zero(group) if c == "zero"
                 else Parameter.constant(group, 1))
        ctx = make_context(group, param, [int(v) for v in point.split(",")])
        assert ctx.restricted_param.is_zero() == (c == "zero")
        chars = report["reduced_endo_characters"]
        assert set(chars) == {str(rep.label) for rep in ctx.stabilizer.irreps}
        for rep in ctx.stabilizer.irreps:
            entry = chars[str(rep.label)]
            if c == "zero" and ctx.stabilizer.b_invariant(rep):
                assert entry == {"distinguished": False, "note": note}
                marked += 1
            else:
                assert entry == reduced_endo_character(ctx, rep,
                                                       10).to_payload()
    assert marked == 3


def test_reduce_orbit_coordinates_have_one_form(tmp_path):
    # rational coordinates print as [num, den] (zero too, never []); only
    # irrational ones print as [[k, num, den], ...] triples
    rc, report = run_json(tmp_path, "reduce", "--group", "I2:4",
                          "--point", "1,0", "--c", "generic:3")
    assert rc == 0
    coords = [x for p in report["orbit"] + [report["point"]] for x in p]
    for x in coords:
        rational = (len(x) == 2 and all(isinstance(v, int) for v in x)
                    and x[1] > 0)
        cyclotomic = (bool(x) and all(isinstance(t, list) and len(t) == 3
                                      for t in x)
                      and any(t[0] for t in x))
        assert rational or cyclotomic, x
    assert [0, 1] in coords


def test_reduce_point_validation(capsys):
    rc, err = rejected(capsys, "reduce", "--group", "Zm:3", "--c", "zero",
                       "--point", "1,2")
    assert rc == 2
    assert err.startswith("error: ") and "coordinates" in err


@pytest.mark.parametrize("argv", [
    ["group", "--group", "Zm:x"],
    ["group", "--group", "Sn:3:bogus"],
    ["group", "--group", "@/nonexistent/group.json"],
    ["reduce", "--group", "Zm:3", "--point", "a"],
    ["reduce", "--group", "Zm:3", "--point", "1/"],
    ["cm", "--group", "Zm:2", "--c", "foo"],
    ["cm", "--group", "Zm:2", "--c", "generic:x"],
    ["cm", "--group", "Zm:2", "--c", "c0=1/0"],
    ["cm", "--group", "Zm:2", "--c", "c9=1"],
    ["characters", "--group", "Zm:2", "--rep", "bogus"],
    ["element", "--group", "Zm:2", "--expr", "x2"],
    ["cm", "--group", "Zm:2", "--c", "c0=1,c0=2"],
    ["cm", "--group", "Zm:2", "--c", "genericfoo"],
    ["cm", "--group", "Zm:2", "--c", "generic:1:2"],
    ["bv-check", "--trunc", "1"],
    ["bv-check", "--n", "0"],
    ["bv-check", "--n", "-1"],
    ["bv-check", "--samples", "-3"],
    ["characters", "--group", "Zm:2", "--trunc", "-1"],
    ["reduce", "--group", "Zm:3", "--point", "1", "--trunc", "-3"],
    # group files that parse as JSON but cannot be used; a dict stands for
    # the file holding it
    ["group", "--group", {"generators": [[[[[1, 1, 1]]]]]}],
    ["group", "--group", {"conductor": 4, "generators": []}],
    ["group", "--group", {"conductor": 4, "generators": [[[[[1, 1]]]]]}],
    # the 1x1 generator [2] has infinite order: its closure passes the cap
    ["group", "--group", {"conductor": 1, "generators": [[[[[0, 2, 1]]]]]}],
    # singular generators: [0] and the idempotent [[0, 1], [0, 1]] have no
    # inverse, so no power of them is the identity
    ["group", "--group", {"conductor": 1, "generators": [[[[[0, 0, 1]]]]]}],
    ["group", "--group", {"conductor": 1, "generators": [
        [[[[0, 0, 1]], [[1, 1, 1]]], [[[0, 0, 1]], [[1, 1, 1]]]]]}],
    # zeta_4 * I on C^2 has no reflections: not a reflection group, even
    # where the point's stabilizer is trivial
    ["reduce", "--group", {"conductor": 4, "generators": [
        [[[[1, 1, 1]], [[0, 0, 1]]], [[[0, 0, 1]], [[1, 1, 1]]]]]},
     "--point", "1,0", "--c", "zero"],
    # --suites that names no suite, or one suite twice
    ["verify", "--suites", ""],
    ["verify", "--suites", "cm,cm"],
    # --out into a directory that does not exist, or onto a directory
    ["--out", "/nonexistent/dir/x.json", "group", "--group", "Zm:2"],
    ["--out", ".", "group", "--group", "Zm:2"],
    # --rep that names no irreducible, or one irreducible twice
    ["characters", "--group", "Zm:2", "--rep", ""],
    ["characters", "--group", "Zm:2", "--rep", "chi0;chi0"],
])
def test_bad_input_exits_2_with_error_line(capsys, tmp_path, argv):
    path = tmp_path / "group.json"
    for spec in argv:
        if isinstance(spec, dict):
            path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [f"@{path}" if isinstance(a, dict) else a for a in argv]
    rc, err = rejected(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ")


def test_bv_check_command(tmp_path):
    rc, report = run_json(tmp_path, "--seed", "7", "bv-check", "--n", "2",
                          "--trunc", "6", "--samples", "10")
    assert rc == 0
    assert report["checks_pass"]
    assert report["square_zero_failures"] == 0
    assert report["virtual_homology"]["conormal"]["total"] == 1
    assert report["virtual_homology"]["normal"]["total"] == 1
    assert report["koszul"]["regular"]


def test_bv_check_report_is_pinned(tmp_path):
    # the whole report: identity counts, every homology degree, chain
    # dimensions and Euler characteristics
    out = tmp_path / "report.json"
    rc = main(["--seed", "7", "--out", str(out), "bv-check", "--n", "3",
               "--trunc", "8"])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "99e3ce3ab6fba7104a34387dab709b32f6bb03160356cf836941df63a88f5290"


@pytest.mark.parametrize("argv,digest", [
    # conductor 6, with a two-dimensional End of a distinguished baby Verma
    (["cm", "--group", "I2:3", "--c", "generic:1", "--seed", "1"],
     "534702d3cb2bf020721781843a207d593f6e152c79c58818c97b314fdcc952af"),
    (["cm", "--group", "I2:4", "--c", "zero", "--seed", "1"],
     "666dd12ead73458dc478a7cb64e077d4ffe35d3e8a94cb3650fe2e438f3ec03f"),
    # conductor 5, phi = 4: coordinates with large numerators
    (["cm", "--group", "Zm:5", "--c", "generic:4", "--seed", "4"],
     "c574f4eaaa99b14ba7721f53d1400928b5898745cc6b0b5d6e62fdbfca6ed35c"),
    # conductor 10: multi-term coefficients print parenthesised
    (["element", "--group", "I2:5", "--c", "generic:2",
      "--expr", "(y1*x2 + z)^2*y2*x1"],
     "421715997750c3ed170d5e33c1052488afef1c7221175d8f525b61f839dd80c1"),
    # conductor 7, phi = 6: products wrap past zeta^7
    (["element", "--group", "Zm:7", "--c", "generic:2",
      "--expr", "y1^2*x1^3*g"],
     "d6b03d94167b254b7718bd9e1a57019c786d959bc338b06c925f5bcdc551df2f"),
    # one block of three: heads are proper quotients, nilpotent centre
    (["cm", "--group", "Sn:3:reduced", "--c", "zero", "--seed", "1"],
     "327cd1e118153203cd20510dab9d7c9b6e16b7f488b5c965a334b39d272b4d13"),
    (["cm", "--group", "Sn:3:reduced", "--c", "generic:1", "--seed", "1"],
     "d8cb4ce2528da9941c7a59abd9dd0d68f19b8bad8b5334879f3186ea3d29b2c8"),
    # Z_0 has terms of degree 14, past the default degree cap of 12
    (["cm", "--group", "Zm:8", "--c", "generic:1", "--seed", "1"],
     "ac77d757664a3603a8fb42e258d1a1d8ca5b1cfc82122037ebc933dcd1e53846"),
], ids=["I2:3-generic:1", "I2:4-zero", "Zm:5-generic:4", "element-I2:5",
        "element-Zm:7", "Sn:3-zero", "Sn:3-generic:1", "Zm:8-generic:1"])
def test_cm_report_is_pinned(capsys, tmp_path, argv, digest):
    # e_dims, dim_end and dim_center_image, which the verify report omits
    assert main(argv) == 0
    assert hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == digest
    out = tmp_path / "report.json"
    assert main(["--out", str(out), *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_SN4_PRODUCT = ("(y1+2*y2-1/3*y3)*(x1^2-x2*x3+1/2*s12)*(y2*x3+s23*x1)"
                "*(y3-x1)")


@pytest.mark.parametrize("argv,digest", [
    (["element", "--group", "Sn:4:reduced", "--c", "generic:1",
      "--expr", _SN4_PRODUCT],
     "f6c5c13437d35846b1590a1bd0d9dd581974da96228a27ee8a573630b2368886"),
    (["element", "--group", "Sn:4:reduced", "--c", "zero",
      "--expr", _SN4_PRODUCT],
     "cf0d6b2d8bac555872fdf6071e8b4bf4136e83434086cebda8f3947ee77d6734"),
    # conductor 10, denominators 2 and 3 next to cyclotomic coefficients
    (["element", "--group", "I2:5", "--c", "generic:1",
      "--expr", "(y1+z*y2)*(x1^2-z^3*x2)*(1/2*y2+x1)*(r*y1-1/3*x2)"],
     "82b9981991018d34cb29acc7d22b7cb142adcc28046e88ad9dd44b04ad126a8b"),
    (["element", "--group", "Zm:5", "--c", "generic:1",
      "--expr", "(y1^2+z*g)*(x1^3-1/6*z^2)*(y1*x1+g)*(y1-1/2*x1)"],
     "cb4e55e8df4683fffb1ec98555133fc297ee2f813949eb5ec0f8b5a3bf4d70b0"),
], ids=["Sn:4-generic:1", "Sn:4-zero", "I2:5-generic:1", "Zm:5-generic:1"])
def test_product_heavy_element_reports_are_pinned(capsys, argv, digest):
    # the product kernel's coefficients and term order, byte for byte
    assert main(argv) == 0
    assert hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (["group", "--group", "I2:6"],
     "8ff43bef60a10bdaed1996fda3537964bded9bebdb82bbc65db70d4a71d85230"),
    (["group", "--group", "Sn:4:reduced"],
     "de3fc84b8dc9c4cc1f3e338618c66e8c339c681bcbd34d46d41af46b051639ff"),
    (["reduce", "--group", "Sn:4:permutation", "--point", "1,1,2,2",
      "--c", "generic:3"],
     "49e55fd3e498dc31a96a0a2197c90aabb930e3af5dc9a257ec283d5aaa158a5a"),
], ids=["group-I2:6", "group-Sn:4:reduced", "reduce-Sn:4-1122"])
def test_group_and_reduce_reports_are_pinned(capsys, argv, digest):
    # element order, reflection classes, irreducible order and orbit order
    assert main(argv) == 0
    assert hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == digest


def test_check_hook_goes_by_family_not_name(tmp_path):
    # a custom Z_2 named like a symmetric group gets no hook identity
    spec = {"name": "Sn:3:permutation", "conductor": 2,
            "generators": [[[[[0, -1, 1]]]]]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    rc, report = run_json(tmp_path, "characters", "--group", f"@{path}",
                          "--check-hook", "--trunc", "4")
    assert rc == 0
    assert [e["label"] for e in report["characters"]] == ["triv", "chi1"]
    assert all("hook_identity" not in e for e in report["characters"])


def test_custom_group_json(tmp_path):
    entry = [[1, 1, 1]]               # sum of one triple: 1/1 * zeta^1
    spec = {
        "conductor": 4,
        "name": "custom-z4",
        "generators": [[[entry]]],    # one 1x1 matrix [zeta_4]
    }
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    rc, report = run_json(tmp_path, "group", "--group", f"@{path}")
    assert rc == 0
    assert report["order"] == 4
    assert report["degrees"] == [4]


def test_verify_subset_and_determinism(tmp_path):
    argv = ["--seed", "3", "verify", "--suites", "characters,bv"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--out", str(out1), *argv]) == 0
    assert main(["--out", str(out2), *argv]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text(encoding="utf-8"))
    assert report["all_pass"]
    assert set(report["suites"]) == {"characters", "bv"}


def test_verify_inject_fault(tmp_path):
    argv = ["--seed", "3", "verify", "--suites", "characters,dimensions"]
    rc, report = run_json(tmp_path, *argv, "--inject-fault", "characters")
    assert rc == 1
    assert not report["all_pass"]
    faulted = report["suites"]["characters"]
    assert not faulted["pass"]
    assert faulted["checks"] and not any(c["pass"] for c in faulted["checks"])
    rc_clean, clean = run_json(tmp_path, *argv)
    assert rc_clean == 0
    assert report["suites"]["dimensions"] == clean["suites"]["dimensions"]
    assert [c["name"] for c in faulted["checks"]] == [
        c["name"] for c in clean["suites"]["characters"]["checks"]]


def test_skew_agreement_reads_the_centre_of_the_product_table(monkeypatch):
    # a direct kernel spoiled at c = 0 so that Z_0 shrinks to the scalars
    # keeps the one block there and the block theorems: only skew_center,
    # solved from skew-group products, sees it
    from cherednik import verify
    from cherednik.restricted import RestrictedCherednikAlgebra
    monkeypatch.setattr(verify, "CM_GRID", ("Zm:3",))
    adjoint = RestrictedCherednikAlgebra._adjoint

    def spoiled(self, gen, m):
        out = adjoint(self, gen, m)
        if self.algebra.param.is_zero() and m not in self.unit:
            out = {**out, ("spoiled", m): ONE}   # a row that asks z_m = 0
        return out

    monkeypatch.setattr(RestrictedCherednikAlgebra, "_adjoint", spoiled)
    checks = run_verification(seed=1, suites=["cm"])["suites"]["cm"]["checks"]
    assert [c["name"] for c in checks if c["pass"]] == ["cm:Zm:3:c=generic"]
    assert checks[1]["failed"] == ["skew_agreement"]


def test_verify_cm_check_names_the_failed_condition(monkeypatch):
    # a failing cm check lists what failed; a passing one is unchanged
    from cherednik import verify
    from cherednik.restricted import BlockPartition
    monkeypatch.setattr(verify, "CM_GRID", ("Zm:2",))
    clean = run_verification(seed=1, suites=["cm"])["suites"]["cm"]
    assert clean["pass"]
    assert all(set(c) == {"name", "pass", "blocks"} for c in clean["checks"])
    monkeypatch.setattr(BlockPartition, "theorems_hold", lambda self: False)
    report = run_verification(seed=1, suites=["cm"])
    assert not report["all_pass"]
    checks = report["suites"]["cm"]["checks"]
    assert [c["name"] for c in checks] == ["cm:Zm:2:c=generic",
                                           "cm:Zm:2:c=zero"]
    for check, before in zip(checks, clean["checks"]):
        assert check["failed"] == ["theorems"] and not check["pass"]
        assert check["blocks"] == before["blocks"]


def test_verify_cm_names_a_broken_skew_center(monkeypatch):
    # a skew product that is always zero makes every element of slice 0
    # commute: the cm suite still runs to the end, and each c = 0 check
    # fails on skew agreement alone
    from cherednik.pbw import CherednikAlgebra
    monkeypatch.setattr(CherednikAlgebra, "skew_multiply",
                        lambda self, u, v: self.zero())
    checks = run_verification(seed=1, suites=["cm"])["suites"]["cm"]["checks"]
    for check in checks:
        if check["name"].endswith("c=zero"):
            assert check["failed"] == ["skew_agreement"] and not check["pass"]
        else:
            assert check["pass"], check


def test_a_route_disagreement_is_a_failed_check(tmp_path, monkeypatch):
    # central characters spoiled at c = 0 to split every irreducible: `cm`
    # reports the linkage block with route_agreement false and exits 1, and
    # the verify check names route_agreement
    from cherednik import verify
    from cherednik.restricted import RestrictedCherednikAlgebra
    character = RestrictedCherednikAlgebra._central_character

    def spoiled(self, rep):
        if self.algebra.param.is_zero():
            return (rep.label,)
        return character(self, rep)

    monkeypatch.setattr(RestrictedCherednikAlgebra, "_central_character",
                        spoiled)
    rc, report = run_json(tmp_path, "cm", "--group", "Zm:3", "--c", "zero")
    assert rc == 1
    assert not report["route_agreement"] and not report["checks_pass"]
    assert [b["labels"] for b in report["blocks"]] == [["chi0", "chi1",
                                                        "chi2"]]
    monkeypatch.setattr(verify, "CM_GRID", ("Zm:3",))
    rc, report = run_json(tmp_path, "verify", "--suites", "cm")
    assert rc == 1
    generic, zero = report["suites"]["cm"]["checks"]
    assert generic["pass"]
    assert zero["name"] == "cm:Zm:3:c=zero"
    assert zero["failed"] == ["route_agreement"]


def test_verify_pbw_check_names_the_failed_condition(monkeypatch):
    # a skew product that is always zero fails exactly the c = 0 checks, and
    # each of them names skew agreement alone; the others stay unchanged
    from cherednik.pbw import CherednikAlgebra
    clean = run_verification(seed=1, suites=["pbw"])["suites"]["pbw"]
    assert clean["pass"]
    assert all(set(c) == {"name", "pass"} for c in clean["checks"])
    monkeypatch.setattr(CherednikAlgebra, "skew_multiply",
                        lambda self, u, v: self.zero())
    checks = run_verification(seed=1, suites=["pbw"])["suites"]["pbw"][
        "checks"]
    assert [c["name"] for c in checks] == [c["name"] for c in clean["checks"]]
    for check in checks:
        if check["name"].endswith("c=zero"):
            assert check["failed"] == ["skew_agreement"] and not check["pass"]
        else:
            assert check == {"name": check["name"], "pass": True}


def test_verify_characters_checks_name_the_failed_condition(monkeypatch):
    # a synthetic character with a solution fails only that condition, and
    # a tor that is the ext fails only the top tor slice
    from types import SimpleNamespace
    from cherednik import verify
    clean = run_verification(seed=1, suites=["characters"])
    assert clean["all_pass"]
    monkeypatch.setattr(verify, "solve_eis_from_character",
                        lambda ch, n, trunc: SimpleNamespace(
                            is_solution=lambda: True))
    monkeypatch.setattr(verify, "tor_character", verify.ext_character)
    checks = run_verification(seed=1, suites=["characters"])["suites"][
        "characters"]["checks"]
    failed = {c["name"]: c.get("failed") for c in checks if not c["pass"]}
    assert failed == {"generator-degrees": ["synthetic_no_solution"],
                      "tor-ext-slices": ["tor_top"]}
    assert [c for c in checks if c["pass"]] == [
        c for c in clean["suites"]["characters"]["checks"]
        if c["name"].startswith("hook:")]


def test_verify_parabolic_checks_name_the_failed_condition(monkeypatch):
    from cherednik import verify
    from cherednik.series import GradedCharacter
    clean = run_verification(seed=1, suites=["parabolic"])
    assert clean["all_pass"]
    assert all(set(c) == {"name", "pass"}
               for c in clean["suites"]["parabolic"]["checks"])
    monkeypatch.setattr(verify, "reduced_endo_character",
                        lambda ctx, rep, trunc: GradedCharacter.zero())
    monkeypatch.setattr(verify, "verify_reduction_invariance",
                        lambda *args, **kwargs: False)
    checks = run_verification(seed=1, suites=["parabolic"])["suites"][
        "parabolic"]["checks"]
    assert [c["name"] for c in checks] == [
        "parabolic:Sn:3:permutation", "parabolic:I2:4", "parabolic:Zm:3"]
    for check in checks:
        assert not check["pass"]
        assert check["failed"] == ["identity_at_zero",
                                   "conjugation_invariance"]


def test_verify_unknown_suite(capsys):
    rc, err = rejected(capsys, "verify", "--suites", "nope")
    assert rc == 2
    assert err.startswith("error: ") and "nope" in err


def test_table_format(tmp_path):
    out = tmp_path / "t.txt"
    rc = main(["--format", "table", "--out", str(out), "group",
               "--group", "Zm:2"])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "order: 2" in text


def test_parser_help_exists():
    parser = build_parser()
    assert parser.prog == "cherednik"


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once per process; flags of one call (--format,
    # --seed before and after the subcommand) must not leak into the next
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cherednik.__file__)))
    calls = [["--seed", "2", "--format", "csv", "cm", "--group", "Zm:2",
              "--c", "generic"],
             ["group", "--group", "Sn:3:reduced", "--format", "table"],
             ["cm", "--group", "Zm:2", "--c", "generic", "--seed", "3"],
             ["cm", "--group", "Zm:2", "--c", "generic"]]
    outs = []
    for argv in calls:
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
        fresh = subprocess.run([sys.executable, "-m", "cherednik.cli", *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert outs[-1] == fresh.stdout, argv
    assert len(set(outs)) == len(outs)
    assert build_parser() is build_parser()


def test_run_verification_reports_every_suite():
    report = run_verification(seed=1, suites=["bv"])
    assert report["suites"]["bv"]["pass"]
    names = [c["name"] for c in report["suites"]["bv"]["checks"]]
    assert "bv:n=1:D=4" in names and "bv:n=3:D=8" in names
