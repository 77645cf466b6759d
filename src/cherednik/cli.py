"""Command-line surface: argument parsing, input loading and report output
for group inspection, block partitions, character tables, parabolic
reduction, exterior-model checks and ``verify`` (whose suites live in
``cherednik.verify``).

JSON is the single source of truth; csv and pretty tables are derived from
it.  Reports are byte-identical for identical jobs (including the seed):
keys are sorted, all numbers are exact integers or [num, den] pairs, and no
environment data is embedded.  Exit code 0 means every verification passed,
1 that a check failed, 2 that the input was rejected (``error: ...`` on
stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from .bv import bv_check
from .cyclotomic import Cyc, scalar_payload
from .errors import CherednikError, InvalidInput
from .groups import build_from_generators, build_group
from .parabolic import make_context, reduced_endo_character
from .pbw import CherednikAlgebra, Parameter
from .restricted import RESTRICTED_CAP, build_restricted
from .series import DEFAULT_TRUNCATION, payload
from .verify import SUITES, run_verification
from .verma import (endo_character, ext_character, hook_identity_check,
                    solve_eis, tor_character, undistinguished_note,
                    verma_character)


# --------------------------------------------------------------------------
# argument handling
# --------------------------------------------------------------------------

def _load_group(spec):
    if spec.startswith("@"):
        try:
            with open(spec[1:], encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidInput(f"cannot read group file {spec[1:]!r}: "
                               f"{exc}") from None
        try:
            n = int(data["conductor"])
            if n < 1:
                raise ValueError(f"conductor {n} < 1")
            gens = [[[Cyc.from_literals(n, entry) for entry in row]
                     for row in mat]
                    for mat in data["generators"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"malformed group file {spec[1:]!r}: "
                               f"{type(exc).__name__}: {exc}") from None
        size = len(gens[0]) if gens else 0
        if not size or any(len(mat) != size or any(len(row) != size
                                                   for row in mat)
                           for mat in gens):
            raise InvalidInput(f"group file {spec[1:]!r} needs at least one "
                               "generator, all square matrices of one size")
        return build_from_generators(n, gens, name=data.get("name", "custom"))
    return build_group(spec)


def _load_parameter(group, cspec, seed):
    cspec = (cspec or "zero").strip()
    if cspec == "zero" or cspec == "0":
        return Parameter.zero(group)
    if cspec == "generic" or cspec.startswith("generic:"):
        _, colon, text = cspec.partition(":")
        try:
            s = int(text) if colon else seed
        except ValueError:
            raise InvalidInput(f"--c: not an integer seed: {text!r}") from None
        return Parameter.generic(group, seed=s)
    if "=" in cspec:
        mapping = {}
        for item in cspec.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in mapping:
                raise InvalidInput(f"--c names the class {key!r} twice")
            mapping[key] = _parse_rational("--c", val)
        return Parameter(group, mapping)
    value = _parse_rational("--c", cspec)
    return Parameter.constant(group, value)


def _parse_rational(option, text):
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"{option}: not a rational number: "
                           f"{text!r}") from None


def _at_least(option, value, low):
    if value < low:
        raise InvalidInput(f"{option} must be at least {low}, got {value}")
    return value


def _parse_point(text, n):
    coords = [p.strip() for p in text.split(",")]
    if len(coords) != n:
        raise InvalidInput(f"point needs {n} coordinates, got {len(coords)}")
    return tuple(_parse_rational("--point", p) for p in coords)


def _jsonable(obj):
    if isinstance(obj, (Fraction, Cyc)):
        return scalar_payload(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report, args):
    report = _jsonable(report)
    fmt = args.format
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    elif fmt == "csv":
        text = _to_csv(report)
    else:
        text = _to_table(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInput(f"--out: cannot write {args.out!r}: "
                               f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _to_csv(report, prefix=""):
    lines = []

    def walk(obj, path):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(obj[k], path + [str(k)])
        elif isinstance(obj, list) and obj and all(
                isinstance(v, list) and len(v) == 4 and
                all(isinstance(x, int) for x in v) for v in obj):
            # character terms [[q,t,num,den]]
            for q, t, num, den in obj:
                lines.append(",".join([".".join(path), str(q), str(t),
                                       str(num), str(den)]))
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, path + [str(i)])
        else:
            lines.append(",".join([".".join(path), str(obj)]))

    walk(report, [prefix] if prefix else [])
    return "\n".join(lines) + "\n"


def _to_table(report, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for k in sorted(report):
            v = report[k]
            if isinstance(v, (dict, list)) and v and not _is_scalarish(v):
                lines.append(f"{pad}{k}:")
                lines.append(_to_table(v, indent + 1).rstrip("\n"))
            else:
                lines.append(f"{pad}{k}: {_scalar_str(v)}")
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)) and v and not _is_scalarish(v):
                lines.append(f"{pad}-")
                lines.append(_to_table(v, indent + 1).rstrip("\n"))
            else:
                lines.append(f"{pad}- {_scalar_str(v)}")
    else:
        lines.append(f"{pad}{_scalar_str(report)}")
    return "\n".join(lines) + "\n"


def _is_scalarish(v):
    return isinstance(v, list) and all(isinstance(x, (int, str, bool))
                                       for x in v) and len(v) <= 8


def _scalar_str(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_group(args):
    group = _load_group(args.group)
    irr = []
    for rep in group.irreps:
        fake = group.fake_polynomial(rep)
        irr.append({
            "label": str(rep.label),
            "dim": rep.dim,
            "fake_polynomial": fake.to_payload(),
            "fake_polynomial_str": str(fake),
            "b_invariant": group.b_invariant(rep),
        })
    report = {
        "command": "group",
        "group": group.name,
        "order": group.order,
        "dim_h": group.n,
        "conductor": group.conductor,
        "reflection_count": len(group.reflections),
        "reflection_classes": sorted({r.class_label
                                      for r in group.reflections}),
        "conjugacy_class_count": len(group.conjugacy_classes),
        "degrees": list(group.degrees),
        "irreducibles": irr,
        "seed": args.seed,
    }
    _emit(report, args)
    return 0


def cmd_cm_partition(args):
    group = _load_group(args.group)
    param = _load_parameter(group, args.c, args.seed)
    rest = build_restricted(group, param, cap=args.cap)
    part = rest.cm_partition(verify=not args.no_verify)
    report = {"command": "cm-partition", "seed": args.seed}
    report.update(part.payload())
    checks_pass = part.route_agreement and (not part.verification
                                            or part.theorems_hold())
    report["checks_pass"] = checks_pass
    _emit(report, args)
    return 0 if checks_pass else 1


def cmd_characters(args):
    group = _load_group(args.group)
    param = _load_parameter(group, args.c, args.seed)
    trunc = _at_least("--trunc", args.trunc, 0)
    labels = ([l.strip() for l in args.rep.split(";")] if args.rep is not None
              else [str(r.label) for r in group.irreps])
    if len(set(labels)) < len(labels):
        raise InvalidInput(f"--rep names an irreducible twice: {args.rep}")
    by_label = {str(r.label): r for r in group.irreps}
    table = []
    for lbl in labels:
        rep = by_label.get(lbl)
        if rep is None:
            raise InvalidInput(f"no irreducible labeled {lbl!r} in "
                               f"{group.name}")
        entry = {"label": lbl, "dim": rep.dim,
                 "b_invariant": group.b_invariant(rep)}
        verma = verma_character(group, rep, trunc).to_payload()
        note = undistinguished_note(group, param, rep)
        if note:
            entry.update(distinguished=False, verma_character=verma,
                         note=note)
            table.append(entry)
            continue
        endo = endo_character(group, rep, trunc)
        entry["endo_character"] = endo.to_payload()
        entry["verma_character"] = verma
        eis = solve_eis(group, rep, trunc)
        entry["generator_degrees"] = eis.payload()
        if eis.is_solution():
            entry["tor_character"] = payload(tor_character(group, rep, eis,
                                                           trunc))
            entry["ext_character"] = payload(ext_character(group, rep, eis,
                                                           trunc))
        else:
            entry["note"] = ("no integer factorization: the endomorphism "
                             "ring is not a polynomial ring for this input")
        # by family ("Sn", n, "permutation"): a custom group may take any name
        if args.check_hook and group.family is not None and \
                group.family[::2] == ("Sn", "permutation"):
            entry["hook_identity"] = hook_identity_check(group, rep.label,
                                                         trunc)
        table.append(entry)
    report = {
        "command": "characters",
        "group": group.name,
        "parameter": param.payload(),
        "truncation": trunc,
        "seed": args.seed,
        "characters": table,
    }
    _emit(report, args)
    return 0


def cmd_element(args):
    group = _load_group(args.group)
    param = _load_parameter(group, args.c, args.seed)
    algebra = CherednikAlgebra(group, param)
    element = algebra.parse(args.expr)
    normal = str(element)
    report = {
        "command": "element",
        "group": group.name,
        "parameter": param.payload(),
        "input": args.expr,
        "normal_form": normal,
        "grading_degree": element.degree(),
        "term_count": len(element.terms),
        "round_trip_ok": algebra.parse(normal) == element,
        "seed": args.seed,
    }
    _emit(report, args)
    return 0


def cmd_reduce(args):
    group = _load_group(args.group)
    param = _load_parameter(group, args.c, args.seed)
    point = _parse_point(args.point, group.n)
    _at_least("--trunc", args.trunc, 0)
    ctx = make_context(group, param, point)
    report = {"command": "reduce", "seed": args.seed,
              "truncation": args.trunc}
    report.update(ctx.payload())
    chars = {}
    for rep in ctx.stabilizer.irreps:
        note = undistinguished_note(ctx.stabilizer, ctx.restricted_param, rep)
        chars[str(rep.label)] = (
            {"distinguished": False, "note": note} if note else
            reduced_endo_character(ctx, rep, args.trunc).to_payload())
    report["reduced_endo_characters"] = chars
    _emit(report, args)
    return 0


def cmd_bv_check(args):
    report = {"command": "bv-check"}
    report.update(bv_check(_at_least("--n", args.n, 1),
                           _at_least("--trunc", args.trunc, 2),
                           _at_least("--samples", args.samples, 0),
                           args.seed))
    _emit(report, args)
    return 0 if report["checks_pass"] else 1


def cmd_verify(args):
    suites = None if args.suites is None else args.suites.split(",")
    if suites is not None:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise InvalidInput(f"unknown suites: {unknown}")
        if len(set(suites)) < len(suites):
            raise InvalidInput(f"a suite is named twice: {args.suites}")
    report = run_verification(seed=args.seed, deep=args.deep,
                              inject_fault=args.inject_fault, suites=suites)
    _emit(report, args)
    return 0 if report["all_pass"] else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@cache
def build_parser():
    """The argument parser, built once per process: parsing reads it and
    leaves it as it was."""
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report here")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact computations with rational Cherednik algebras "
                    "at t = 0: block partitions, graded characters, and "
                    "exterior-model checks.")
    parser.add_argument("--format", choices=("json", "csv", "table"),
                        default="json")
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", parents=[common],
                       help="inspect a reflection group")
    p.add_argument("--group", required=True)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("cm", parents=[common],
                       help="block partition with verification")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="zero")
    p.add_argument("--cap", type=int, default=RESTRICTED_CAP,
                   help="largest |W|^3 to build (default %(default)s)")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(fn=cmd_cm_partition)

    p = sub.add_parser("characters", parents=[common],
                       help="graded character tables")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="generic")
    p.add_argument("--rep", default=None,
                   help="semicolon-separated labels; default all")
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)
    p.add_argument("--check-hook", action="store_true")
    p.set_defaults(fn=cmd_characters)

    p = sub.add_parser("element", parents=[common],
                       help="normal form of a textual algebra element")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="zero")
    p.add_argument("--expr", required=True,
                   help='e.g. "y1*x1^2 + 2*s12"')
    p.set_defaults(fn=cmd_element)

    p = sub.add_parser("reduce", parents=[common],
                       help="reduction to a stabilizer pair")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="generic")
    p.add_argument("--point", required=True)
    p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("bv-check", parents=[common],
                       help="exterior-model identity checks")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_bv_check)

    p = sub.add_parser("verify", parents=[common],
                       help="run every verification suite")
    p.add_argument("--deep", action="store_true",
                   help="include the 512-dimensional block computation and "
                        "n = 4 hook identities")
    p.add_argument("--suites", default=None,
                   help="comma-separated subset of suites")
    p.add_argument("--inject-fault", default=None,
                   help="deliberately fail one suite (reporting test)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CherednikError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
