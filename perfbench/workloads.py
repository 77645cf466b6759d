"""The benchmark's three workloads, built from a seed and run in passes.

Each workload has a ``setup(seed)`` that builds every input and long-lived
object from the seed, and a ``run_pass(state)`` that runs the fixed
operation list once and returns one ``(ok, latency_s)`` pair per operation.

An operation fails when it raises or when its correctness check fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from fractions import Fraction

import cherednik
import cherednik.cli

CM_GRID = ("Zm:2", "Zm:3", "Zm:4", "Sn:2:permutation", "Sn:3:reduced",
           "I2:3")

# (group spec, parameter kind, x-degree, y-degree, triples).  Each factor
# is one monomial x^a w y^b with |a|, |b| fixed and every group element used
# equally often, so the cost of a pass varies little from seed to seed; the
# seed draws a, b, the coefficients and the order in which each factor
# position runs through the group elements.
PBW_ALGEBRAS = (
    ("Sn:4:reduced", "generic", 2, 1, 400),
    ("Sn:4:reduced", "zero", 2, 2, 400),
    ("I2:5", "generic", 2, 1, 500),
    ("Zm:5", "generic", 6, 6, 500),
)
PBW_DEGREE_CAP = 24

CHARACTER_JOBS = (("Sn:4:permutation", True), ("Sn:5:reduced", False),
                  ("I2:6", False), ("Zm:5", False))
REDUCE_JOBS = (("Sn:4:permutation", "1,1,0,0"),
               ("Sn:4:permutation", "1,1,2,2"), ("I2:4", "1,1"))
BV_JOBS = ((3, 8), (3, 10), (4, 6))


def cm_jobs(seed):
    """The ``verify`` CM grid at generic:SEED and zero, plus I2:4 at zero."""
    jobs = [["cm", "--group", spec, "--c", c, "--seed", str(seed)]
            for spec in CM_GRID for c in (f"generic:{seed}", "zero")]
    jobs.append(["cm", "--group", "I2:4", "--c", "zero", "--seed", str(seed)])
    return jobs


def formulas_jobs(seed):
    jobs = []
    for spec, hook in CHARACTER_JOBS:
        jobs.append(["characters", "--group", spec, "--c", f"generic:{seed}",
                     "--seed", str(seed)] + (["--check-hook"] if hook else []))
    for spec, point in REDUCE_JOBS:
        jobs.append(["reduce", "--group", spec, "--point", point,
                     "--c", f"generic:{seed}", "--seed", str(seed)])
    for n, trunc in BV_JOBS:
        jobs.append(["bv-check", "--n", str(n), "--trunc", str(trunc),
                     "--seed", str(seed)])
    return jobs


# --------------------------------------------------------------------------
# correctness checks on CLI reports
# --------------------------------------------------------------------------

# (|W|, number of irreducibles), known independently of the engine: Z_m has
# m characters, S_n one per partition of n, I_2(m) (m + 3) / 2 for odd m and
# (m + 6) / 2 for even m.
GROUP_FACTS = {
    "Zm:2": (2, 2), "Zm:3": (3, 3), "Zm:4": (4, 4), "Zm:5": (5, 5),
    "Sn:2:permutation": (2, 2), "Sn:3:reduced": (6, 3),
    "Sn:4:permutation": (24, 5), "Sn:5:reduced": (120, 7),
    "I2:3": (6, 3), "I2:4": (8, 5), "I2:6": (12, 6),
}


def check_cm(argv, report):
    _order, n_irreps = GROUP_FACTS[argv[2]]
    blocks = report["blocks"]
    labels = [lbl for blk in blocks for lbl in blk["labels"]]
    if not (report["checks_pass"] and report["route_agreement"]
            and len(labels) == len(set(labels)) == n_irreps):
        return False
    if argv[4] == "zero":
        return len(blocks) == 1
    return report["generic_confirmed"] and all(len(blk["labels"]) == 1
                                               for blk in blocks)


def _starts_with_one(payload):
    return payload["terms"][:1] == [[0, 0, 1, 1]]


def check_formulas(argv, report):
    cmd = argv[0]
    if cmd == "bv-check":
        return report["checks_pass"] is True
    order, n_irreps = GROUP_FACTS[argv[2]]
    if cmd == "reduce":
        chars = report["reduced_endo_characters"]
        return (report["orbit_size"] * report["stabilizer_order"] == order
                and bool(chars)
                and all(_starts_with_one(c) for c in chars.values()))
    table = report["characters"]
    if len(table) != n_irreps:
        return False
    if not all(_starts_with_one(e["endo_character"]) for e in table):
        return False
    if "--check-hook" in argv:
        return all(e.get("hook_identity") is True for e in table)
    return True


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class CliWorkload:
    """In-process ``cherednik.cli.main`` jobs; reports must repeat byte for
    byte across passes of one run."""

    def __init__(self, jobs_fn, check):
        self.jobs_fn = jobs_fn
        self.check = check

    def setup(self, seed):
        return {"jobs": self.jobs_fn(seed), "first": {}}

    def digests(self, state):
        """SHA-256 of each job's first passing report, by job index."""
        return {str(i): hashlib.sha256(text.encode()).hexdigest()
                for i, text in state["first"].items()}

    def run_pass(self, state):
        out = []
        for i, argv in enumerate(state["jobs"]):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cherednik.cli.main(list(argv))
                dt = time.perf_counter() - t0
                text = buf.getvalue()
                ok = rc == 0 and self.check(argv, json.loads(text))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                dt, text, rc, ok = time.perf_counter() - t0, "", None, False
            ok = ok and text == state["first"].setdefault(i, text)
            if not ok:
                print(f"check failed: {' '.join(argv)} (exit {rc})",
                      file=sys.stderr)
            out.append((ok, dt))
        return out


def _random_monomial(algebra, rng, w, xdeg, ydeg):
    """c * x^a w y^b with |a| = xdeg, |b| = ydeg and a small rational c."""
    a = _composition(rng, xdeg, algebra.n)
    b = _composition(rng, ydeg, algebra.n)
    coeff = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10),
                     rng.randrange(1, 4))
    return algebra.monomial(a, w, b, coeff)


def _group_cycle(rng, order):
    """Every group element once per round, each round in a fresh order."""
    while True:
        elements = list(range(order))
        rng.shuffle(elements)
        yield from elements


def _composition(rng, total, parts):
    exps = [0] * parts
    for _ in range(total):
        exps[rng.randrange(parts)] += 1
    return tuple(exps)


class PbwWorkload:
    """Seeded random triples checked for associativity on long-lived
    algebras; at c = 0 also against the skew-group product."""

    def setup(self, seed):
        algebras = []
        for spec, kind, xdeg, ydeg, count in PBW_ALGEBRAS:
            group = cherednik.build_group(spec)
            param = (cherednik.Parameter.generic(group, seed)
                     if kind == "generic" else cherednik.Parameter.zero(group))
            algebra = cherednik.CherednikAlgebra(group, param,
                                                 degree_cap=PBW_DEGREE_CAP)
            rng = random.Random(f"{seed}:{spec}:{kind}")
            cycles = [_group_cycle(rng, group.order) for _ in range(3)]
            triples = [tuple(_random_monomial(algebra, rng, next(cyc), xdeg,
                                              ydeg) for cyc in cycles)
                       for _ in range(count)]
            algebras.append((f"{spec}:c={kind}", algebra, param.is_zero(),
                             triples))
        return {"algebras": algebras}

    def digests(self, state):
        return {}

    def run_pass(self, state):
        out = []
        for _name, algebra, zero, triples in state["algebras"]:
            for u, v, w in triples:
                t0 = time.perf_counter()
                try:
                    uv = u * v
                    ok = uv * w == u * (v * w)
                    if zero:
                        ok = ok and uv == algebra.skew_multiply(u, v)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                out.append((ok, time.perf_counter() - t0))
        return out


WORKLOADS = {
    "cm": CliWorkload(cm_jobs, check_cm),
    "pbw": PbwWorkload(),
    "formulas": CliWorkload(formulas_jobs, check_formulas),
}
