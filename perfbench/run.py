"""Benchmark runner for the cherednik engine.

    python3 perfbench/run.py --workload {cm,pbw,formulas} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the engine is imported from
``src/``, so nothing needs installing.  Single process at a time, closed
loop, one client: every operation waits for the previous one.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median time of one pass over the workload's operation list,
               the first (cold) pass left out when more than one pass fits
  setup_s      median, over several fresh processes, of the time from
               spawning the process (before ``import cherednik``) until the
               workload's long-lived objects are built and the first
               operation could start
  peak_rss_mb  peak resident set of the process that ran the passes
--trace 1 runs one untraced measuring process as above, then one traced
pass in a fresh process, and reports the per-layer metrics (see tracer.py)
plus the tracing overhead: the traced pass minus the first untraced pass
(both start with cold caches).

Times are scaled to a fixed reference speed of the host (speed.py), so that
the host's drift in speed does not read as a change of the program; the
summary lines also print the unscaled pass times.

Operations that raise or fail their correctness check count in ``failed``;
the error rate is ``failed / attempted``.  The last line of standard output
is the JSON result; the lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

from speed import scaled
from worker import spans_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_STARTS = 14       # setup-only processes, plus the measuring process
DEADLINE_S = 170.0      # the whole run must end within 180 s

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
# metric name -> unit, as BENCHMARK.json declares them
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    pass


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_worker(args, mode, deadline):
    """Spawn one worker; return (set-up seconds, result).

    Set-up is the time from spawning the worker to its READY line, less
    the speed sampler's own time, scaled to the reference speed."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    # unbuffered, so readline() takes no bytes that communicate() should see
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        wall = time.perf_counter() - t0
        if not line.startswith(b"READY "):
            raise BenchError(f"{mode} worker did not get ready")
        speed = json.loads(line[len(b"READY "):])
        setup = scaled(wall - speed["busy"], speed["mean_inv"])
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def measure(args, deadline):
    # half the set-up starts before the passes and half after, so that their
    # median spans the run rather than the host's speed in its first seconds
    setups = [run_worker(args, "setup", deadline)[0]
              for _ in range(SETUP_STARTS // 2)]
    setup, res = run_worker(args, "measure", deadline)
    setups.append(setup)
    setups += [run_worker(args, "setup", deadline)[0]
               for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
    passes = res["passes"]
    warm = passes[1:] or passes
    print(f"workload {args.workload} seed {args.seed}: "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"passes {[round(p, 3) for p in passes]} s scaled, "
          f"{[round(p, 3) for p in res['raw_passes']]} s unscaled")
    for name, samples, scale, unit in (
            ("pass time", warm, 1.0, "s"),
            ("operation latency", res["op_latencies"], 1e3, "ms"),
            ("setup time", setups, 1.0, "s")):
        t = tail(samples)
        print(f"{name}: median {scale * statistics.median(samples):.4f} {unit}"
              + (f", p{t[1]:.1f} {scale * t[0]:.4f} {unit}" if t else "")
              + f" over {len(samples)} samples")
    metrics = {
        "wall_s": statistics.median(warm),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, res["attempted"], res["failed"]


def trace(args, deadline):
    _, plain = run_worker(args, "measure", deadline)
    _, traced = run_worker(args, "trace", deadline)
    # the tracer's times, scaled to the reference speed like the passes
    metrics = {m: v * traced["scales"][0] if PER_LAYER.get(m) == "s" else v
               for m, v in traced["trace"].items()}
    # both first passes start from cold memo caches
    metrics["trace.overhead_s"] = traced["passes"][0] - plain["passes"][0]
    lat = plain["op_latencies"]
    t = tail(lat)
    pbw = args.workload == "pbw"
    metrics["pbw.op_p50_ms"] = 1e3 * statistics.median(lat) if pbw else 0.0
    metrics["pbw.op_tail_ms"] = 1e3 * t[0] if pbw and t else 0.0
    print(f"workload {args.workload} seed {args.seed}: untraced passes "
          f"{[round(p, 3) for p in plain['passes']]} s, traced pass "
          f"{traced['passes'][0]:.3f} s, spans written to "
          f"{os.path.relpath(spans_path(args.workload, args.seed), ROOT)}")
    missing = [m for m in PER_LAYER if m not in metrics]
    if missing:
        raise BenchError(f"trace lacks {missing}")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    # reports of the traced process must match the untraced one byte for byte
    mismatched = sum(digest != plain["digests"].get(job, digest)
                     for job, digest in traced["digests"].items())
    if mismatched:
        print(f"{mismatched} reports differ between the untraced and the "
              "traced process", file=sys.stderr)
        failed += mismatched
    return {m: metrics[m] for m in PER_LAYER}, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cherednik",
                                       "__init__.py")):
        print(f"error: no engine sources under {ROOT}/src/cherednik; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            values, attempted, failed = trace(args, deadline)
            units = PER_LAYER
        else:
            values, attempted, failed = measure(args, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
