"""One benchmark process: set up a workload, then run passes over it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --seconds S

Modes:
  setup    import cherednik, build the workload, print READY and exit
  measure  as setup, then run passes until the next one would end after
           S seconds (at least one); tracing is off
  trace    as setup, then install the tracer and run exactly one pass;
           spans go to perfbench/out/spans-NAME-seedN.jsonl

The worker runs a speed sampler (speed.py) from its first statement on.
Its READY line carries the sampler's figures for the set-up; the parent
(run.py) times the interval from spawning the worker to READY and scales it
with them.  After READY the worker prints one JSON line with its results;
pass times and operation latencies in it are scaled to the reference speed,
``raw_passes`` holds the unscaled pass times and ``scales`` the factor of
each pass (the tracer's times are unscaled).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spans_path(workload, seed):
    """Where a traced worker writes its spans."""
    return os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.jsonl")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from speed import SpeedSampler, scaled
    sampler = SpeedSampler()
    sampler.start()
    started = sampler.mark()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads   # imports cherednik

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    busy, mean_inv = sampler.figures(started)
    print("READY " + json.dumps({"busy": busy, "mean_inv": mean_inv}),
          flush=True)
    if args.mode == "setup":
        sampler.stop()
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    passes, raw_passes, scales, ops = [], [], [], []
    start = time.perf_counter()
    while True:
        mark = sampler.mark()
        results = workload.run_pass(state)
        raw_passes.append(time.perf_counter() - mark[0])
        net, mean_inv = sampler.since(mark)
        passes.append(scaled(net, mean_inv))
        scales.append(scaled(1.0, mean_inv))
        ops.extend((ok, scaled(dt, mean_inv)) for ok, dt in results)
        if tracer is not None:
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(raw_passes) > args.seconds:
            break
    sampler.stop()

    result = {
        "passes": passes,
        "raw_passes": raw_passes,
        "scales": scales,
        "op_latencies": [dt for _ok, dt in ops],
        "attempted": len(ops),
        "failed": sum(1 for ok, _dt in ops if not ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digests": workload.digests(state),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        spans = spans_path(args.workload, args.seed)
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        tracer.write_spans(spans, start)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
