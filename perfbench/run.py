"""ceq benchmark: one command runs a workload, checks every answer and
prints every metric.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Workloads (one caller, a closed loop, workers=1 everywhere):

* roundtrip  reduce PCE to LCE/SPCE and carry the witness there and back
* search     decide gadget pairs and small raw instances by brute force
* cli        the README walkthrough, one `python -m ceq` process per op

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. The line before it is a JSON meta block (interpreter, cores,
CPU, commit, seed, sample counts). A wrong answer aborts the run with a
non-zero exit code and no result line. --quick shrinks every corpus and
set-up for schema checks (see selfcheck.py); its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

import harness
import layers
import wl_cli
import wl_roundtrip
import wl_search

WORKLOADS = {"roundtrip": wl_roundtrip, "search": wl_search, "cli": wl_cli}

# set-up is repeated and its median reported, so that one slow start
# (cold file cache, a noisy neighbour) does not set the figure
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def set_up(wl, ctx, tracer=None):
    """Import ceq afresh and build the corpus.

    Returns (ceq, ops, CPU seconds scaled to the reference machine).
    """
    factor = harness.LOOP.factor([harness.LOOP.run() for _ in range(5)])
    t0 = harness.cpu_clock()
    ceq = harness.import_ceq()
    if tracer is not None:
        tracer.install()
        tracer.scope = "setup"
        tracer.begin("setup", -1)
    ops = wl.setup(ceq, ctx)
    if tracer is not None:
        tracer.end()
        tracer.scope = "op"
        tracer.uninstall()
    return ceq, ops, (harness.cpu_clock() - t0) * factor


def end_to_end(passes, setup_times):
    """Metrics from whole passes over one corpus.

    Every op run is a latency sample: its CPU time scaled by its pass's
    speed factor. Throughput is completed ops over the sum of those times.
    """
    per_op = sorted(s.seconds * p.factor for p in passes for s in p.samples)
    completed = sum(s.ok for p in passes for s in p.samples)
    attempted = len(per_op)
    p90 = harness.percentile(per_op, 90)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (completed / sum(per_op), "1/s"),
        "op_p50_ms": (1000 * harness.percentile(per_op, 50), "ms"),
        "op_p90_ms": (1000 * p90, "ms"),
        "ok_frac": (completed / attempted, "frac"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MiB"),
    }
    counts = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0].samples),
        "latency_samples": attempted,
        "samples_above_p90": sum(x > p90 for x in per_op),
        "speed_factor_per_pass": [round(p.factor, 4) for p in passes],
        "cpu_s_per_pass": [round(sum(s.seconds for s in p.samples), 4) for p in passes],
        "wall_s_per_pass": [round(sum(s.wall for s in p.samples), 4) for p in passes],
    }
    return metrics, attempted, attempted - completed, counts


def measure(wl, ctx, seconds):
    setup_times = []
    for _ in range(1 if ctx.quick else SETUP_REPEATS):
        _, ops, dt = set_up(wl, ctx)
        setup_times.append(dt)
    metrics, attempted, failed, counts = end_to_end(
        harness.run_timed(ops, seconds, wl.CALIBRATION), setup_times
    )
    counts["setup_s_each"] = [round(t, 4) for t in setup_times]
    return metrics, attempted, failed, counts


def measure_traced(wl, ctx, out_name):
    """A traced set-up, then an untraced and a traced pass over the same
    ops, then the field probe. Runs fixed work, whatever --seconds says."""
    from tracing import Tracer

    tracer = Tracer()
    ceq, ops, _ = set_up(wl, ctx, tracer)
    plain = harness.run_pass(ops, wl.CALIBRATION)
    tracer.install()
    ctx.tracer = tracer
    try:
        traced = harness.run_pass(ops, wl.CALIBRATION, tracer)
    finally:
        ctx.tracer = None
        tracer.uninstall()
    probe = layers.field_probe(ceq, quick=ctx.quick)
    metrics = layers.per_layer(tracer.spans, plain, traced, probe)
    harness.OUT.mkdir(exist_ok=True)
    tracer.dump(harness.OUT / out_name)
    samples = plain.samples + traced.samples
    counts = {"ops_per_pass": len(ops), "spans": len(tracer.spans), "spans_file": out_name}
    return metrics, len(samples), sum(not s.ok for s in samples), counts


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        ctx = harness.Context(args.seed, args.quick, harness.make_workdir(args.workload))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            out_name = f"spans-{args.workload}-{args.seed}.jsonl.gz"
            metrics, attempted, failed, counts = measure_traced(wl, ctx, out_name)
        else:
            metrics, attempted, failed, counts = measure(wl, ctx, args.seconds)
    except (harness.WrongAnswer, FileNotFoundError, ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    info = harness.meta(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    info["counts"] = counts
    print(json.dumps({"meta": info}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
