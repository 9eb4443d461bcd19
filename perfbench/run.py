"""Seeded benchmark of stabilitylab: one workload per run, metrics as JSON.

Run from the root of a checkout (the package is imported from ``./src``)::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the same untraced loop, then ``TRACED_PASSES`` passes in
which every unit runs untraced and then traced, back to back, and reports
the per-layer metrics instead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it stamps the environment, the seed, the raw wall-clock
values and the sample count behind every metric.  The program exits 2
without a result when ``./src/stabilitylab`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import harness
from tracer import Tracer
from workloads import WORKLOADS

#: set-up repetitions in an untraced run; setup_s is their median
SETUP_REPS = 3
TRACED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def failures(workload, runs, bad: dict[int, str]) -> tuple[int, int, list[str]]:
    """Attempted and failed unit executions over every sequence of passes.

    A unit whose first output fails the workload's check fails on every
    execution; an execution in a later sequence (the pool pass, the traced
    passes) whose output differs from the first untraced pass fails.
    """
    attempted = failed = 0
    errors = [f"{workload.units[i].label}: {why}" for i, why in sorted(bad.items())]
    first = runs[0]
    for res in runs:
        errors += res.errors
        for i, times in enumerate(res.times):
            attempted += len(times)
            if i in bad:
                failed += len(times)
            elif res is not first and res.outputs[i] != first.outputs[i]:
                failed += len(times)
                errors.append(f"{workload.units[i].label}: output differs from the first untraced pass")
            else:
                failed += res.failed[i]
    return attempted, failed, errors


def end_to_end(workload, timed, setup_s: list[float], raw_setup_s: list[float]) -> tuple[dict, dict, dict]:
    """Metrics in reference seconds, their sample counts, and the raw values."""
    metrics, raw = {}, {}
    for out, med, setup in ((metrics, timed.unit_medians(), setup_s), (raw, timed.unit_medians(False), raw_setup_s)):
        pass_s = sum(med)
        work = sum(workload.work(d) for d in timed.outputs if d is not None)
        out["setup_s"] = (statistics.median(setup), "s")
        out["classes_per_s"] = (work / pass_s, "1/s")
        out["calls_per_s"] = (len(med) / pass_s, "1/s")
        out["call_p50_ms"] = (harness.quantile(med, 0.5) * 1e3, "ms")
        out["call_p90_ms"] = (harness.quantile(med, 0.9) * 1e3, "ms")
    metrics["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
    samples = {
        "setup_s": len(setup_s),
        "classes_per_s": timed.passes,
        "calls_per_s": timed.passes,
        "call_p50_ms": len(workload.units),
        "call_p90_ms": len(workload.units),
        "peak_rss_mb": 1,
    }
    return metrics, samples, {name: value for name, (value, _) in raw.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = harness.src_dir(root)
    if src is None:
        print(f"error: {root} has no src/{harness.PACKAGE}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = harness.environment(root, src)
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **env}
    speed = harness.Speed()
    setup_s, raw_setup_s = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        mods = harness.fresh_import(src)
        workload.setup(mods, args.seed)
        t1 = time.perf_counter()
        speed.sample()
        raw_setup_s.append(t1 - t0)
        setup_s.append((t1 - t0) * speed.scale(t0, t1))
    gates = workload.gates()

    timed = harness.run_passes(speed, workload.units, workload.digest, args.seconds)
    runs = [timed]
    pool = None
    if workload.pool_units:
        t0 = time.perf_counter()
        pool = harness.run_paired(speed, workload.units, workload.pool_units, workload.digest, 1)
        pool_scale = speed.scale(t0, time.perf_counter())
        runs += pool
    if args.trace:
        tracer = Tracer(mods)
        t0 = time.perf_counter()
        plain, traced = harness.run_paired(
            speed,
            workload.units,
            workload.units,
            workload.digest,
            TRACED_PASSES,
            around_b=tracer.installed,
            wrap_b=tracer.operation,
        )
        trace_scale = speed.scale(t0, time.perf_counter())
        runs += (plain, traced)

    bad = workload.check(timed.outputs)
    attempted, failed, errors = failures(workload, runs, bad)
    gate_errors = [g for g in gates if g is not None]
    attempted += len(gates)
    failed += len(gate_errors)
    errors = gate_errors + errors

    if args.trace:
        metrics, absent = tracer.layer_metrics(TRACED_PASSES, trace_scale)
        util = overhead = 0.0
        if pool is not None:
            serial, pooled = pool
            util = pooled.cpu_s / (pooled.wall_s * workload.POOL_JOBS)
            overhead = (pooled.cpu_s - serial.cpu_s) * pool_scale
        metrics["pool.cpu_util"] = (util, "ratio")
        metrics["pool.overhead_cpu_s"] = (overhead, "s")
        metrics["trace.overhead_ratio"] = (traced.pass_s(False) / plain.pass_s(False), "ratio")
        samples = {name: TRACED_PASSES for name in metrics}
        samples["pool.cpu_util"] = samples["pool.overhead_cpu_s"] = 1
        samples["trace.overhead_ratio"] = TRACED_PASSES
        stamp["counters_per_pass"] = {k: v / TRACED_PASSES for k, v in tracer.counters().items()}
        stamp["absent"] = absent
        stamp["absent_spans"] = tracer.absent
        if pool is not None:
            stamp["note"] = "the jobs=2 pass runs untraced; its workers show only in the rusage of reaped children"
    else:
        metrics, samples, stamp["raw_wall"] = end_to_end(workload, timed, setup_s, raw_setup_s)
    stamp["kernel_ms"] = speed.kernel_ms()
    stamp["reference_kernel_ms"] = harness.REFERENCE_S * 1e3

    stamp["samples"] = samples
    stamp["units"] = len(workload.units)
    stamp["passes"] = [r.passes for r in runs]
    stamp["failed_frac"] = failed / attempted
    stamp["errors"] = errors[:20]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:38s} {value:14.6f} {unit:6s} samples={samples[name]}")
    # failed_frac is zero on a correct run, so it travels as attempted/failed in the result
    print(f"{args.workload:13s} {'failed_frac':38s} {failed / attempted:14.6f} {'ratio':6s} samples={attempted}")
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
