#!/usr/bin/env python3
"""quadpoint benchmark: one workload, one seed, one process, one client.

    python3 perfbench/run.py --workload focal-slice --seed 1 --seconds 30 --trace 0

With --trace 0 it runs set-up several times around a closed loop of
whole operation cycles that lasts until the program has run --seconds
of paced time (see pace.py), checks every output against oracle.py,
and prints the end-to-end metrics, every time in paced seconds.
With --trace 1 it runs a fixed number of cycles once untraced and once
with span wrappers installed (see tracing.py), and prints the
per-layer metrics.
The last stdout line is the JSON result; a readable summary goes to
stderr and a detailed record to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pace
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up runs before and after the timed phase; setup_s is their median.
# Spreading them over the run keeps one slow second from setting it.
SETUP_REPEATS = (3, 2)
# The timed phase ends after --seconds of paced program time, so that
# the number of cycles, and with it which sample is the tail, does not
# follow the host's speed; a slow host still stops at this many times
# --seconds of wall time.
WALL_CAP = 1.3
DEFAULT_SEED = 1


def import_program():
    """Import every quadpoint module afresh from the checkout's src/."""
    for name in [m for m in sys.modules if m == "quadpoint" or m.startswith("quadpoint.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module("quadpoint." + m) for m in tracing.MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC not in where.parents:
        raise ImportError("quadpoint was imported from %s, not from %s" % (where, SRC))
    return SimpleNamespace(**mods)


def rng_for(workload, seed, stage) -> random.Random:
    return random.Random("%s:%d:%s" % (workload, seed, stage))


def execute(ops, samples, errors, tracer=None, pacer=None) -> list:
    """Run ops back to back, timing only the program call, and append
    (op, start, end) to samples; returns the (op, output) pairs still
    to be checked.  A pacer probes between operations, never inside one."""
    outputs = []
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        if pacer is not None:
            pacer.tick()
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as err:  # an unexpected raise is a failed operation
            errors.append("%s: raised %r" % (op.label, err))
            continue
        samples.append((op, t0, perf_counter()))
        outputs.append((op, out))
    return outputs


def check_outputs(outputs, errors) -> None:
    for op, out in outputs:
        try:
            op.check(out)
        except Exception as err:  # a wrong or malformed output is a failure
            errors.append("%s: %s" % (op.label, err))


def tail(times) -> tuple:
    """(value, percentile): the highest percentile that leaves at least
    10 samples above it, or the maximum if there are fewer than 11."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timing_metrics(times, setups, correct) -> tuple:
    """End-to-end metrics from (op, seconds) samples and set-up seconds."""
    tops, by_label = {}, {}
    for op, dt in times:
        by_label.setdefault(op.label, []).append(dt)
        if op.top is not None:
            tops.setdefault(op.top, []).append(dt)
    label_p50 = {k: statistics.median(v) for k, v in sorted(by_label.items())}
    tail_s, tail_pct = tail([dt for _, dt in times])
    metrics = {
        # Time at the mix from per-type medians, so that a few stalled
        # operations on a shared machine do not set it; stalls show in
        # latency_tail_s instead.
        "ops_per_s": correct / sum(len(by_label[k]) * m for k, m in label_p50.items()),
        "latency_p50_s": statistics.median([dt for _, dt in times]),
        "latency_tail_s": tail_s,
        "top_size_p50_s": sum(statistics.median(v) for v in tops.values()),
        "setup_s": statistics.median(setups),
    }
    shape = {
        "latency_tail_percentile": tail_pct,
        "top_size_samples": {k: len(v) for k, v in tops.items()},
        "label_p50_s": label_p50,
    }
    return metrics, shape


def run_untraced(name, seed, seconds, params, workdir) -> tuple:
    spec = workloads.WORKLOADS[name]
    pacer = pace.Pacer(spec.reference)
    setup_spans = []

    def timed_setup():
        pacer.burst()
        t0 = perf_counter()
        qp = import_program()
        state = spec.setup(qp, rng_for(name, seed, "setup"), params, workdir)
        setup_spans.append((t0, perf_counter()))
        pacer.burst()
        return qp, state

    for _ in range(SETUP_REPEATS[0]):
        qp, state = timed_setup()
    samples, errors = [], []
    attempted = 0
    gc.collect()
    phase0 = perf_counter()
    cycle = 0
    paced_s = 0.0
    while cycle == 0 or (paced_s < seconds and perf_counter() - phase0 < WALL_CAP * seconds):
        ops = spec.cycle(qp, state, rng_for(name, seed, "cycle%d" % cycle), params, cycle)
        attempted += len(ops)
        first = len(samples)
        # Checking each cycle's outputs at once keeps memory, and so
        # peak_rss_mb, independent of how many cycles fit in the run.
        check_outputs(execute(ops, samples, errors, pacer=pacer), errors)
        paced_s += sum(pacer.paced(t0, t1) for _, t0, t1 in samples[first:])
        cycle += 1
    pacer.burst()
    phase_s = perf_counter() - phase0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPEATS[1]):
        timed_setup()

    correct = attempted - len(errors)
    setups = [pacer.paced(t0, t1) for t0, t1 in setup_spans]
    metrics, shape = timing_metrics([(op, pacer.paced(t0, t1)) for op, t0, t1 in samples], setups, correct)
    metrics["peak_rss_mb"] = rss_mb
    raw, raw_shape = timing_metrics(
        [(op, t1 - t0) for op, t0, t1 in samples], [t1 - t0 for t0, t1 in setup_spans], correct
    )
    details = {
        "cycles": cycle,
        "phase_s": phase_s,
        "paced_program_s": paced_s,
        "samples": len(samples),
        **shape,
        "setup_runs_s": setups,
        "pace": pacer.summary(),
        "raw_metrics": raw,
        "raw_label_p50_s": raw_shape["label_p50_s"],
        "failed_ratio": len(errors) / attempted,
    }
    return attempted, errors, metrics, details


def run_traced(name, seed, params, workdir, dump_path) -> tuple:
    """The same fixed cycles untraced, then traced; counts repeat exactly."""
    spec = workloads.WORKLOADS[name]
    qp = import_program()
    errors = []
    walls = []
    attempted = 0
    tracer = tracing.Tracer()
    for traced in (False, True):
        samples, outputs = [], []
        gc.collect()
        if traced:
            tracer.install(qp)
        try:
            t0 = perf_counter()
            state = spec.setup(qp, rng_for(name, seed, "setup"), params, workdir)
            for cycle in range(spec.trace_cycles):
                ops = spec.cycle(qp, state, rng_for(name, seed, "cycle%d" % cycle), params, cycle)
                attempted += len(ops)
                outputs += execute(ops, samples, errors, tracer if traced else None)
            walls.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        check_outputs(outputs, errors)
    tracer.dump(dump_path)
    metrics = tracer.metrics(traced_wall=walls[1], untraced_wall=walls[0])
    details = {"spans": len(tracer.start), "trace_dump": str(dump_path), "failed_ratio": len(errors) / attempted}
    return attempted, errors, metrics, details


def run(name, seed, seconds, trace, scale="full", out_dir=OUT_DIR) -> tuple:
    """Run one workload: (the result object the CLI prints, details)."""
    params = workloads.WORKLOADS[name].params[scale]
    workdir = out_dir / ("%s-seed%d" % (name, seed))
    if trace:
        dump_path = out_dir / ("trace-%s-seed%d.tsv" % (name, seed))
        attempted, errors, values, details = run_traced(name, seed, params, workdir, dump_path)
        units = dict(tracing.per_layer_metrics())
    else:
        attempted, errors, values, details = run_untraced(name, seed, seconds, params, workdir)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    details.update(workload=name, seed=seed, trace=trace, errors=errors, metrics=metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = out_dir / ("result-%s-seed%d-trace%d.json" % (name, seed, trace))
    record.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}, details


END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("top_size_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def summarize(result, details) -> None:
    err = sys.stderr
    print("workload %s seed %d trace %d" % (details["workload"], details["seed"], details["trace"]), file=err)
    for name, m in result["metrics"].items():
        print("  %-50s %.6g %s" % (name, m["value"], m["unit"]), file=err)
    print("  %-50s %.6g (%d of %d)" % ("failed_ratio", details["failed_ratio"], result["failed"], result["attempted"]), file=err)
    if "latency_tail_percentile" in details:
        print("  latency_tail_s is p%.2f of %d samples" % (details["latency_tail_percentile"], details["samples"]), file=err)
    for line in details["errors"][:20]:
        print("  FAILED %s" % line, file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, details = run(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as err:
        print("error: cannot import the program: %s" % err, file=sys.stderr)
        return 2
    summarize(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
