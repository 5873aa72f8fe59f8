"""Benchmark driver for aasim: one workload, one seed, one process.

    python3 bench/run.py --workload dht-active --seed 1 --seconds 25 --trace 0

Builds and runs the workload's scenario again and again for about --seconds
of host time, checks every run's outputs outside the timed spans,
and prints one JSON object as the last line of stdout:

  --trace 0  end-to-end metrics: median host set-up and run time, scaled
             to a reference interpreter speed, peak RSS of this process, and
             the simulated throughput, remote ops per op and wire bytes per op.
  --trace 1  per-layer metrics. Untraced and traced runs alternate; the
             traced ones must reproduce the untraced simulated metrics and
             CSV row exactly, and their median run time minus the untraced
             one is reported as the tracing overhead.

Runs that share a seed must give identical simulated metrics. A run that
deadlocks, exceeds its event budget or fails its check counts every one of
its operations as failed. The simulator is imported from ../src, so the
benchmark fails with exit code 2 when that tree is missing.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# A scenario that builds in a few milliseconds is built again after each run,
# until the round holds this much set-up time or this many set-ups, so that
# its median set-up time rests on enough samples.
SETUP_ROUND_S = 0.5
SETUPS_PER_ROUND = 20
# On a shared host the interpreter's speed drifts by a third within minutes,
# which no number of repeats averages out. Each round of runs is therefore
# bracketed by timings of a fixed kernel that uses no simulator code, and the
# round's host times are scaled to the speed at which that kernel takes
# CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.035
CALIBRATION_SAMPLES = 3


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="aasim benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_once(make, seed, tracer=None):
    """Build, run and check one scenario; returns a dict describing the run.

    With a tracer, its wrappers are installed for set-up and run only, so the
    output check adds nothing to the per-layer counts.
    """
    gc.collect()
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        with tracer.span("workloads.setup") if tracer else contextlib.nullcontext():
            scenario = make(seed)
        if tracer:
            tracer.watch_commits(scenario.sim)
            covered_before_run = tracer.covered_ns
        built = time.perf_counter()
        try:
            metrics = scenario.run()
        except RuntimeError:
            # DeadlockError, an exceeded event budget or a workload overflow.
            traceback.print_exc()
            return {"ok": False, "ops": scenario.planned_ops}
        done = time.perf_counter()
    out = {
        "ops": scenario.planned_ops,
        "setup_s": built - start,
        "run_s": done - built,
        "signature": repr(
            (metrics.as_row(scenario.sim.cfg), asdict(metrics), scenario.sim.engine.events_run)
        ),
        "sim_ops_per_s": metrics.throughput_ops_per_s,
        "remote_ops_per_op": metrics.remote_ops / metrics.ops,
        "wire_bytes_per_op": metrics.bytes_wire / metrics.ops,
    }
    if tracer:
        out["counts"] = tracer.counts(scenario.sim)
        out["host"] = tracer.host_seconds(tracer.covered_ns - covered_before_run, out["run_s"])
    out["ok"] = (
        metrics.ops == scenario.planned_ops
        and metrics.fault_entries == 0
        and metrics.fault_drops == 0
        and scenario.verify()
    )
    return out


def calibration_kernel():
    """Time fixed interpreter-bound work: generator resumption, dict stores."""

    def count(n):
        for i in range(n):
            yield i

    start = time.perf_counter()
    table = {}
    total = 0
    for i in count(200_000):
        table[i & 1023] = i
        total += len(table) + i % 7
    return time.perf_counter() - start


def calibrate():
    return [calibration_kernel() for _ in range(CALIBRATION_SAMPLES)]


def setup_once(make, seed):
    gc.collect()
    start = time.perf_counter()
    make(seed)
    return time.perf_counter() - start


def end_to_end(runs, setups):
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] * r["scale"] for r in runs), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "sim_ops_per_s": (runs[0]["sim_ops_per_s"], "ops/s"),
        "remote_ops_per_op": (runs[0]["remote_ops_per_op"], "ops/op"),
        "wire_bytes_per_op": (runs[0]["wire_bytes_per_op"], "B/op"),
    }


def count_unit(name):
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_reserved"):
        return "B"
    return "count"


def per_layer(plain, traced):
    """Counts from the traced runs (identical by check), host times as medians."""
    untraced_run_s = statistics.median(r["run_s"] * r["scale"] for r in plain)
    traced_run_s = statistics.median(r["run_s"] * r["scale"] for r in traced)
    counts = traced[0]["counts"]
    out = {name: (value, count_unit(name)) for name, value in counts.items()}
    for name in traced[0]["host"]:
        out[name] = (statistics.median(r["host"][name] for r in traced), "s")
    out["engine.host_ns_per_event"] = (untraced_run_s * 1e9 / counts["engine.events"], "ns")
    out["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    return out


def main(argv=None):
    if not os.path.isdir(os.path.join(SRC, "aasim")):
        print("error: simulator sources not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from scenarios import WORKLOADS
    from tracing import Tracer

    args = parse_args(argv, sorted(WORKLOADS))
    make = WORKLOADS[args.workload]
    runs = {"plain": [], "traced": []}
    setups = []
    # Repeat while another round is expected to end inside --seconds.
    start = time.perf_counter()
    rounds = []
    calibration = calibrate()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        began = time.perf_counter()
        round_runs = [run_once(make, args.seed)]
        round_setups = []
        if args.trace:
            round_runs.append(run_once(make, args.seed, Tracer()))
        elif "setup_s" in round_runs[0]:
            round_setups.append(round_runs[0]["setup_s"])
            while sum(round_setups) < SETUP_ROUND_S and len(round_setups) < SETUPS_PER_ROUND:
                round_setups.append(setup_once(make, args.seed))
        before, calibration = calibration, calibrate()
        scale = CALIBRATION_REF_S / statistics.mean(before + calibration)
        for run in round_runs:
            run["scale"] = scale
        runs["plain"].append(round_runs[0])
        runs["traced"] += round_runs[1:]
        setups += [t * scale for t in round_setups]
        rounds.append(time.perf_counter() - began)

    every = runs["plain"] + runs["traced"]
    attempted = sum(r["ops"] for r in every)
    failed = sum(r["ops"] for r in every if not r["ok"])
    finished = [r for r in every if "signature" in r]
    # Same seed, same simulated results: across repeats and with tracing on.
    deterministic = len({r["signature"] for r in finished}) <= 1
    counts_repeat = len({repr(r["counts"]) for r in runs["traced"] if "counts" in r}) <= 1
    correct = failed == 0 and deterministic and counts_repeat
    if not correct:
        print("error: failed=%d deterministic=%s counts_repeat=%s"
              % (failed, deterministic, counts_repeat), file=sys.stderr)
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics = per_layer(runs["plain"], runs["traced"])
    else:
        metrics = end_to_end(runs["plain"], setups)
    print("%s seed %d: %d untraced, %d traced runs, %d set-ups"
          % (args.workload, args.seed, len(runs["plain"]), len(runs["traced"]), len(setups)), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-36s %16.6f %s" % (name, value, unit), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
