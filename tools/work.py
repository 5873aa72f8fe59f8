"""Count the host work of the bench workloads on two source trees.

    python3 tools/work.py OLD [NEW] [--workload W] [--seed S]

OLD and NEW name a git revision or a directory holding an ``aasim`` package,
as in ``tools/compare_trees.py``; NEW defaults to this checkout's ``src``.
Each tree runs in a process of its own, with PYTHONHASHSEED=0, on this
checkout's ``bench/scenarios.py``, which it imports and does not change.

For each workload (every bench workload unless ``--workload`` names one) and
phase, ``setup`` (building the scenario) and ``run`` (its ``run()``), a
``sys.setprofile`` hook counts Python calls, generator entries and C calls
apart. A generator entry is a profile call event whose code object has
CO_GENERATOR set: a generator's first entry and every resume; every other
call event is a Python call. Prints one JSON object: per workload and phase,
each tree's counts per planned op, and its engine events per op, with OLD as
``parent`` and NEW as ``change``. The counts repeat exactly from run to run
on one Python version; they are host work, not time, and no simulated number
depends on them. The hook slows a run about fourfold, so it never runs
inside a timed benchmark.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
from inspect import CO_GENERATOR

from compare_trees import ROOT, tree

COUNTS = ("python_calls", "generator_entries", "c_calls")
PHASES = ("setup", "run")


def count(fn):
    """fn()'s result and the calls it made, as a dict over COUNTS.

    The collector runs before the count and not during it: closing a parked
    generator of an earlier, unreachable simulation enters that generator,
    and would count wherever a collection happened to fall.
    """
    tally = [0, 0, 0]

    def hook(frame, event, _arg):
        if event == "call":
            tally[1 if frame.f_code.co_flags & CO_GENERATOR else 0] += 1
        elif event == "c_call":
            tally[2] += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return result, dict(zip(COUNTS, tally))


def workload_work(make, seed):
    """Per phase, one scenario's counts and events, each per planned op."""
    scenario, setup = count(lambda: make(seed))
    _metrics, run = count(scenario.run)
    ops = scenario.planned_ops
    events = {"setup": 0, "run": scenario.sim.engine.events_run}
    return {
        phase: {**{k: v / ops for k, v in counts.items()}, "events": events[phase] / ops}
        for phase, counts in zip(PHASES, (setup, run))
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?", default=os.path.join(ROOT, "src"))
    parser.add_argument("--workload", action="append", help="a bench workload; repeat for more (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help="print the counts of src directory OLD")
    args = parser.parse_args(argv)
    if args.worker:
        sys.path[:0] = [os.path.abspath(args.old), os.path.join(ROOT, "bench")]
        import scenarios

        names = args.workload or list(scenarios.WORKLOADS)
        unknown = [name for name in names if name not in scenarios.WORKLOADS]
        if unknown:
            parser.error("unknown workload %s; choose from %s" % (", ".join(unknown), ", ".join(scenarios.WORKLOADS)))
        print(json.dumps({name: workload_work(scenarios.WORKLOADS[name], args.seed) for name in names}))
        return 0
    flags = ["--seed", str(args.seed)] + [f for name in args.workload or () for f in ("--workload", name)]
    with tempfile.TemporaryDirectory() as scratch:
        runs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), tree(spec, scratch), "--worker"] + flags,
                stdout=subprocess.PIPE,
                env={**os.environ, "PYTHONHASHSEED": "0"},
            )
            for spec in (args.old, args.new)
        ]
        outs = [r.communicate()[0] for r in runs]
    if any(r.returncode for r in runs):
        print("a tree failed to run", file=sys.stderr)
        return 2
    sides = dict(zip(("parent", "change"), (json.loads(out) for out in outs)))
    result = {
        name: {phase: {side: counts[name][phase] for side, counts in sides.items()} for phase in PHASES}
        for name in sides["parent"]
    }
    print(json.dumps({"seed": args.seed, "workloads": result}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
