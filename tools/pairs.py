"""Time two source trees against each other in alternating pairs of bench runs.

    python3 tools/pairs.py OLD [NEW] --workload W --seed S --pairs N --seconds T [--control]

OLD and NEW name a git revision or a directory holding an ``aasim`` package,
as in ``tools/compare_trees.py``; NEW defaults to this checkout's ``src``.
Each side gets a directory of its own holding a copy of this checkout's
``bench/`` and of its tree's ``src``, so both run the same benchmark code.
Pair i runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` once
on each side, OLD first when i is even and NEW first when it is odd.

Prints one JSON object. For each end-to-end metric of ``BENCHMARK.json`` it
gives each side's median and quartiles (inclusive method), the ratio of the
medians and the median of the per-pair ratios, the pairs NEW won (ties count
for neither side), NEW's median gain and OLD's interquartile range, both in
the metric's unit with a gain positive when NEW is better, whether the gain
rule is met, and every run in pair order. The gain rule holds when NEW wins
at least nine tenths of the pairs and its median gain exceeds OLD's
interquartile range. OLD is reported as ``parent`` and NEW as ``change``.

``--control`` adds a third side, ``control``: a second copy of OLD in a
directory of its own. Each pair then runs all three sides, and pair i starts
at side i mod 3 of parent, change, control. Each metric also gives the
control's median and quartiles and its move, the absolute difference of the
control's and the parent's medians; the gain rule then also needs the median
gain to exceed that move. Without ``--control`` the output is as before.
Exits 1 if any run failed or reported a wrong output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from compare_trees import ROOT, tree

SIDES = ("parent", "change")
CONTROL = "control"


def side_dir(src, out):
    """A directory holding this checkout's bench/ and a copy of src."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(out, "bench"), ignore=skip)
    shutil.copytree(src, os.path.join(out, "src"), ignore=skip)
    return out


def bench_run(side, args):
    """One bench run; returns its last stdout line as a dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join(side, "bench", "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(better, runs):
    """One metric's comparison; runs maps each side, and the control if it
    ran, to its values in pair order."""
    old, new = runs["parent"], runs["change"]
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
    ties = sum(a == b for a, b in zip(old, new))
    stats = {side: quartiles(runs[side]) for side in SIDES}
    ratio = stats["change"]["median"] / stats["parent"]["median"]
    gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    out = {
        "parent": stats["parent"],
        "change": stats["change"],
        "change_over_parent": ratio,
        "median_pair_ratio": statistics.median(b / a for a, b in zip(old, new)),
        "change_wins": wins,
        "ties": ties,
        "median_gain": gain,
        "parent_iqr": iqr,
        "gain_rule_met": 10 * wins >= 9 * len(old) and gain > iqr,
    }
    if CONTROL in runs:
        control = quartiles(runs[CONTROL])
        move = abs(control["median"] - stats["parent"]["median"])
        out.update(control=control, control_move=move)
        out["gain_rule_met"] = out["gain_rule_met"] and gain > move
    out["runs"] = runs
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?", default=os.path.join(ROOT, "src"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--control", action="store_true", help="also run a second copy of OLD")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = SIDES + (CONTROL,) if args.control else SIDES
    specs = (args.old, args.new, args.old)
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {}
        for side, spec in zip(sides, specs):
            src = tree(spec, os.path.join(scratch, side))
            dirs[side] = side_dir(src, os.path.join(scratch, side, "run"))
        results = {side: [] for side in sides}
        first = []
        for i in range(args.pairs):
            start = i % len(sides)
            order = sides[start:] + sides[:start]
            first.append(order[0])
            for side in order:
                results[side].append(bench_run(dirs[side], args))
                print("pair %d %s done" % (i, side), file=sys.stderr)
    failed = {side: sum(r["failed"] for r in results[side]) for side in sides}
    correct = all(r["correct"] for side in sides for r in results[side])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "failed": failed,
        "correct": correct,
        "first_in_pair": first,
        "metrics": {},
    }
    if correct:
        for name, spec in metrics.items():
            runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
            out["metrics"][name] = {"unit": spec["unit"], **summary(spec["better"], runs)}
    print(json.dumps(out, indent=1))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
