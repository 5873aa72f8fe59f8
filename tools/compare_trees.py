"""Run the same configs on two source trees and print every output that moved.

    python3 tools/compare_trees.py OLD [NEW]

OLD and NEW each name a git revision (its ``src`` is taken with
``git archive``) or a directory holding an ``aasim`` package. NEW defaults
to this checkout's ``src``. Each tree runs, in its own process:

  * every config of ``tests/wide_configs.py`` (seeded small runs off the
    default costs), giving its CSV row, IOTLB misses, records consumed and
    check, or the error class and ``engine.now`` of a run that stalls;
  * the four ``bench/scenarios.py`` workloads at seeds 1 and 1009, giving
    every ``Metrics`` field and ``verify()``.

The configs and scenarios always come from this checkout, so both trees run
the same inputs. The script prints one line per config whose outputs moved,
with each moved field as ``old -> new``, then one line per config or bench
run whose event count moved, as ``events old -> new``, then a summary, and
exits 1 if any output moved. Event counts are host work, not simulated
numbers: the summary counts the runs whose event count moved, and they never
make the exit 1.
"""

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SEEDS = (1, 1009)


def worker(src):
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
    import scenarios
    import wide_configs

    results = {}
    for i, config in enumerate(wide_configs.wide_configs()):
        results["%s#%03d" % (config["kind"], i)] = wide_configs.outcome(config)
    for name, make in scenarios.WORKLOADS.items():
        for seed in BENCH_SEEDS:
            scenario = make(seed)
            metrics = scenario.run()
            results["%s seed %d" % (name, seed)] = {
                **asdict(metrics),
                "verify": scenario.verify(),
                "events": scenario.sim.engine.events_run,
            }
    json.dump(results, sys.stdout)


def tree(spec, scratch):
    """The src directory a spec names, extracting a revision if needed."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    out = os.path.join(scratch, spec.replace("/", "_"))
    os.makedirs(out)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", spec, "src"], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(out, filter="data")
    return os.path.join(out, "src")


def run_tree(src):
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", src],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?", default=os.path.join(ROOT, "src"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.old)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        procs = [run_tree(tree(spec, scratch)) for spec in (args.old, args.new)]
        outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("a tree failed to run", file=sys.stderr)
        return 2
    old, new = (json.loads(out) for out in outs)
    moved = 0
    event_moves = []
    for name in old:
        a, b = old[name], new[name]
        fields = [k for k in a.keys() | b.keys() if k != "events" and a.get(k) != b.get(k)]
        if a.get("events") != b.get("events"):
            event_moves.append("%s: events %r -> %r" % (name, a.get("events"), b.get("events")))
        if fields:
            moved += 1
            print("%s: %s" % (name, ", ".join(
                "%s %r -> %r" % (k, a.get(k), b.get(k)) for k in sorted(fields))))
    for line in event_moves:
        print(line)
    print("%d of %d configs moved; event counts moved in %d" % (moved, len(old), len(event_moves)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
