"""Run the same configs on two source trees and print every output that moved.

    python3 tools/compare_trees.py OLD [NEW]
    python3 tools/compare_trees.py --worker src > tests/exact.json  # re-pin

OLD and NEW each name a git revision (its ``src`` is taken with ``git
archive``), a directory holding an ``aasim`` package, or a record file such
as ``tests/exact.json``; NEW defaults to this checkout's ``src``. A tree's
record is ``record()``, every entry of ``jobs()``, run in a process of its own on this checkout's
``tests/wide_configs.py``, ``tests/criteria.py`` and ``bench/scenarios.py``;
``--worker SRC`` prints it. The script prints ``diff()``'s lines and a
summary, and exits 1 if an outcome moved; event counts are host work, so
alone they never do.
"""

import argparse
import fnmatch
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import asdict
from functools import partial
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SEEDS = (1, 1009)


def jobs():
    """{name: function building that entry of the record}: each config's
    outcome, each bench run's Metrics, verify() and events, each acceptance
    criterion's payload and each pinned CLI row."""
    import criteria
    import scenarios
    import wide_configs

    configs = {"%s#%03d" % (c["kind"], i): c for i, c in enumerate(wide_configs.wide_configs())}
    configs.update(wide_configs.NAMED_CONFIGS)
    out = {name: partial(wide_configs.outcome, config) for name, config in configs.items()}
    for name, make in scenarios.WORKLOADS.items():
        for seed in BENCH_SEEDS:
            out["%s seed %d" % (name, seed)] = partial(bench_run, make, seed)
    out.update(criteria.jobs())
    return out


def bench_run(make, seed):
    scenario = make(seed)
    result = {**asdict(scenario.run()), "verify": scenario.verify()}
    return {**result, "events": scenario.sim.engine.events_run}


def record():
    return {name: job() for name, job in jobs().items()}


def as_json(value):
    return json.dumps(value, sort_keys=True)


def diff(old, new):
    """(moved, events_only): a line per entry one record lacks or whose fields
    moved, as ``name: field old -> new, ...``; events_only if only events did.
    Fields compare as JSON text, so a value that only changes type, as 1 to
    1.0 or true, moves too."""
    moved, events_only = [], []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            moved.append("%s: only in %s" % (name, "old" if name in old else "new"))
            continue
        a, b = old[name], new[name]
        fields = sorted(k for k in a.keys() | b.keys() if as_json(a.get(k)) != as_json(b.get(k)))
        if fields:
            line = "%s: %s" % (name, ", ".join("%s %r -> %r" % (k, a.get(k), b.get(k)) for k in fields))
            (events_only if fields == ["events"] else moved).append(line)
    return moved, events_only


def lines(old, new, pattern="*"):
    """diff()'s lines for the entries whose names match the fnmatch pattern,
    and one per such finished run of new whose check is false."""
    old_part, new_part = ({n: r[n] for n in fnmatch.filter(r, pattern)} for r in (old, new))
    moved, events_only = diff(old_part, new_part)
    failed = ["%s: check is false" % n for n, r in sorted(new_part.items()) if r.get("check") is False]
    return moved + events_only + failed


def tree(spec, scratch):
    """The src directory a spec names, extracting a revision if needed."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    out = os.path.join(scratch, spec.replace("/", "_"))
    archive = subprocess.run(["git", "-C", ROOT, "archive", spec, "src"], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(out, filter="data")
    return os.path.join(out, "src")


def start(spec, scratch):
    """A record file's path, or a worker started on the tree a spec names."""
    if os.path.isfile(spec):
        return spec
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", tree(spec, scratch)],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new", nargs="?", default=os.path.join(ROOT, "src"))
    parser.add_argument("--worker", action="store_true", help="print the record of src directory OLD")
    args = parser.parse_args(argv)
    if args.worker:
        sys.path[:0] = [os.path.abspath(args.old), os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")]
        lines = ["%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True)) for k, v in sorted(record().items())]
        print("{\n%s\n}" % ",\n".join(lines))
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        runs = [start(spec, scratch) for spec in (args.old, args.new)]
        outs = [Path(r).read_text() if isinstance(r, str) else r.communicate()[0] for r in runs]
    if any(not isinstance(r, str) and r.returncode for r in runs):
        print("a tree failed to run", file=sys.stderr)
        return 2
    old, new = (json.loads(out) for out in outs)
    moved, events_only = diff(old, new)
    for line in moved + events_only:
        print(line)
    summary = (len(moved), len(old), len(events_only))
    print("%d of %d entries moved; only the event count moved in %d" % summary)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
