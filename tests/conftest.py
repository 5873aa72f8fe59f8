"""``exact``: the moved entries of ``tests/exact.json``, against this tree.

Each test checks a group of the record's entries by name pattern; an entry
is rebuilt in process the first time a pattern names it, once per session.
"""

import fnmatch
import importlib
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def exact():
    """lines(pattern): ``diff``'s lines for the entries whose names match the
    fnmatch pattern, and one per such finished run whose check is false."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(os.path.join(ROOT, "bench"))
        patch.syspath_prepend(os.path.join(ROOT, "tools"))
        compare_trees = importlib.import_module("compare_trees")
        jobs = compare_trees.jobs()
    with open(os.path.join(ROOT, "tests", "exact.json")) as fh:
        old = json.load(fh)
    new = {}

    def lines(pattern="*"):
        assert fnmatch.filter(old, pattern), "no pinned entry matches %r" % pattern
        for name in fnmatch.filter(jobs, pattern):
            if name not in new:
                new[name] = jobs[name]()
        return compare_trees.lines(old, new, pattern)

    return lines
