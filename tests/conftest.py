"""``exact``: the moved entries of ``tests/exact.json``, against this tree.

The record is rebuilt in process once per session; each test checks a
group of its entries by name pattern.
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
        new = compare_trees.record()
    with open(os.path.join(ROOT, "tests", "exact.json")) as fh:
        old = json.load(fh)

    def lines(pattern="*"):
        old_part, new_part = ({n: r[n] for n in fnmatch.filter(r, pattern)} for r in (old, new))
        assert old_part, "no pinned entry matches %r" % pattern
        moved, events_only = compare_trees.diff(old_part, new_part)
        failed = ["%s: check is false" % n for n, r in sorted(new_part.items()) if r.get("check") is False]
        return moved + events_only + failed

    return lines
