"""Every pinned outcome, event count, criterion payload and CLI row,
against ``tests/exact.json``.

Re-pin from the repository root with ``python3 tools/compare_trees.py --worker
src > tests/exact.json``; the record's ``git diff`` shows what moved.
"""

import copy
import fnmatch
import importlib
import json
import os

import pytest
import wide_configs
from criteria import CLI_ROWS, CRITERIA, cli_name

from aasim.runtime import NodeError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_record_is_exact(exact):
    lines = exact()
    assert not lines, "\n".join(lines)


def test_a_model_error_is_recorded_and_a_python_error_is_not(monkeypatch):
    def run(self):
        raise error

    monkeypatch.setattr(wide_configs._Dht, "run", run)
    config = wide_configs.NAMED_CONFIGS["small rma"]
    error = NodeError("puts still outstanding\nrank 1")
    assert wide_configs.outcome(config) == {
        "error": "NodeError", "message": "puts still outstanding", "now": 0.0, "events": 0}
    error = TypeError("a bug")
    with pytest.raises(TypeError):
        wide_configs.outcome(config)


@pytest.fixture
def compare_trees(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("compare_trees")


def pinned_record():
    with open(os.path.join(ROOT, "tests", "exact.json")) as fh:
        return json.load(fh)


def test_a_moved_field_is_named_by_its_entry_and_only_in_its_group(compare_trees):
    pinned = pinned_record()
    assert fnmatch.filter(pinned, "criterion *") == ["criterion %02d" % n for n in range(1, len(CRITERIA) + 1)]
    assert fnmatch.filter(pinned, "cli *") == sorted(cli_name(*row) for row in CLI_ROWS)
    edited = copy.deepcopy(pinned)
    old_time, old_row = pinned["criterion 04"]["aa.sim_time_ns"], pinned["cli dht rma"]["sim_time_ns"]
    edited["criterion 04"]["aa.sim_time_ns"] = old_time + 1
    edited["cli dht rma"]["sim_time_ns"] = old_row + "1"
    criterion = "criterion 04: aa.sim_time_ns %r -> %r" % (old_time, old_time + 1)
    row = "cli dht rma: sim_time_ns %r -> %r" % (old_row, old_row + "1")
    assert compare_trees.diff(pinned, edited) == ([row, criterion], [])
    assert compare_trees.lines(pinned, edited, "criterion *") == [criterion]
    assert compare_trees.lines(pinned, edited, "cli *") == [row]


def test_a_reordered_column_or_a_value_of_another_type_moves(compare_trees):
    pinned = pinned_record()
    edited = copy.deepcopy(pinned)
    columns = edited["cli getlog"]["columns"]
    columns[0], columns[1] = columns[1], columns[0]
    edited["criterion 07"]["records"] = float(pinned["criterion 07"]["records"])
    edited["criterion 09"]["aa_matches_rma"] = 1
    moved, events_only = compare_trees.diff(pinned, edited)
    assert [line.split(": ")[:2] for line in moved] == [
        ["cli getlog", "columns %r -> %r" % (pinned["cli getlog"]["columns"], columns)],
        ["criterion 07", "records %r -> %r" % (pinned["criterion 07"]["records"], edited["criterion 07"]["records"])],
        ["criterion 09", "aa_matches_rma True -> 1"],
    ]
    assert events_only == []
