"""tools/pairs.py's verdict on the gain rule, with and without a control block,
and compare_trees.py's diff, from hand-made inputs; tools/work.py's counts."""

import importlib
import os
import statistics

import pytest

from aasim.config import SimConfig
from aasim.workloads.getlog import GetLogBench

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("pairs")


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_gain_rule_met_when_change_wins_nine_pairs_by_more_than_the_iqr(pairs):
    change = [0.70] * 9 + [1.10]  # loses the last pair
    out = pairs.summary("lower", {"parent": PARENT, "change": change})
    assert out["change_wins"] == 9
    assert out["median_gain"] > out["parent_iqr"]
    assert out["gain_rule_met"] is True


def test_gain_rule_missed_on_wins(pairs):
    change = [0.70] * 8 + [1.02, 1.10]  # a tie counts for neither side
    out = pairs.summary("lower", {"parent": PARENT, "change": change})
    assert (out["change_wins"], out["ties"]) == (8, 1)
    assert out["median_gain"] > out["parent_iqr"]
    assert out["gain_rule_met"] is False


def test_gain_rule_missed_on_the_iqr(pairs):
    # Higher is better here: the change wins every pair, by less than the spread.
    change = [v + 0.01 for v in PARENT]
    out = pairs.summary("higher", {"parent": PARENT, "change": change})
    assert out["change_wins"] == 10
    assert 0 < out["median_gain"] < out["parent_iqr"]
    assert out["gain_rule_met"] is False


def test_gain_rule_missed_on_the_control_move(pairs):
    # The change wins every pair by more than the parent's IQR, but a second
    # copy of the parent moved further than that.
    change = [v - 0.05 for v in PARENT]
    control = [v - 0.08 for v in PARENT]
    out = pairs.summary("lower", {"parent": PARENT, "change": change, "control": control})
    assert out["change_wins"] == 10
    assert out["parent_iqr"] < out["median_gain"] < out["control_move"]
    assert out["control"]["median"] == pytest.approx(0.92)
    assert out["gain_rule_met"] is False
    # The same control block, with a gain larger than its move, meets the rule.
    change = [v - 0.10 for v in PARENT]
    out = pairs.summary("lower", {"parent": PARENT, "change": change, "control": control})
    assert out["median_gain"] > out["control_move"] > out["parent_iqr"]
    assert out["gain_rule_met"] is True


def test_summary_without_control_is_unchanged(pairs):
    runs = {"parent": [4.0, 2.0, 3.0, 5.0], "change": [2.0, 2.0, 1.0, 1.0]}
    assert pairs.summary("lower", runs) == {
        "parent": {"median": 3.5, "q1": 2.75, "q3": 4.25},
        "change": {"median": 1.5, "q1": 1.0, "q3": 2.0},
        "change_over_parent": 1.5 / 3.5,
        "median_pair_ratio": statistics.median([0.5, 1.0, 1 / 3, 0.2]),
        "change_wins": 3,
        "ties": 1,
        "median_gain": 2.0,
        "parent_iqr": 1.5,
        "gain_rule_met": False,
        "runs": runs,
    }


@pytest.fixture
def compare_trees(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("compare_trees")


OLD = {
    "dht#000": {"sim_time_ns": 765.0, "check": True, "events": 343},
    "dht#001": {"sim_time_ns": 900.0, "check": True, "events": 813},
    "incast#002": {"error": "DeadlockError", "now": 105452.0, "events": 75},
    "small rma": {"sim_time_ns": 5.0, "check": True, "events": 20},
}


def test_diff_names_each_moved_entry_once(compare_trees):
    new = {name: dict(entry) for name, entry in OLD.items() if name != "small rma"}
    new["dht#000"]["sim_time_ns"] = 770.0
    new["dht#001"]["events"] = 812
    new["incast#002"]["error"] = "NodeError"
    moved, events_only = compare_trees.diff(OLD, new)
    assert moved == [
        "dht#000: sim_time_ns 765.0 -> 770.0",
        "incast#002: error 'DeadlockError' -> 'NodeError'",
        "small rma: only in old",
    ]
    assert events_only == ["dht#001: events 813 -> 812"]
    assert compare_trees.diff(OLD, OLD) == ([], [])


@pytest.fixture
def work(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    return importlib.import_module("work")


def test_work_counts_of_one_simulation_repeat_exactly(work):
    def run():
        return GetLogBench(SimConfig(scheme="aa-sp", num_procs=2, seed=3), "aa", n_gets=50).run()

    first, second = work.count(run), work.count(run)
    assert first == second
    assert all(first[1].values())


def test_a_generator_resume_counts_as_a_generator_entry_not_a_call(work):
    def gen():
        while True:
            yield

    def resume(n):
        g = gen()
        for _ in range(n):
            next(g)

    few, more = (work.count(lambda n=n: resume(n))[1] for n in (2, 7))
    assert more["generator_entries"] - few["generator_entries"] == 5
    assert more["python_calls"] == few["python_calls"]
    assert more["c_calls"] - few["c_calls"] == 5  # each next()


def test_src_lines_counts_lines_code_and_defaulted_parameters(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    src_lines = importlib.import_module("src_lines")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Doc."""\n'
        "\n"
        "# comment\n"
        "def f(a, b=1, *, c, d=2, **kw):\n"
        "    return lambda x=0: x\n"
    )
    (tmp_path / "b.py").write_text("async def g(e=3):\n    pass\n")
    (tmp_path / "notes.txt").write_text("def h(x=1): pass\n")
    assert src_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "%s: 7 lines, 4 code lines, 4 defaulted parameters\n" % tmp_path
