"""tools/pairs.py's verdict on the gain rule, from hand-made runs."""

import importlib
import os

import pytest

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
