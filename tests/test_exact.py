"""Every pinned outcome and event count, against ``tests/exact.json``.

Re-pin from the repository root with ``python3 tools/compare_trees.py --worker
src > tests/exact.json``; the record's ``git diff`` shows what moved.
"""

import pytest
import wide_configs

from aasim.runtime import NodeError


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
