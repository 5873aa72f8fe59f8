"""The benchmark workloads' entries of ``tests/exact.json``, at seeds 1 and
1009: every ``Metrics`` field the end-to-end metrics are computed from,
``verify()`` and the event count."""

import pytest


@pytest.mark.parametrize("workload", ["dht-active", "dht-rma", "getlog-active", "incast-logged"])
def test_bench_row_is_pinned(exact, workload):
    lines = exact("%s seed *" % workload)
    assert not lines, "\n".join(lines)
