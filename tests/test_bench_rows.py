"""The benchmark workloads' simulated results at seed 1, pinned.

A change that only makes the simulator cheaper to run must leave every
simulated number alone. These are the CSV columns the benchmark's
end-to-end metrics are computed from (remote ops, wire bytes and simulated
time per workload), plus the engine's event count, which such a change may
lower on purpose and then re-pins here with its reason.
"""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# workload: (ops, remote_ops, bytes_wire, sim_time_ns, events_run)
ROWS = {
    "dht-active": (16000, 16112, 518272, 3888845.0, 99435),
    "dht-rma": (16000, 38129, 2014600, 12821242.0, 217845),
    "getlog-active": (20000, 20000, 1120000, 54121650.0, 252342),
    "incast-logged": (16800, 17080, 18831680, 18826352.0, 230924),
}


@pytest.fixture
def scenarios(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("scenarios")


@pytest.mark.parametrize("workload", sorted(ROWS))
def test_bench_row_is_pinned(scenarios, workload):
    scenario = scenarios.WORKLOADS[workload](1)
    row = scenario.run().as_row(scenario.sim.cfg)
    got = (row["ops"], row["remote_ops"], row["bytes_wire"], row["sim_time_ns"], scenario.sim.engine.events_run)
    assert got == ROWS[workload]
