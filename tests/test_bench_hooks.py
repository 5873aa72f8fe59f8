"""The benchmark's per-layer tracer must keep finding the methods it wraps.

bench/tracing.py patches each traced entry point through the owner's own
namespace (``owner.__dict__[attr]``), so a method that moves into a base
class or out of its module breaks the traced benchmark. Its wrappers also
call the originals with their own argument lists, so a changed signature
breaks every traced run. These tests install the tracer, check that every
patch goes in and comes back out, and run small workloads through it.
"""

import contextlib
import importlib
import os
from dataclasses import asdict

import pytest

from aasim.config import SimConfig
from aasim.workloads import dht, getlog

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("tracing")


def test_every_traced_attribute_is_owned_and_restored(tracing):
    tracer = tracing.Tracer()
    targets = [(owner, attr) for owner, attr, _ in tracer._patches()]
    for owner, attr in targets:
        assert attr in vars(owner), "%s.%s is not defined in its own body" % (
            getattr(owner, "__name__", owner), attr)
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in targets}

    with tracer.installed():
        for owner, attr in targets:
            assert vars(owner)[attr] is not originals[(owner, attr)], attr

    for owner, attr in targets:
        assert vars(owner)[attr] is originals[(owner, attr)], attr


def build(workload):
    """A small run: a dht scheme, or ``getlog-aa``, gets logged with data."""
    if workload == "getlog-aa":
        return getlog.GetLogBench(SimConfig(num_procs=2, seed=1), "aa", n_gets=200)
    cfg = SimConfig(scheme=workload, num_procs=4, ops_per_proc=40, vol_size=1 << 12,
                    r_cols=0.25, seed=1)
    return dht.DhtBench(cfg)


def run(workload, tracer=None):
    with tracer.installed() if tracer else contextlib.nullcontext():
        bench = build(workload)
        if tracer:
            tracer.watch_commits(bench.sim)
        metrics = bench.run()
    return bench.sim, asdict(metrics)


@pytest.mark.parametrize("workload", ["aa-poll", "rma", "getlog-aa"])
def test_traced_run_matches_untraced(tracing, workload):
    tracer = tracing.Tracer()
    traced_sim, traced = run(workload, tracer)
    plain_sim, plain = run(workload)
    assert traced == plain
    assert traced_sim.engine.events_run == plain_sim.engine.events_run
    counts = tracer.counts(traced_sim)
    assert counts["link.send_calls"] > 0
    assert counts["logbuf.commit_to_consume_samples"] == plain["records_consumed"]
    assert tracer.calls["workloads.handler"] == plain["handler_invocations"]
    if workload == "getlog-aa":
        assert plain["records_consumed"] == 200
