"""The benchmark's per-layer tracer must keep finding the methods it wraps.

bench/tracing.py patches each traced entry point through the owner's own
namespace (``owner.__dict__[attr]``), so a method that moves into a base
class or out of its module breaks the traced benchmark. This test installs
the tracer and checks that every patch goes in and comes back out.
"""

import importlib
import os
import sys

import pytest

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
