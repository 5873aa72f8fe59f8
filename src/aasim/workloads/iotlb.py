"""Translation-cache sweeps: hit rates on a replayed trace, and end-to-end
insert rates with different cache shapes.

The replay path drives a standalone cache with the page trace a hot-bucket
hash-table run produces, looped several times, across sizes, associativities
and both replacement policies. The end-to-end path runs the actual insert
workload against one hot owner, with the issue cost turned down far enough
that the owner bridge (and so its translation cache) is the bottleneck.
"""

import random

from ..paging import IotlbCache
from . import keys as K
from .dht import DhtBench

# Cache shapes swept, as (size, assoc, policy).
SHAPES = [
    (size, assoc, policy)
    for size in (4, 8, 16, 32)
    for assoc in (1, 2, 4, "full")
    for policy in ("lru", "rnd")
]
# The low issue cost keeps sources well ahead of the owner bridge and the
# cheap handler keeps the consumer ahead of it too, so the run time tracks
# the bridge's walk stalls and with them the cache misses.
BRIDGE_BOUND = dict(scheme="aa-sp", issue_cost_ns=300.0, handler_cost_ns=10.0)
# The replayed trace: page visits of a skewed bucket stream over a table of
# TRACE_PAGES pages, TRACE_VISITS long and played TRACE_LOOPS times.
TRACE_PAGES = 64
TRACE_VISITS = 2000
TRACE_LOOPS = 3


def replay_hit_rate(trace, size, assoc, policy, seed):
    cache = IotlbCache(size, assoc, policy, random.Random(seed))
    for page in trace:
        if cache.lookup(page) is None:
            cache.insert(page, object())
    total = cache.hits + cache.misses
    return cache.hits / total if total else 0.0


def sweep_hit_rates(seed=1):
    """Rows of (size, assoc, policy, hit_rate) over the replayed trace."""
    trace = K.zipf_page_trace(random.Random(seed * 65537), TRACE_PAGES, TRACE_VISITS, TRACE_LOOPS)
    return [
        (size, assoc, policy, replay_hit_rate(trace, size, assoc, policy, seed))
        for size, assoc, policy in SHAPES
    ]


def insert_run(cfg, **shape):
    """One bridge-bound skewed insert run against a single hot owner, with
    the config fields in shape set; returns the run's config and metrics."""
    point = cfg.replace(**BRIDGE_BOUND, **shape)
    return point, DhtBench(point, key_mode="skewed").run()


def insert_rate(cfg, assoc, ops=300):
    """Hot-owner insert throughput with the given associativity at the owner."""
    _point, metrics = insert_run(cfg, iotlb_assoc=assoc, iotlb_policy="lru", ops_per_proc=ops)
    return metrics.throughput_ops_per_s, metrics
