"""Translation-cache sweeps: hit rates on a replayed trace, and end-to-end
insert rates with different cache shapes.

The replay path drives a standalone cache with the page trace a hot-bucket
hash-table run produces, looped several times, across sizes, associativities
and both replacement policies. The end-to-end path runs the actual insert
workload against one hot owner, with the issue cost turned down far enough
that the owner bridge (and so its translation cache) is the bottleneck.
Both draw their hot pages from one power-law profile, ``zipf_indices``.
"""

import random

from ..config import ConfigError
from ..memory import PAGE_SIZE
from ..paging import IotlbCache
from . import keys as K
from .dht import CELL, DhtBench

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
ZIPF_SKEW = 1.1
# Hot table pages sit this many pages apart, so that they contend for the
# same sets of a set-associative translation cache.
HOT_PAGE_STRIDE = 2


def zipf_indices(rng, universe, count):
    """count draws from [0, universe) with a power-law popularity profile."""
    weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(universe)]
    return rng.choices(range(universe), weights, k=count)


def zipf_page_trace(rng, n_pages, count, loops):
    """A page-visit trace with hot pages, replayed loops times end to end."""
    once = zipf_indices(rng, n_pages, count)
    return once * loops


def skewed_bucket_keys(rng, count, owner, procs, table_size):
    """Keys for one owner whose buckets cluster on a few hot table pages."""
    buckets_per_page = PAGE_SIZE // CELL
    n_pages = max(1, table_size // buckets_per_page)
    universe = max(1, n_pages // HOT_PAGE_STRIDE)
    ranks = zipf_indices(rng, universe, count)
    used = set()
    out = []
    for rank in ranks:
        page = rank * HOT_PAGE_STRIDE % n_pages
        bucket = page * buckets_per_page + rng.randrange(buckets_per_page)
        key = K.key_for(rng, owner, bucket, procs, table_size, used)
        used.add(key)
        out.append(key)
    return out


def replay_hit_rate(trace, size, assoc, policy, seed):
    cache = IotlbCache(size, assoc, policy, random.Random(seed))
    for page in trace:
        if cache.lookup(page) is None:
            cache.insert(page, object())
    total = cache.hits + cache.misses
    return cache.hits / total if total else 0.0


def sweep_hit_rates(seed):
    """Rows of (size, assoc, policy, hit_rate) over the replayed trace."""
    trace = zipf_page_trace(random.Random(seed * 65537), TRACE_PAGES, TRACE_VISITS, TRACE_LOOPS)
    return [
        (size, assoc, policy, replay_hit_rate(trace, size, assoc, policy, seed))
        for size, assoc, policy in SHAPES
    ]


def hot_owner_keys(cfg):
    """The key source of a skewed insert run: rank 0 is the one hot owner,
    and every other rank a source of cfg.ops_per_proc keys at rank 0 whose
    buckets cluster on a few hot table pages."""
    if cfg.num_procs < 2:
        raise ConfigError("skewed keys need >= 2 procs: rank 0 is the hot owner, the rest are sources")
    procs, count = cfg.num_procs, cfg.ops_per_proc

    def keys(rng, rank, table_size):
        return skewed_bucket_keys(rng, count, 0, procs, table_size) if rank else []

    return keys


def insert_run(cfg, **shape):
    """One bridge-bound skewed insert run against a single hot owner
    (hot_owner_keys), with the config fields in shape set; returns the run's
    config and metrics."""
    point = cfg.replace(**BRIDGE_BOUND, **shape)
    return point, DhtBench(point, keys=hot_owner_keys(point)).run()
