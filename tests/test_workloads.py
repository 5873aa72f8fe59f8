import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from criteria import (
    bandwidth_pair,
    forced_collision_keys,
    forced_keys,
    insert_rate,
    insert_remote_ops,
    run_variants,
)

from aasim.config import SCHEMES, ConfigError, SimConfig
from aasim.memory import LINE_SHIFT, PAGE_SIZE, PhysMemory
from aasim.sim import SWEEP_INTERVAL_NS, Simulation
from aasim.workloads import dht, iotlb, keys, stream
from aasim.workloads.checkpoint import CheckpointBench
from aasim.workloads.counter import CounterBench
from aasim.workloads.dht import DhtOverflow, VolumeLayout
from aasim.workloads.getlog import GetLogBench
from aasim.workloads.sortft import SortBench


def small_cfg(**kw):
    base = dict(num_procs=4, ops_per_proc=40, vol_size=1 << 12, seed=1)
    base.update(kw)
    return SimConfig(**base)


# -- key generation ----------------------------------------------------------


def test_placement_matches_hash_parts():
    rng = random.Random(7)
    for _ in range(200):
        key = rng.getrandbits(64)
        h = keys.hash64(key)
        owner, bucket = keys.placement(key, 8, 2048)
        assert owner == keys.owner_of(h, 8)
        assert bucket == keys.bucket_of(h, 2048)
        assert 0 <= owner < 8 and 0 <= bucket < 2048


def test_key_for_lands_on_requested_spot():
    rng = random.Random(3)
    used = set()
    for owner in range(4):
        for bucket in (0, 1, 513, 2047):
            key = keys.key_for(rng, owner, bucket, 4, 2048, used)
            assert keys.placement(key, 4, 2048) == (owner, bucket)
            assert key not in used
            used.add(key)


def _quota(out, procs, table_size):
    """Keys aimed at a spot already used: every key but the first per spot."""
    return len(out) - len({keys.placement(k, procs, table_size) for k in out})


def test_key_stream_hits_collision_ratio_exactly():
    out = keys.collision_keys(random.Random(5), 4, 2048, 0.25, 1000)
    assert len(set(out)) == 1000
    assert _quota(out, 4, 2048) == 250


def test_key_stream_zero_ratio_never_collides():
    out = keys.collision_keys(random.Random(5), 4, 2048, 0.0, 300)
    assert _quota(out, 4, 2048) == 0


def test_collision_keys_past_the_free_spots_fail_fast():
    # Three fresh keys cannot find a third free spot among two.
    with pytest.raises(ConfigError, match="fresh keys"):
        keys.collision_keys(random.Random(1), 1, 2, 0.0, 3)


# The key helpers as they were before their loops were tightened: a
# reference for the exact keys and random draws of every stream.


def _ref_key_for(rng, owner, bucket, procs, table_size, used_keys):
    while True:
        r = rng.getrandbits(64)
        h = (r - (r % table_size) + bucket) & keys.MASK64
        if keys.owner_of(h, procs) != owner:
            continue
        key = (h * keys.FIB_INV) & keys.MASK64
        if key and key not in used_keys:
            return key


def _ref_fresh_key(rng, procs, table_size, used_buckets, used_keys):
    while True:
        key = rng.getrandbits(64)
        if not key or key in used_keys:
            continue
        spot = keys.placement(key, procs, table_size)
        if spot not in used_buckets:
            return key, spot


def _ref_stream(rng, procs, table_size, r_cols, count):
    """(keys, collisions) of collision_keys, one key at a time."""
    used, used_set, used_keys, out, collisions = [], set(), set(), [], 0
    for issued in range(count):
        if int((issued + 1) * r_cols) > int(issued * r_cols) and used:
            owner, bucket = used[rng.randrange(len(used))]
            key = _ref_key_for(rng, owner, bucket, procs, table_size, used_keys)
            collisions += 1
        else:
            key, spot = _ref_fresh_key(rng, procs, table_size, used_set, used_keys)
            used.append(spot)
            used_set.add(spot)
        used_keys.add(key)
        out.append(key)
    return out, collisions


# (procs, table size). Five procs are not a power of two; one proc owns
# every bucket.
STREAM_SHAPES = ((8, 1 << 20), (3, 256), (5, 1 << 20), (1, 1 << 12))


@pytest.mark.parametrize("r_cols", [0.0, 0.25, 0.9])
@pytest.mark.parametrize("seed", [1, 7, 1009])
def test_key_stream_matches_reference_draw_for_draw(seed, r_cols):
    for procs, table_size in STREAM_SHAPES:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = keys.collision_keys(rng, procs, table_size, r_cols, 500)
        want, collisions = _ref_stream(ref_rng, procs, table_size, r_cols, 500)
        assert got == want
        assert _quota(got, procs, table_size) == collisions
        assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("seed", [2, 11, 1009])
def test_key_for_matches_reference_draw_for_draw(seed):
    for procs, table_size in ((3, 256), (5, 1 << 20)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        used = set()
        for owner, bucket in itertools.product(range(procs), (0, 1, table_size - 1)):
            key = keys.key_for(rng, owner, bucket, procs, table_size, used)
            assert key == _ref_key_for(ref_rng, owner, bucket, procs, table_size, used)
            used.add(key)
        assert rng.getstate() == ref_rng.getstate()


def test_forced_collision_keys_share_one_bucket():
    out = forced_collision_keys(random.Random(9), 50, 2, 17, 4, 2048)
    assert len(set(out)) == 50
    assert {keys.placement(k, 4, 2048) for k in out} == {(2, 17)}


def test_zipf_trace_is_deterministic_and_in_range():
    a = iotlb.zipf_page_trace(random.Random(11), 64, 500, loops=2)
    b = iotlb.zipf_page_trace(random.Random(11), 64, 500, loops=2)
    assert a == b
    assert len(a) == 1000
    assert all(0 <= p < 64 for p in a)


# -- hashtable insert paths --------------------------------------------------


def test_rma_insert_op_counts():
    counts = insert_remote_ops(small_cfg(scheme="rma", num_procs=2, ops_per_proc=12))
    assert counts[0] == 1  # empty bucket: the cas alone
    assert all(6 <= n <= 8 for n in counts[1:])


def test_aa_insert_is_always_one_op():
    counts = insert_remote_ops(small_cfg(scheme="aa-poll", num_procs=2, ops_per_proc=12))
    assert counts == [1] * 12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_matches_sequential_oracle(scheme):
    cfg = small_cfg(scheme=scheme, r_cols=0.3)
    bench = dht.DhtBench(cfg)
    metrics = bench.run()
    for rank in range(cfg.num_procs):
        assert bench.contents(rank) == bench.oracle_contents(rank)
    assert metrics.ops == cfg.num_procs * cfg.ops_per_proc


@pytest.mark.parametrize("scheme", ("aa-poll", "rma"))
def test_delete_phase_matches_oracle(scheme):
    cfg = small_cfg(scheme=scheme, r_cols=0.3)
    bench = dht.DhtBench(cfg, delete_fraction=0.25)
    bench.run()
    deleted = sum(1 for ops in bench.plan for (kind, _k) in ops if kind == "delete")
    assert deleted > 0
    for rank in range(cfg.num_procs):
        assert bench.contents(rank) == bench.oracle_contents(rank)


@pytest.mark.parametrize("scheme", ("aa-poll", "rma"))
def test_deleting_every_key_empties_tables_and_reference(scheme):
    cfg = small_cfg(scheme=scheme, r_cols=0.3)
    bench = dht.DhtBench(cfg, delete_fraction=1.0)
    bench.run()
    for rank in range(cfg.num_procs):
        assert not bench.contents(rank)
        assert not bench.oracle_contents(rank)


@pytest.mark.parametrize("scheme", ("aa-poll", "rma"))
def test_reference_keeps_duplicates_and_deletes_every_copy(scheme):
    # A hand-made plan: rank 0 inserts two keys of rank 1 twice each and
    # one key of its own, then deletes one of rank 1's keys.
    cfg = small_cfg(scheme=scheme, num_procs=2)
    bench = dht.DhtBench(cfg.replace(ops_per_proc=0))
    rng, used = random.Random(3), set()
    kept, gone, own = (keys.key_for(rng, o, 5, 2, bench.table_size, used) for o in (1, 1, 0))
    inserts = [("insert", k) for k in (kept, gone, own, kept, gone)]
    bench.plan = [inserts + [("delete", gone)], []]
    bench.run()
    assert bench.oracle_contents(1) == Counter({kept: 2}) == bench.contents(1)
    assert bench.oracle_contents(0) == Counter({own: 1}) == bench.contents(0)


def test_forced_keys_land_at_rank_1_alone():
    cfg = small_cfg(scheme="aa-poll")
    bench = dht.DhtBench(cfg, keys=forced_keys(cfg))
    # Ranks given no keys are not sources: only rank 0's ops run.
    assert bench.plan[1:] == [[], [], []]
    metrics = bench.run()
    assert metrics.ops == cfg.ops_per_proc
    # One bucket: every insert after the first collides.
    assert metrics.collisions == cfg.ops_per_proc - 1
    planned = Counter(key for _kind, key in bench.plan[0])
    assert len(planned) == cfg.ops_per_proc
    assert bench.oracle_contents(1) == planned == bench.contents(1)
    for rank in (0, 2, 3):
        assert not bench.oracle_contents(rank)
        assert not bench.contents(rank)


def test_aa_int_ring_smaller_than_the_batch_reaches_quiescence():
    # A 64 B ring holds two 32 B records, far below the batch of 10 records
    # per interrupt; the holdoff raises the interrupt while the apps still
    # run, so the ring drains and every insert lands.
    cfg = small_cfg(scheme="aa-int", num_procs=2, ops_per_proc=20, access_log_size=64)
    bench = dht.DhtBench(cfg)
    metrics = bench.run()
    assert metrics.records_consumed == 40
    for rank in range(cfg.num_procs):
        assert bench.contents(rank) == bench.oracle_contents(rank)


def test_a_ring_keeps_its_bytes_out_of_the_node_memory():
    # The run deletes nothing, so each rank's delete log never reserves.
    bench = dht.DhtBench(small_cfg(scheme="aa-sp", num_procs=3, ops_per_proc=30))
    assert bench.run().records_consumed == 90
    for proc in bench.sim.procs:
        insert_log, delete_log = proc.iommu.alogs
        assert insert_log._ring is not None and delete_log._ring is None
        for log in proc.iommu.alogs:
            base, span = proc.memory.region("log%d" % log.iuid)
            first, end = base >> LINE_SHIFT, (base + span) >> LINE_SHIFT
            assert not any(first <= line < end for line in proc.memory._lines)


# The six small seed-1 runs at default costs; tests/exact.json pins each
# one's outcome and event count as "small <workload>".
SMALL_RUNS = ["aa-int", "aa-poll", "aa-sp", "am", "getlog-aa", "rma"]


@pytest.mark.parametrize("workload", SMALL_RUNS)
def test_event_counts_are_pinned(exact, workload):
    lines = exact("small " + workload)
    assert not lines, "\n".join(lines)


def _run_recording_sweeps(bench):
    """Run bench; returns its metrics and (time, drained) for every sweep."""
    sim = bench.sim
    drained = sim.drained
    sweeps = []

    def recording():
        result = drained()
        sweeps.append((sim.engine.now, result))
        return result

    sim.drained = recording
    return bench.run(), sweeps


@pytest.mark.parametrize("workload", SMALL_RUNS)
def test_run_ends_on_the_sweep_that_finds_quiescence(workload):
    if workload == "getlog-aa":
        bench = GetLogBench(small_cfg(num_procs=2), "aa", n_gets=60)
    else:
        bench = dht.DhtBench(small_cfg(scheme=workload, r_cols=0.3))
    metrics, sweeps = _run_recording_sweeps(bench)
    now = bench.sim.engine.now
    assert sweeps[-1] == (now, True)
    assert not any(found for _t, found in sweeps[:-1])
    assert 0 <= now - metrics.sim_time_ns <= SWEEP_INTERVAL_NS


def test_am_run_waits_for_a_handler_a_sweep_falls_inside():
    # Handlers longer than the sweep interval: the last message stays in the
    # inbox until its handler returns, so the sweeps inside that handler do
    # not find the run quiescent.
    cost = 2500.0
    cfg = small_cfg(scheme="am", r_cols=0.3, handler_cost_ns=cost)
    bench = dht.DhtBench(cfg)
    metrics, sweeps = _run_recording_sweeps(bench)
    assert any(
        metrics.sim_time_ns - cost < t < metrics.sim_time_ns and not found for t, found in sweeps
    )
    assert metrics.handler_invocations == metrics.ops == 160
    for rank in range(cfg.num_procs):
        assert bench.contents(rank) == bench.oracle_contents(rank)
    # Pinned: the last handler ends at 189,600 ns.
    row = metrics.as_row(cfg)
    assert (row["remote_ops"], row["bytes_wire"], row["sim_time_ns"]) == (160, 5120, 189600.0)


def test_bench_measures_target_collision_ratio():
    cfg = small_cfg(scheme="aa-poll", r_cols=0.25, ops_per_proc=100)
    bench = dht.DhtBench(cfg)
    metrics = bench.run()
    # Each source's keys are drawn again from its seed.
    quotas = 0
    for rank in range(cfg.num_procs):
        drawn = keys.collision_keys(
            bench.sim.rng_for(3, rank), cfg.num_procs, bench.table_size, cfg.r_cols, cfg.ops_per_proc
        )
        assert drawn == [key for _, key in bench.plan[rank]]
        quotas += _quota(drawn, cfg.num_procs, bench.table_size)
    assert abs(metrics.collisions / (cfg.num_procs * cfg.ops_per_proc) - 0.25) <= 1.0 / 100
    # Collisions count every insert onto an occupied spot, whichever source
    # took it first, so they include each source's quota.
    inserts = [key for ops in bench.plan for kind, key in ops if kind == "insert"]
    assert metrics.collisions == _quota(inserts, cfg.num_procs, bench.table_size) > 0
    assert metrics.collisions >= quotas


def test_lookup_returns_bucket_head_or_empty():
    from aasim.sim import Simulation

    cfg = small_cfg(num_procs=2)
    sim = Simulation(cfg)
    owner = sim.procs[0]
    layout = dht.build_volume(owner, cfg.vol_size)
    table_size = layout.table_size
    for addr in range(layout.base, layout.base + layout.volume_bytes, PAGE_SIZE):
        owner.map_plain(addr, w=True, r=True)
    rng = random.Random(2)
    present = keys.key_for(rng, 0, 5, 2, table_size, set())
    absent = keys.key_for(rng, 0, 9, 2, table_size, {present})
    dht.local_insert(owner.memory, layout, present)
    seen = {}

    def lookup(proc, key):
        # One get of the bucket cell; chain chasing is out of scope.
        pos = keys.bucket_of(keys.hash64(key), layout.table_size)
        handle = yield from proc.get(0, layout.elem_addr(pos), 8)
        yield from handle.wait()
        return int.from_bytes(handle.data, "little")

    def app(proc):
        seen["present"] = yield from lookup(proc, present)
        seen["absent"] = yield from lookup(proc, absent)

    sim.add_app(1, app(sim.procs[1]))
    sim.run()
    assert seen["present"] == present
    assert seen["absent"] == dht.EMPTY


def test_bulk_extract_matches_word_by_word_read():
    bench = dht.DhtBench(small_cfg(r_cols=0.25), delete_fraction=0.25)
    bench.run()
    for rank, proc in enumerate(bench.sim.procs):
        layout = bench.layouts[rank]
        words = (proc.memory.read_word(layout.elem_addr(i)) for i in range(layout.vol_size))
        reference = Counter(w for w in words if w != dht.EMPTY)
        assert dht.extract_contents(proc.memory, layout) == reference
        assert reference
        # Both kinds of page, so extract_contents skips some and reads some.
        page_is_empty = {
            proc.memory.read(addr, PAGE_SIZE) == bytes(PAGE_SIZE)
            for addr in range(layout.base, layout.base + layout.volume_bytes, PAGE_SIZE)
        }
        assert page_is_empty == {True, False}


def test_heap_overflow_raises():
    mem = PhysMemory(0)
    layout = VolumeLayout(0, 0, 16)
    layout.base = mem.reserve_region("volume", layout.volume_bytes)
    layout.meta_base = mem.reserve_region("volmeta", layout.meta_bytes)
    mem.write_word(layout.next_free_addr, 8)
    colliders = forced_collision_keys(random.Random(1), 10, 0, 3, 1, 8)
    with pytest.raises(DhtOverflow):
        for key in colliders:
            dht.local_insert(mem, layout, key)


@pytest.mark.parametrize("scheme,kw", [
    ("aa-poll", {"delete_fraction": 0.25}),
    ("rma", {"delete_fraction": 0.25}),
    ("am", {}),
    ("aa-sp", {"keys": iotlb.hot_owner_keys(small_cfg(ops_per_proc=300))}),
    ("aa-int", {"keys": forced_keys(small_cfg(ops_per_proc=300))}),
])
def test_overflow_cells_match_heap_use(scheme, kw):
    bench = dht.DhtBench(small_cfg(scheme=scheme, r_cols=0.6, ops_per_proc=300), **kw)
    metrics = bench.run()
    used = [
        proc.memory.read_word(layout.next_free_addr) - bench.table_size
        for proc, layout in zip(bench.sim.procs, bench.layouts)
    ]
    assert bench.overflow_cells() == used
    assert max(used) > 0
    assert metrics.collisions == sum(used) == sum(bench.overflow_cells())


@pytest.mark.parametrize("scheme", ("rma", "am"))
def test_plan_that_fills_the_heap_runs_and_one_more_insert_is_rejected(scheme):
    cfg = small_cfg(scheme=scheme, num_procs=2, vol_size=64)  # 32 heap cells
    full_cfg, over_cfg = cfg.replace(ops_per_proc=33), cfg.replace(ops_per_proc=34)
    full = dht.DhtBench(full_cfg, keys=forced_keys(full_cfg))
    assert full.overflow_cells() == [0, 32]
    full.run()
    with pytest.raises(ConfigError, match="overflow cells"):
        dht.DhtBench(over_cfg, keys=forced_keys(over_cfg))


def test_key_source_past_ops_per_proc_is_bound_by_the_heap():
    # 34 keys into one bucket of a 32-cell heap, with ops_per_proc of 1.
    cfg = small_cfg(scheme="rma", num_procs=2, ops_per_proc=1, vol_size=64)

    def source(rng, rank, table_size):
        return forced_collision_keys(rng, 34, 1, 7, 2, table_size) if rank == 0 else []

    with pytest.raises(ConfigError, match="overflow cells"):
        dht.DhtBench(cfg, keys=source)


@pytest.mark.parametrize("fraction,inserts,deleted", [
    (0.3, 100, 30), (0.6, 100, 60), (0.7, 100, 70),
    # 30 * 0.1 is 3.0000000000000004 in binary doubles; the rule takes 1/10.
    (0.1, 30, 3),
])
def test_delete_fraction_deletes_the_ceiling_evenly_from_the_first(fraction, inserts, deleted):
    cfg = small_cfg(scheme="aa-poll", num_procs=2, ops_per_proc=inserts)
    bench = dht.DhtBench(cfg, delete_fraction=fraction)
    for ops in bench.plan:
        keys_in = [key for kind, key in ops if kind == "insert"]
        gone = [key for kind, key in ops if kind == "delete"]
        assert len(keys_in) == inserts and len(gone) == deleted
        # Insert floor(m / f) for m = 0, 1, ...: the first, then every 1/f.
        step = 1 / Fraction(str(fraction))
        assert gone == [keys_in[int(m * step)] for m in range(deleted)]


# -- access counting ---------------------------------------------------------


def test_counter_logging_counts_with_no_extra_ops():
    bench = CounterBench(small_cfg(), "aa", n_pages=8, accesses=120)
    bench.run()
    assert bench.counts == bench.expected_counts()
    assert bench.extra_remote_ops() == 0


def test_counter_atomics_pay_one_op_per_access():
    bench = CounterBench(small_cfg(), "rma-atomics", n_pages=8, accesses=120)
    bench.run()
    assert bench.counts == bench.expected_counts()
    assert bench.extra_remote_ops() == 120


def test_counter_gather_pays_per_source():
    cfg = small_cfg()
    bench = CounterBench(cfg, "allreduce", n_pages=8, accesses=120)
    bench.run()
    assert bench.counts == bench.expected_counts()
    assert bench.extra_remote_ops() == 2 * (cfg.num_procs - 1)


@pytest.mark.parametrize("pages", (257, 300))
@pytest.mark.parametrize("variant", ("rma-atomics", "allreduce"))
def test_counter_words_past_one_page(variant, pages):
    # Counter words take 16 B per counted page, so past 256 pages they
    # fill a second page; each gather source puts its vector a page a time.
    cfg = small_cfg()
    bench = CounterBench(cfg, variant, n_pages=pages, accesses=120)
    bench.run()
    assert bench.counts == bench.expected_counts()
    if variant == "rma-atomics":
        assert bench.extra_remote_ops() == 120
    else:  # two vector pages and one more fence per source
        assert bench.extra_remote_ops() == 3 * (cfg.num_procs - 1)


# -- get logging -------------------------------------------------------------


def test_getlog_variants_recover_fetched_sequence():
    cfg = small_cfg(num_procs=2)
    for variant in ("aa", "sendback"):
        bench = GetLogBench(cfg.replace(), variant, n_gets=60)
        bench.run()
        assert len(bench.fetched_values()) == 60 * 8  # the 8-byte values, joined
        assert bench.replayed() == bench.fetched_values()


@pytest.mark.parametrize("variant", ["aa", "sendback"])
def test_getlog_run_keeps_at_most_32_bytes_per_get(variant):
    # What stays allocated after a run: the values each side keeps and, under
    # sendback, the send log's simulated memory. The access log's ring is
    # backed at its first record whatever the number of gets, so it is kept
    # at one page here.
    n_gets = 2000
    bench = GetLogBench(small_cfg(num_procs=2, access_log_size=PAGE_SIZE), variant, n_gets=n_gets)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bench.run()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 32 * n_gets
    assert bench.replayed() == bench.fetched_values()


def test_getlog_payload_accounting_is_exact():
    out = run_variants(GetLogBench, small_cfg(num_procs=2), n_gets=60)
    base = out["no-ft"][1].bytes_payload
    assert out["aa"][1].bytes_payload == base
    assert out["sendback"][1].bytes_payload == 2 * base


def _ref_getlog_plan(rng, n_gets):
    return [rng.randrange(0, 2047) * 8 for _ in range(n_gets)]


# An 11-bit draw of 2047 is rejected and drawn again: once in seed 7's first
# 200 draws and twice in seed 1's first 5,000, so those two cases cover the
# retry path.
@pytest.mark.parametrize("seed,n_gets", [(1, 0), (1, 1), (7, 200), (1, 5000)])
def test_getlog_plan_matches_randrange_draw_for_draw(seed, n_gets):
    bench = GetLogBench(small_cfg(num_procs=2, seed=seed), "aa", n_gets=n_gets)
    rng = bench.sim.rng_for(4)
    assert bench.addr_plan == _ref_getlog_plan(rng, n_gets)
    # The data region is drawn after the plan, so it checks the rng's state.
    span = 4 * PAGE_SIZE
    assert bench.sim.procs[0].memory.read(bench.region, span) == rng.randbytes(span)


# -- checkpointing -----------------------------------------------------------


def test_checkpoint_dirty_sets_are_exact():
    bench = CheckpointBench(small_cfg(), n_pages=64, epochs=3, writes_per_source=20)
    bench.run()
    assert bench.snapshots == bench.expected()


def test_checkpoint_quiet_epoch_is_empty():
    bench = CheckpointBench(small_cfg(num_procs=2), n_pages=32, epochs=2, writes_per_source=0)
    bench.local_sets = [set() for _ in range(2)]
    bench.run()
    assert bench.snapshots == [set(), set()]


# -- sorting -----------------------------------------------------------------


def test_sort_output_matches_oracle_under_all_variants():
    cfg = small_cfg()
    for variant in ("no-ft", "aa", "sendback"):
        bench = SortBench(cfg.replace(), variant, total_words=1 << 12)
        bench.run()
        assert bench.merged() == bench.oracle()


class Draws(random.Random):
    """A Random whose getrandbits returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def getrandbits(self, k):
        return next(self._values)


def test_sort_fetches_an_empty_slice(monkeypatch):
    # Rank 0 holds 0..511 and rank 1 holds 2**31 upward, so the one splitter
    # (255) leaves rank 1 nothing to send to rank 0.
    rng_for = Simulation.rng_for
    monkeypatch.setattr(
        Simulation,
        "rng_for",
        lambda sim, stream, idx=0: (
            Draws([*range(512), *range(1 << 31, (1 << 31) + 512)]) if stream == 4
            else rng_for(sim, stream, idx)
        ),
    )
    for variant in ("no-ft", "aa", "sendback"):
        bench = SortBench(small_cfg(num_procs=2), variant, total_words=1024)
        assert bench.ranges[1][0] == (0, 0)
        bench.run()
        assert bench.merged() == bench.oracle()


def test_sort_energy_follows_bytes():
    out = run_variants(SortBench, small_cfg(), total_words=1 << 12)
    m = {v: out[v][1] for v in out}
    assert m["aa"].bytes_wire == m["no-ft"].bytes_wire
    assert m["aa"].energy_j == m["no-ft"].energy_j
    assert m["sendback"].energy_j > m["aa"].energy_j


# -- streaming and translation caches ---------------------------------------


def test_stream_bridge_overhead_is_small():
    cfg = small_cfg(num_procs=2)
    on, off = bandwidth_pair(cfg, n_puts=128)
    assert abs(on - off) / off <= 0.05


def test_stream_run_exercises_translation():
    bench = stream.StreamBench(small_cfg(num_procs=2), n_puts=128)
    metrics = bench.run()
    assert metrics.iotlb_hits + metrics.iotlb_misses > 0
    assert metrics.iotlb_hits > metrics.iotlb_misses


def test_hit_rate_sweep_prefers_lru():
    rows = iotlb.sweep_hit_rates(seed=1)
    rates = {(s, a, p): r for (s, a, p, r) in rows}
    assert len(rows) == 32
    for (size, assoc, policy), rate in rates.items():
        if policy == "lru":
            assert rate >= rates[(size, assoc, "rnd")]


def test_full_assoc_beats_four_way_on_hot_set():
    cfg = SimConfig(num_procs=4, vol_size=1 << 13, seed=10, iotlb_size=8)
    rate_full, m_full = insert_rate(cfg, "full", ops=200)
    rate_4way, m_4way = insert_rate(cfg, 4, ops=200)
    assert m_full.iotlb_misses <= m_4way.iotlb_misses
    assert rate_full >= rate_4way


@pytest.mark.parametrize(
    "build",
    [
        lambda cfg: CounterBench(cfg, "aa", 0, 1),
        lambda cfg: GetLogBench(cfg, "aa", -1),
        lambda cfg: CheckpointBench(cfg, 0, 1, 1),
        lambda cfg: SortBench(cfg, "aa", total_words=3),
        lambda cfg: dht.DhtBench(cfg, delete_fraction=2.0),
        lambda cfg: stream.StreamBench(cfg, n_puts=-1),
    ],
    ids=["counter", "getlog", "checkpoint", "sortft", "dht", "stream"],
)
def test_every_workload_validates_its_config_first(build):
    with pytest.raises(ConfigError, match="credit_capacity must be >= 1"):
        build(SimConfig(credit_capacity=0))
