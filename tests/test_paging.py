import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aasim.paging import (
    GET,
    PUT,
    AddressTranslator,
    IotlbCache,
    PageTable,
    PagingError,
    Pte,
    classify,
)


def frame_of(run, vpn):
    """The frame a mapped run puts page vpn on."""
    return ((vpn << 12) + run.offset) >> 12


def bits_pte(w=0, r=0, wl=0, wld=0, rl=0, rld=0, e=0, iuid=0, frame=1):
    return Pte(
        frame=frame,
        w=bool(w),
        r=bool(r),
        wl=bool(wl),
        wld=bool(wld),
        rl=bool(rl),
        rld=bool(rld),
        e=bool(e),
        iuid=iuid,
    )


# -- classification -------------------------------------------------------


def test_active_put_page():
    acts = classify(bits_pte(w=0, wl=1, wld=1, e=1, iuid=7), PUT)
    assert not acts.memory_effect
    assert acts.log_meta and acts.log_data
    assert acts.to_access_log and acts.iuid == 7


def test_legacy_fault_page():
    acts = classify(bits_pte(w=0, wl=1, wld=0, e=0), PUT)
    assert not acts.memory_effect
    assert acts.log_meta and not acts.log_data
    assert not acts.to_access_log


def test_statistics_page():
    acts = classify(bits_pte(w=1, wl=1, e=1), PUT)
    assert acts.memory_effect and acts.log_meta and not acts.log_data


def test_get_logging_page():
    acts = classify(bits_pte(r=1, rl=1, rld=1, e=1), GET)
    assert acts.memory_effect and acts.log_meta and acts.log_data


def test_blocked_get_never_logs_data():
    acts = classify(bits_pte(r=0, rl=1, rld=1, e=1), GET)
    assert not acts.memory_effect
    assert acts.log_meta
    assert not acts.log_data


def test_plain_pages():
    assert not classify(bits_pte(w=1), PUT).log_meta
    assert not classify(bits_pte(r=1), GET).log_meta
    assert not classify(bits_pte(), PUT).memory_effect


def test_classify_total_and_consistent():
    # every raw bit combination classifies without error and obeys the
    # structural rules
    for combo in itertools.product((0, 1), repeat=7):
        w, r, wl, wld, rl, rld, e = combo
        pte = bits_pte(w, r, wl, wld, rl, rld, e)
        for kind in (PUT, GET):
            acts = classify(pte, kind)
            if acts.log_data:
                assert acts.log_meta
            if kind == GET and acts.log_data:
                assert acts.memory_effect
            if acts.log_meta:
                assert acts.to_access_log == bool(e)


def test_classify_rejects_unknown_kind():
    with pytest.raises(PagingError):
        classify(bits_pte(w=1), "swizzle")


# -- pte fields -----------------------------------------------------------


def test_pte_normalization_implies_meta_bits():
    # A run mapped from data-logging bits alone is logged for both kinds.
    table = PageTable()
    table.map_range(0x5000, bits_pte(r=1, wld=1, rld=1, e=1, iuid=2, frame=5))
    run, _ = table.lookup(5)
    assert run.acts[PUT].log_meta and run.acts[PUT].log_data
    assert run.acts[GET].log_meta and run.acts[GET].log_data


def test_iuid_range_checked():
    with pytest.raises(PagingError):
        bits_pte(iuid=1024)
    bits_pte(iuid=1023)


# -- page table -----------------------------------------------------------


def test_walk_cost_is_four_levels():
    table = PageTable()
    table.map_range(0x5000, bits_pte(w=1, frame=9))
    run, cost = table.lookup(5)
    assert frame_of(run, 5) == 9
    assert cost == 4


def test_unmapped_cost_counts_levels_visited():
    table = PageTable()
    assert table.lookup(5) == (None, 1)
    table.map_range(0x5000, bits_pte(w=1, frame=5))
    # same leaf table, different slot: all four levels visited
    assert table.lookup(6) == (None, 4)


def test_map_range_crosses_leaf_tables():
    table = PageTable()
    table.map_range(500 << 12, bits_pte(w=1, wld=1, iuid=7, frame=900), pages=1030)
    assert table.lookup(499) == (None, 4)
    assert table.lookup(1530) == (None, 4)
    want = bits_pte(w=1, wld=1, iuid=7)
    for vpn in (500, 511, 512, 1023, 1024, 1529):
        run, cost = table.lookup(vpn)
        assert frame_of(run, vpn) == 400 + vpn
        assert run.acts == (classify(want, PUT), classify(want, GET))
        assert cost == 4


def test_map_range_rejects_empty_and_oversized_runs():
    with pytest.raises(PagingError):
        PageTable().map_range(0x5000, bits_pte(w=1), pages=0)
    with pytest.raises(PagingError):
        PageTable().map_range(0x5000, bits_pte(w=1, frame=(1 << 40) - 2), pages=3)


def test_map_requires_alignment():
    with pytest.raises(PagingError):
        PageTable().map_range(0x5001, bits_pte(w=1))


def _depth_of_unmapped(mapped, vpn):
    """Levels a walk of unmapped vpn visits: it stops at the first table
    that no page mapped so far has created."""
    for depth, shift in enumerate((27, 18, 9), 1):
        if not any(page >> shift == vpn >> shift for page in mapped):
            return depth
    return 4


# Run starts near leaf (512-page) and level-3 (2**18-page) table boundaries.
_BOUNDARIES = [0, 1 << 9, 5 << 9, 1 << 18, 3 << 18, (1 << 27) + (1 << 18)]
_runs = st.tuples(
    st.builds(lambda b, off: max(0, b + off), st.sampled_from(_BOUNDARIES), st.integers(-600, 600)),
    st.integers(1, 1100),
    st.integers(0, 1 << 30),
    st.tuples(*[st.booleans()] * 7, st.integers(0, 1023)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_runs, min_size=1, max_size=6),
    st.lists(st.integers(0, (1 << 28) + (1 << 19)), max_size=20),
)
def test_page_table_matches_per_page_reference(runs, probes):
    table = PageTable()
    ref = {}  # vpn -> Pte, each map_range expanded page by page
    for start, pages, frame, (w, r, wl, wld, rl, rld, e, iuid) in runs:
        pte = Pte(frame, w, r, wl, wld, rl, rld, e, iuid)
        table.map_range(start << 12, pte, pages)
        for i in range(pages):
            ref[start + i] = Pte(frame + i, w, r, wl or wld, wld, rl or rld, rld, e, iuid)
    edges = [
        vpn
        for start, pages, _frame, _bits in runs
        for vpn in (start - 1, start, start + pages - 1, start + pages)
    ]
    for vpn in edges + probes:
        if vpn < 0:
            continue
        if vpn in ref:
            run, cost = table.lookup(vpn)
            assert cost == 4 and frame_of(run, vpn) == ref[vpn].frame
            assert run.acts == (classify(ref[vpn], PUT), classify(ref[vpn], GET))
        else:
            assert table.lookup(vpn) == (None, _depth_of_unmapped(ref, vpn))


def test_mapping_a_region_costs_per_leaf_not_per_page():
    table = PageTable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table.map_range(1 << 30, bits_pte(w=1, wld=1, e=1, iuid=3, frame=1 << 18), pages=8192)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 16 leaves of 512 slots sharing one run; a Pte per page would take ~1.5 MiB.
    assert allocated < 256 * 1024
    assert frame_of(table.lookup((1 << 18) + 8191)[0], (1 << 18) + 8191) == (1 << 18) + 8191


# -- iotlb ----------------------------------------------------------------


def test_iotlb_hit_miss_counters():
    tlb = IotlbCache(4, "full", "lru", random.Random(1))
    assert tlb.lookup(3) is None
    tlb.insert(3, bits_pte(w=1, frame=3))
    assert tlb.lookup(3).frame == 3
    assert (tlb.hits, tlb.misses) == (1, 1)


def test_iotlb_lru_evicts_least_recent():
    tlb = IotlbCache(2, "full", "lru", random.Random(1))
    tlb.insert(1, bits_pte(frame=1))
    tlb.insert(2, bits_pte(frame=2))
    tlb.lookup(1)  # 2 is now least recent
    tlb.insert(3, bits_pte(frame=3))
    assert tlb.lookup(2) is None
    assert tlb.lookup(1) is not None
    assert tlb.lookup(3) is not None


def test_iotlb_set_index_is_page_mod_sets():
    tlb = IotlbCache(4, 1, "lru", random.Random(1))  # 4 direct-mapped sets
    tlb.insert(0, bits_pte(frame=10))
    tlb.insert(4, bits_pte(frame=14))  # same set, evicts page 0
    tlb.insert(1, bits_pte(frame=11))  # different set, untouched
    assert tlb.lookup(0) is None
    assert tlb.lookup(4).frame == 14
    assert tlb.lookup(1).frame == 11


def test_iotlb_cyclic_trace_defeats_lru_but_not_rnd():
    # capacity+1 pages looped: LRU evicts exactly the next page needed
    def run(policy, seed):
        tlb = IotlbCache(4, "full", policy, random.Random(seed))
        for _ in range(40):
            for page in range(5):
                if tlb.lookup(page) is None:
                    tlb.insert(page, bits_pte(frame=page))
        return tlb.hits

    assert run("lru", 0) == 0
    assert run("rnd", 0) > 0


def test_iotlb_invalid_config_rejected():
    with pytest.raises(PagingError):
        IotlbCache(4, 3, "lru", random.Random(1))
    with pytest.raises(PagingError):
        IotlbCache(6, 4, "lru", random.Random(1))
    with pytest.raises(PagingError):
        IotlbCache(4, "full", "mru", random.Random(1))


# -- translator -----------------------------------------------------------


def build_translator(capacity=8):
    table = PageTable()
    tlb = IotlbCache(capacity, "full", "lru", random.Random(3))
    tr = AddressTranslator(table, tlb)
    tr.register_device(0)
    return tr


def test_translator_costs_and_caching():
    tr = build_translator()
    tr.map_range(0x3000, bits_pte(w=1, frame=3))
    first = tr.walk(0, 0x3008)
    # context walk (2) + four-level table walk (4)
    assert first.mem_accesses == 6
    assert first.phys == 0x3008
    second = tr.walk(0, 0x3010)
    assert second.mem_accesses == 0
    assert second.phys == 0x3010


def test_translator_fault_on_unmapped():
    tr = build_translator()
    res = tr.walk(0, 0x9000)
    assert res.run is None and res.phys == 0


def test_remap_invalidates_cached_translation():
    tr = build_translator()
    tr.map_range(0x3000, bits_pte(w=1, frame=3))
    tr.walk(0, 0x3000)
    tr.map_range(0x3000, bits_pte(w=1, frame=9))
    res = tr.walk(0, 0x3004)
    assert res.mem_accesses == 4  # re-walk, context already cached
    assert res.phys == 0x9004


def test_range_remap_invalidates_every_cached_page():
    tr = build_translator()
    for page in range(3, 7):
        tr.map_range(page << 12, bits_pte(w=1, frame=page))
        tr.walk(0, page << 12)
    tr.map_range(4 << 12, bits_pte(w=1, frame=40), pages=2)
    assert tr.walk(0, 3 << 12).mem_accesses == 0
    for page in (4, 5):
        res = tr.walk(0, page << 12)
        assert res.mem_accesses == 4
        assert res.phys >> 12 == 36 + page
    assert tr.walk(0, 6 << 12).mem_accesses == 0


def test_long_range_remap_invalidates_cached_pages_inside_it_only():
    tr = build_translator(capacity=4)
    for page in (2, 9, 10, 30):
        tr.map_range(page << 12, bits_pte(w=1, frame=page))
        tr.walk(0, page << 12)
    tr.map_range(8 << 12, bits_pte(w=1, frame=80), pages=20)
    assert [tr.walk(0, page << 12).mem_accesses for page in (2, 9, 10, 30)] == [0, 4, 4, 0]
    assert tr.walk(0, 10 << 12).phys >> 12 == 82


def test_cache_transparency_on_random_traces():
    # cached and uncached translators agree on every result, and a page's
    # run carries the classification of the entry last mapped there
    rng = random.Random(42)
    cached = build_translator(capacity=4)
    plain = PageTable()
    pages = list(range(16))
    ref = {}

    def remap(page):
        pte = bits_pte(*(rng.random() < 0.5 for _ in range(7)), iuid=rng.randrange(4), frame=rng.randrange(1000))
        cached.map_range(page * 4096, pte)
        plain.map_range(page * 4096, pte)
        ref[page] = pte

    for page in pages:
        remap(page)
    for _ in range(500):
        page = rng.choice(pages)
        if rng.random() < 0.1:
            remap(page)
            continue
        got = cached.walk(0, page * 4096 + 8)
        want, _ = plain.lookup(page)
        assert got.run == want
        assert got.phys == (ref[page].frame << 12) + 8
        for kind in (PUT, GET):
            assert got.run.acts[kind] == classify(ref[page], kind)
