import math
import sys

import pytest

from aasim import iommu, runtime
from aasim.config import SimConfig
from aasim.link import OversizeError
from aasim.logbuf import record_size
from aasim.memory import PAGE_SIZE
from aasim.paging import PUT
from aasim.runtime import INTERRUPT_HOLDOFF_NS, NodeError, Proc
from aasim.sim import SWEEP_INTERVAL_NS, DeadlockError, Simulation
from aasim.workloads.getlog import GetLogBench


def small_cfg(**kw):
    base = dict(num_procs=2, access_log_size=4096, vol_size=4096)
    base.update(kw)
    return SimConfig(**base)


def run_app(sim, gen, rank=0):
    sim.add_app(rank, gen)
    return sim.run()


def test_plain_put_lands_and_counts_bytes():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)
    out = {}

    def app(proc):
        for i in range(10):
            handle = yield from proc.put(1, base + 8 * i, bytes([i]) * 8)
            yield from handle.wait()
            out.setdefault("statuses", []).append(handle.status)

    metrics = run_app(sim, app(sim.procs[0]))
    assert out["statuses"] == ["ok"] * 10
    assert target.memory.read(base, 16) == bytes([0]) * 8 + bytes([1]) * 8
    assert metrics.remote_ops == 10
    assert metrics.bytes_wire == 10 * (8 + 24)
    assert metrics.records_committed == 0


def test_put_split_into_max_payload_packets():
    sim = Simulation(small_cfg(max_payload=256))
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)
    payload = bytes(range(256)) * 4

    def app(proc):
        handle = yield from proc.put(1, base, payload)
        yield from handle.wait()

    metrics = run_app(sim, app(sim.procs[0]))
    assert target.memory.read(base, 1024) == payload
    assert metrics.packets == 4
    assert metrics.bytes_wire == 1024 + 4 * 24


def test_get_returns_remote_data():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, r=True)
    target.memory.write(base, b"remote-bytes-here")
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 12)
        yield from handle.wait()
        out["data"] = handle.data

    run_app(sim, app(sim.procs[0]))
    assert out["data"] == b"remote-bytes"


def test_blocked_get_completes_with_status():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)  # readable bit left clear
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 8)
        yield from handle.wait()
        out["status"] = handle.status

    run_app(sim, app(sim.procs[0]))
    assert out["status"] == "blocked"


def test_unmapped_put_goes_to_fault_log():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    target.memory.reserve_region("data", PAGE_SIZE)
    out = {}

    def app(proc):
        handle = yield from proc.put(1, 1 << 20, b"x" * 8)
        yield from handle.wait()
        out["status"] = handle.status

    metrics = run_app(sim, app(sim.procs[0]))
    assert out["status"] == "fault"
    assert metrics.fault_entries == 1
    assert len(target.iommu.fault_log.entries) == 1
    assert target.iommu.fault_log.entries[0].blocked


def test_active_put_runs_handler_without_memory_effect():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    seen = []

    def handler(ctx, rec):
        seen.append((rec.device_id, rec.dev_addr, rec.payload))

    iuid = target.register_handler(handler, log_size=4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)
    before = target.memory.read(base, 8)

    def app(proc):
        handle = yield from proc.put(1, base + 16, b"ACTIVE!!")
        yield from handle.wait()
        assert handle.status == "ok"

    metrics = run_app(sim, app(sim.procs[0]))
    assert seen == [(0, base + 16, b"ACTIVE!!")]
    assert target.memory.read(base, 8) == before  # page untouched
    assert metrics.records_committed == 1
    assert metrics.records_consumed == 1
    assert metrics.handler_invocations == 1


def test_legacy_fault_page_logs_metadata_only():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, 0, wl=True)  # e left clear: fault-log path

    def app(proc):
        handle = yield from proc.put(1, base, b"y" * 8)
        yield from handle.wait()

    metrics = run_app(sim, app(sim.procs[0]))
    assert metrics.fault_entries == 1
    entry = target.iommu.fault_log.entries[0]
    assert entry.length == 8 and not entry.data_present


def test_statistics_page_has_both_effects():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    counted = []
    iuid = target.register_handler(lambda ctx, rec: counted.append(rec.dev_addr), 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, w=True, wl=True, e=True)

    def app(proc):
        handle = yield from proc.put(1, base, b"Z" * 8)
        yield from handle.wait()

    run_app(sim, app(sim.procs[0]))
    assert counted == [base]
    assert sim.procs[1].memory.read(base, 8) == b"Z" * 8


def test_logged_get_copies_returned_data():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    got_records = []

    def handler(ctx, rec):
        got_records.append(rec)

    iuid = target.register_handler(handler, 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, r=True, rl=True, rld=True, e=True)
    target.memory.write(base, b"watchedpayload!!")
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 16)
        yield from handle.wait()
        out["data"] = handle.data

    run_app(sim, app(sim.procs[0]))
    assert out["data"] == b"watchedpayload!!"
    assert len(got_records) == 1
    rec = got_records[0]
    assert rec.payload == b"watchedpayload!!"
    assert rec.op_kind == 1 and rec.device_id == 0


def test_multi_packet_logged_get_copies_every_completion():
    sim = Simulation(small_cfg(max_payload=256))
    target = sim.procs[1]
    records = []
    iuid = target.register_handler(lambda ctx, rec: records.append(rec), 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, r=True, rl=True, rld=True, e=True)
    data = bytes(i % 251 for i in range(600))  # three completions
    target.memory.write(base, data)
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 600)
        yield from handle.wait()
        out["data"] = handle.data

    metrics = run_app(sim, app(sim.procs[0]))
    assert out["data"] == data
    assert [rec.payload for rec in records] == [data]
    assert records[0].data_present and records[0].length == 600
    assert not target.iommu.tag_buffer
    # one request plus three completions on the wire
    assert metrics.packets == 4


def test_metadata_logged_get_returns_data_and_logs_no_payload():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    records = []
    iuid = target.register_handler(lambda ctx, rec: records.append(rec), 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, r=True, rl=True, e=True)
    target.memory.write(base, b"metadata-only!!!")
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 16)
        yield from handle.wait()
        out["data"] = handle.data

    run_app(sim, app(sim.procs[0]))
    assert out["data"] == b"metadata-only!!!"
    assert len(records) == 1
    rec = records[0]
    assert not rec.data_present and not rec.blocked
    assert rec.length == 16 and rec.payload is None
    assert not target.iommu.tag_buffer


def test_metadata_logged_get_commits_before_its_fetch_is_spawned():
    # With the scratchpad as fast as memory, the consumer's wake-up (set by
    # the commit) and the read's data fetch fall on the same nanosecond; the
    # record is marked done before the read is spawned, so the wake-up is
    # queued first and runs first.
    cfg = small_cfg(scheme="aa-sp")
    cfg = cfg.replace(scratchpad_ns=cfg.mem_access_ns)
    sim = Simulation(cfg)
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None, 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, r=True, rl=True, e=True)
    seen = []
    wake, read = target._wake.fire, target.memory.read

    def fire():
        seen.append(("wake", sim.engine.now))
        wake()

    def fetch(addr, length):
        if addr == base:
            seen.append(("fetch", sim.engine.now))
        return read(addr, length)

    target._wake.fire = fire
    target.memory.read = fetch

    def app(proc):
        handle = yield from proc.get(1, base, 8)
        yield from handle.wait()

    run_app(sim, app(sim.procs[0]))
    (first, at), (second, at_too) = seen[:2]
    assert (first, second) == ("wake", "fetch")
    assert at == at_too


def test_blocked_get_on_logging_page_logs_metadata():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    recs = []
    iuid = target.register_handler(lambda ctx, rec: recs.append(rec), 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, rl=True, rld=True, e=True)  # r stays 0
    out = {}

    def app(proc):
        handle = yield from proc.get(1, base, 8)
        yield from handle.wait()
        out["status"] = handle.status

    run_app(sim, app(sim.procs[0]))
    assert out["status"] == "blocked"
    assert len(recs) == 1
    assert recs[0].blocked and not recs[0].data_present


def test_cas_and_fao_semantics():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True, r=True)
    target.memory.write_word(base, 100)
    out = {}

    def app(proc):
        prev = yield from proc.cas(1, base, 100, 200)
        out["cas1"] = prev
        prev = yield from proc.cas(1, base, 100, 300)  # fails, value is 200
        out["cas2"] = prev
        prev = yield from proc.fao(1, "sum", 5, base)
        out["fao_sum"] = prev
        prev = yield from proc.fao(1, "replace", 9, base)
        out["fao_rep"] = prev

    metrics = run_app(sim, app(sim.procs[0]))
    assert out == {"cas1": 100, "cas2": 200, "fao_sum": 200, "fao_rep": 205}
    assert target.memory.read_word(base) == 9
    assert metrics.remote_ops == 4


def test_rma_flush_orders_prior_puts():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)

    def app(proc):
        for i in range(8):
            yield from proc.put(1, base + 8 * i, bytes([i]) * 8)
        yield from proc.rma_flush(1)
        # after the flush the data must be resident at the target
        assert target.memory.read(base, 64) == b"".join(bytes([i]) * 8 for i in range(8))

    run_app(sim, app(sim.procs[0]))


def _late_put_done_sim():
    """Three ranks with a writable page at ranks 1 and 2, where rank 0
    hears of each put's last packet 10 us after it lands: its puts stay
    outstanding past any rma_flush."""
    sim = Simulation(small_cfg(scheme="rma", num_procs=3))
    bases = {}
    for rank in (1, 2):
        bases[rank] = sim.procs[rank].memory.reserve_region("data", PAGE_SIZE)
        sim.procs[rank].map_plain(bases[rank], w=True)
    source = sim.procs[0]
    put_done = source._put_done

    def late_put_done(tag, status):
        sim.engine.schedule(10_000.0, put_done, tag, status)

    source._put_done = late_put_done
    return sim, bases


def test_rma_flush_raises_while_a_put_to_its_target_is_outstanding():
    sim, bases = _late_put_done_sim()

    def app(proc):
        yield from proc.put(1, bases[1], bytes(8))
        yield from proc.rma_flush(1)

    with pytest.raises(NodeError, match="puts still outstanding after rma_flush"):
        run_app(sim, app(sim.procs[0]))


def test_rma_flush_ignores_a_put_outstanding_to_another_target():
    sim, bases = _late_put_done_sim()
    seen = {}

    def app(proc):
        handle = yield from proc.put(2, bases[2], bytes(8))
        yield from proc.rma_flush(1)
        seen["put done at flush"] = handle.done
        yield from handle.wait()

    run_app(sim, app(sim.procs[0]))
    assert seen == {"put done at flush": False}


def test_flush_waits_for_handler_consumption():
    sim = Simulation(small_cfg(poll_interval_ns=5000.0))
    target = sim.procs[1]
    handled = []
    iuid = target.register_handler(lambda ctx, rec: handled.append(rec.seq_no), 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)

    def app(proc):
        for i in range(5):
            handle = yield from proc.put(1, base, bytes([i]) * 8)
            yield from handle.wait()
        yield from proc.flush(1)
        assert handled == [0, 1, 2, 3, 4]

    run_app(sim, app(sim.procs[0]))


def test_flush_on_idle_log_returns():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    target.register_handler(lambda ctx, rec: None, 4096)

    def app(proc):
        yield from proc.flush(1)

    run_app(sim, app(sim.procs[0]))  # must terminate


def test_am_send_runs_inbox_handler():
    sim = Simulation(small_cfg(scheme="am"))
    source, target = sim.procs
    got = []
    target.setup_inbox(lambda ctx, src, payload: got.append((src, payload)))

    def app(proc):
        for i in range(4):
            yield from proc.am_send(1, bytes([i]) * 8)

    metrics = run_app(sim, app(source))
    assert got == [(0, bytes([i]) * 8) for i in range(4)]
    assert metrics.handler_invocations == 4


def test_am_longer_than_max_payload_reaches_its_handler_whole():
    sim = Simulation(small_cfg(scheme="am", max_payload=256))
    source, target = sim.procs
    got = []
    target.setup_inbox(lambda ctx, src, payload: got.append((src, payload)))
    message = bytes(i % 251 for i in range(515))

    def app(proc):
        handle = yield from proc.am_send(1, message)
        yield from handle.wait()

    metrics = run_app(sim, app(source))
    assert metrics.packets == 3
    assert got == [(0, message)]
    assert metrics.handler_invocations == 1


def test_multi_packet_messages_from_two_sources_each_arrive_whole():
    sim = Simulation(small_cfg(scheme="am", num_procs=3, max_payload=64))
    target = sim.procs[0]
    got = []
    target.setup_inbox(lambda ctx, src, payload: got.append((src, payload)))
    sent = {src: [bytes([src * 16 + i]) * (200 + 40 * i) for i in range(4)] for src in (1, 2)}

    def app(proc):
        for message in sent[proc.rank]:
            yield from proc.am_send(0, message)

    for src in sent:
        sim.add_app(src, app(sim.procs[src]))
    metrics = sim.run()
    assert sorted(got) == sorted((src, m) for src, ms in sent.items() for m in ms)
    assert [m for src, m in got if src == 1] == sent[1]
    assert metrics.handler_invocations == 8


def test_gets_logged_with_data_build_no_tag_entry(monkeypatch):
    # Such a get keeps only its key in the tag buffer until its record commits.
    built = []
    real = iommu.TagEntry
    monkeypatch.setattr(iommu, "TagEntry", lambda *args: built.append(args) or real(*args))
    bench = GetLogBench(small_cfg(), "aa", n_gets=200)
    bench.run()
    assert len(bench.recovered) == 200 * 8  # the 8-byte values, joined
    assert bench.replayed() == bench.fetched_values()
    assert built == []


@pytest.mark.parametrize("scheme", ["aa-int", "aa-sp", "aa-poll"])
def test_inbox_write_wakes_the_consumer_under_every_notification(scheme):
    # The sender ends at 26,000 ns. A polling consumer finds each message on
    # its own; under int and sp each inbox write must wake the consumer, or
    # the messages would never be read.
    sim = Simulation(small_cfg(scheme=scheme))
    target, source = sim.procs
    ran = []
    target.setup_inbox(lambda ctx, src, payload: ran.append(sim.engine.now))

    def app(proc):
        for i in range(4):
            yield from proc.am_send(0, bytes([i]) * 8)
        yield 20000

    metrics = run_app(sim, app(source), rank=1)
    assert metrics.sim_time_ns == 26000
    assert len(ran) == 4 and ran[-1] < 26000
    if scheme == "aa-poll":
        assert ran == [3350, 4660, 5970, 7280]


@pytest.mark.parametrize("scheme", ["aa-int", "aa-sp", "aa-poll"])
def test_each_node_with_a_handler_enters_its_consumer_loop_once(scheme, monkeypatch):
    # One generator per node serves every pass: a pass is not a call. Rank 0
    # has no handler and gets no loop.
    entered = []
    loop = Proc.poll_step

    def counted(proc):
        entered.append(proc.rank)
        return loop(proc)

    monkeypatch.setattr(Proc, "poll_step", counted)
    sim = Simulation(small_cfg(scheme=scheme, num_procs=4))
    bases = {}
    for target in sim.procs[1:]:
        iuid = target.register_handler(lambda ctx, rec: None)
        bases[target.rank] = base = target.memory.reserve_region("data", PAGE_SIZE)
        target.assoc_page(base, iuid, wl=True, wld=True, e=True)

    def app(proc):
        for _ in range(3):
            for rank, base in bases.items():
                handle = yield from proc.put(rank, base, b"ACTIVE!!")
                yield from handle.wait()

    metrics = run_app(sim, app(sim.procs[0]))
    assert metrics.handler_invocations == 9
    assert sorted(entered) == [1, 2, 3]


def test_backpressure_slow_consumer_loses_nothing():
    cfg = small_cfg(poll_interval_ns=20000.0, credit_capacity=4)
    sim = Simulation(cfg)
    target = sim.procs[1]
    handled = []
    iuid = target.register_handler(lambda ctx, rec: handled.append(rec.seq_no), 128)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)

    def app(proc):
        handles = []
        for i in range(40):
            handles.append((yield from proc.put(1, base, i.to_bytes(8, "little"))))
        for handle in handles:
            yield from handle.wait()

    metrics = run_app(sim, app(sim.procs[0]))
    assert handled == list(range(40))  # nothing lost, order kept
    assert metrics.backpressure_stalls > 0
    assert metrics.records_consumed == 40


def test_stalled_head_serves_open_transactions_through_the_link():
    # Three sources interleave 4-packet logged puts on one ingress link into
    # a 2 KiB log, so a head often cannot reserve while another source's put
    # is half delivered; the bridge must serve those continuations ahead of
    # the stalled head and return each one's credit.
    sim = Simulation(small_cfg(num_procs=4, access_log_size=2048, scheme="aa-poll", seed=1))
    target = sim.procs[0]
    handled = []
    iuid = target.register_handler(lambda ctx, rec: handled.append(rec))
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)
    iommu = target.iommu
    served = []
    serve = iommu._serve_open_txns

    def counting_serve():
        hit = yield from serve()
        served.append(hit)
        return hit

    iommu._serve_open_txns = counting_serve

    def app(proc):
        handles = []
        for i in range(20):
            payload = bytes([proc.rank, i]) * 512
            handles.append((yield from proc.put(0, base + (proc.rank - 1) * 1024, payload)))
        for handle in handles:
            yield from handle.wait()
        yield from proc.flush(0)

    for rank in (1, 2, 3):
        sim.add_app(rank, app(sim.procs[rank]))
    metrics = sim.run()
    # Exact counts: a reserve path that counted one failure twice, or served
    # a different number of continuations, would move them.
    assert metrics.backpressure_stalls == 304
    assert sum(served) == 60
    assert metrics.records_committed == metrics.records_consumed == 60
    for rank in (1, 2, 3):
        mine = [rec.payload for rec in handled if rec.device_id == rank]
        assert mine == [bytes([rank, i]) * 512 for i in range(20)]
    assert all(link.credits == link.capacity for link in sim.links)


def test_tag_exhaustion_blocks_the_issuer_until_a_tag_frees():
    # One cycle of issue cost per put keeps 256 puts in flight at once, so
    # the 257th waits for tag 0 to come back; tags come out in cursor order.
    sim = Simulation(small_cfg(scheme="rma", issue_cost_ns=1.0))
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)
    tags = []
    send = sim.links[1].send

    def recording_send(tlp):
        tags.append(tlp.tag)
        send(tlp)

    sim.links[1].send = recording_send
    in_use = []

    def app(proc):
        for i in range(300):
            yield from proc.put(1, base + 8 * i, i.to_bytes(8, "little"))
            in_use.append(len(proc._puts) + len(proc._gets))
        yield from proc.rma_flush(1)

    metrics = run_app(sim, app(sim.procs[0]))
    assert max(in_use) == 256
    assert tags == list(range(256)) + list(range(45))
    assert target.memory.read(base, 2400) == b"".join(i.to_bytes(8, "little") for i in range(300))
    assert (metrics.remote_ops, metrics.bytes_wire, metrics.sim_time_ns) == (301, 9656, 11017.0)


def test_oversize_and_straddle_rejected():
    sim = Simulation(small_cfg())
    proc = sim.procs[0]
    with pytest.raises(OversizeError):
        next(proc.put(1, 0, bytes(4097)))
    with pytest.raises(NodeError):
        next(proc.put(1, PAGE_SIZE - 4, bytes(8)))
    with pytest.raises(NodeError):
        next(proc.get(1, PAGE_SIZE - 4, 8))


def test_assoc_unowned_page_rejected():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    with pytest.raises(NodeError):
        target.assoc_page(1 << 30, 0, w=True)


def test_bypass_bridge_still_moves_data():
    sim = Simulation(small_cfg(iommu_enabled=False))
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    out = {}

    def app(proc):
        handle = yield from proc.put(1, base, b"rawbytes")
        yield from handle.wait()
        got = yield from proc.get(1, base, 8)
        yield from got.wait()
        out["data"] = got.data

    metrics = run_app(sim, app(sim.procs[0]))
    assert out["data"] == b"rawbytes"
    assert metrics.iotlb_hits == 0 and metrics.iotlb_misses == 0


def test_deadlock_detected_when_log_has_no_consumer():
    # a full tiny log with a paused consumer would stall forever; the
    # stall detector must convert that into a diagnostic error
    cfg = small_cfg(stall_limit_ns=200000.0, poll_interval_ns=1e9)
    sim = Simulation(cfg)
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None, 128)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)

    def app(proc):
        handles = []
        for i in range(10):
            handles.append((yield from proc.put(1, base, bytes(8))))
        for handle in handles:
            yield from handle.wait()

    sim.add_app(0, app(sim.procs[0]))
    with pytest.raises(DeadlockError) as err:
        sim.run()
    # The watchdog raises exactly the stall limit after the last activity.
    deadline = sim.engine.last_activity + cfg.stall_limit_ns
    assert sim.engine.now == deadline
    assert str(err.value).startswith("deadlock diagnostics at t=%.0f ns:" % deadline)


def test_deadlock_names_flush_held_behind_unconsumed_record():
    # The consumer sleeps past the stall limit, so the record stays
    # unconsumed and the flush behind it is still waiting.
    cfg = small_cfg(stall_limit_ns=200000.0, poll_interval_ns=1e9)
    sim = Simulation(cfg)
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None, 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)
    flush_addr = next(iter(target.iommu.flush_pages))

    def app(proc):
        handle = yield from proc.put(1, base, bytes(8))
        yield from handle.wait()
        yield from proc.flush(1)

    sim.add_app(0, app(sim.procs[0]))
    with pytest.raises(DeadlockError) as err:
        sim.run()
    message = str(err.value)
    deadline = sim.engine.last_activity + cfg.stall_limit_ns
    assert sim.engine.now == deadline
    assert message.startswith("deadlock diagnostics at t=%.0f ns:" % deadline)
    assert "rank 1:" in message
    assert "flush@%d waiting=1" % flush_addr in message
    size = record_size(8, with_data=True)
    assert "log%d head=%d committed=%d tail=0" % (iuid, size, size) in message


def test_stall_after_the_last_app_returns_raises_at_the_deadline():
    # The app returns once its logged put has landed, but the consumer
    # sleeps past the stall limit, so the record stays unconsumed and the
    # sweeps never find the run drained. The watchdog still raises exactly
    # the stall limit after the last activity, not on a sweep tick.
    cfg = small_cfg(stall_limit_ns=200000.0, poll_interval_ns=1e9)
    sim = Simulation(cfg)
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None, 4096)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, wl=True, wld=True, e=True)

    def app(proc):
        handle = yield from proc.put(1, base, bytes(8))
        yield from handle.wait()

    sim.add_app(0, app(sim.procs[0]))
    with pytest.raises(DeadlockError) as err:
        sim.run()
    deadline = sim.engine.last_activity + cfg.stall_limit_ns
    assert sim.engine.now == deadline
    message = str(err.value)
    assert message.startswith("deadlock diagnostics at t=%.0f ns:\n  apps done: 1/1\n" % deadline)
    size = record_size(8, with_data=True)
    assert "log%d head=%d committed=%d tail=0" % (iuid, size, size) in message


@pytest.mark.parametrize("past_ns", [-1.0, 1.0], ids=["ends-before", "asleep-at"])
def test_watchdog_deadline_is_the_stall_limit_after_the_last_activity(past_ns):
    # The put's completion is the last activity; the app then sleeps to
    # just before or just past the deadline, the stall limit after it.
    cfg = small_cfg(stall_limit_ns=100_000.0)
    sim = Simulation(cfg)
    target = sim.procs[1]
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.map_plain(base, w=True)
    done = []

    def app(proc):
        handle = yield from proc.put(1, base, bytes(8))
        yield from handle.wait()
        done.append(proc.engine.now)
        yield cfg.stall_limit_ns + past_ns

    sim.add_app(0, app(sim.procs[0]))
    if past_ns < 0:
        assert sim.run().sim_time_ns == done[0] + cfg.stall_limit_ns + past_ns
    else:
        with pytest.raises(DeadlockError, match=r"^deadlock diagnostics at t=\d+ ns:\n  apps done: 0/1"):
            sim.run()
        assert sim.engine.last_activity == done[0]
        assert sim.engine.now == done[0] + cfg.stall_limit_ns


def test_record_below_the_interrupt_batch_raises_the_interrupt_after_the_holdoff():
    # One aa-int record, far below the batch of 10: the node raises its
    # interrupt INTERRUPT_HOLDOFF_NS after the commit, and the consumer
    # checks the log, fetches the record and runs the handler while the
    # app still sleeps.
    cfg = small_cfg(scheme="aa-int", handler_cost_ns=500.0)
    sim = Simulation(cfg)
    target = sim.procs[1]
    handled = []
    iuid = target.register_handler(lambda ctx, rec: handled.append(sim.engine.now))
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, w=True, wl=True, e=True)
    log = target.iommu.alogs[0]
    committed, consumed = [], []
    log.commit_hooks.append(lambda _log: committed.append(sim.engine.now))
    advance = log.advance_tail

    def advance_tail(nbytes):
        advance(nbytes)
        consumed.append(sim.engine.now)

    log.advance_tail = advance_tail

    sleep = []

    def app(proc):
        handle = yield from proc.put(1, base, bytes(8))
        yield from handle.wait()
        sleep.append(proc.engine.now)
        yield 20_000.0
        sleep.append(proc.engine.now)

    metrics = run_app(sim, app(sim.procs[0]))
    (commit,) = committed
    call = commit + INTERRUPT_HOLDOFF_NS + cfg.interrupt_ns + 2 * cfg.mem_access_ns  # check, fetch
    assert handled == [call]
    assert consumed == [call + cfg.handler_cost_ns]
    assert sleep[0] < call and consumed[0] < sleep[1]
    assert metrics.records_consumed == 1


@pytest.mark.parametrize("sleep_ns", [0.0, 20_000.0], ids=["short-sleep", "long-sleep"])
def test_first_sweep_after_an_app_that_ends_on_a_tick(sleep_ns):
    # The last app to return sweeps: its ticks start at its end and follow
    # every SWEEP_INTERVAL_NS; the first tick that finds the run drained
    # ends it.
    # The app puts one aa-int record below the batch, waits for the put,
    # then sleeps. After a short sleep the record is still unconsumed at
    # the app's end, so the run ends on the first tick after consumption;
    # after a long one the tick at the app's end already finds it drained.
    # The run stops on that tick; sim_time_ns is the last activity.
    sim = Simulation(small_cfg(scheme="aa-int"))
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None)
    base = target.memory.reserve_region("data", PAGE_SIZE)
    target.assoc_page(base, iuid, w=True, wl=True, e=True)
    log = target.iommu.alogs[0]
    consumed = []
    advance = log.advance_tail

    def advance_tail(nbytes):
        advance(nbytes)
        consumed.append(sim.engine.now)

    log.advance_tail = advance_tail
    ends = []

    def app(proc):
        handle = yield from proc.put(1, base, bytes(8))
        yield from handle.wait()
        yield sleep_ns
        ends.append(proc.engine.now)

    metrics = run_app(sim, app(sim.procs[0]))
    (end,), (done,) = ends, consumed
    ticks = 0 if done < end else math.floor((done - end) / SWEEP_INTERVAL_NS) + 1
    assert (ticks > 0) == (sleep_ns == 0.0)
    assert sim.engine.now == end + ticks * SWEEP_INTERVAL_NS
    assert metrics.sim_time_ns == max(end, done)  # the last activity, not the tick
    assert metrics.records_consumed == 1


def test_interrupt_that_finds_the_consumer_busy_strands_no_record():
    # Rank 1 has two domains. The record in domain 2 is handled after the
    # holdoff and the interrupt; the one in domain 1 commits while that
    # handler runs, so its interrupt finds the consumer busy. The consumer
    # parks only when nothing is committed, so it takes the record next.
    cfg = small_cfg(scheme="aa-int", handler_cost_ns=10_000.0)
    sim = Simulation(cfg)
    target = sim.procs[1]
    handled = []
    bases = {}
    for domain in (1, 2):
        iuid = target.register_handler(
            lambda ctx, rec, domain=domain: handled.append((domain, sim.engine.now))
        )
        bases[domain] = target.memory.reserve_region("data%d" % domain, PAGE_SIZE)
        target.assoc_page(bases[domain], iuid, w=True, wl=True, e=True)

    def app(proc):
        handle = yield from proc.put(1, bases[2], bytes(8))
        yield from handle.wait()
        yield 5000.0
        handle = yield from proc.put(1, bases[1], bytes(8))
        yield from handle.wait()

    metrics = run_app(sim, app(sim.procs[0]))
    assert handled == [(2, 6667.0), (1, 16807.0)]
    assert metrics.sim_time_ns == 26807.0


# sim_time_ns of the 30-get getlog aa runs below, taken while each get's
# commit still queued a pointer-publish mark mem_access_ns after it.
GETLOG_END_NS = {
    ("aa-poll", 0.0, 0.0): 77000.0,
    ("aa-poll", 0.0, 100.0): 77000.0,
    ("aa-poll", 70.0, 0.0): 82440.0,
    ("aa-poll", 70.0, 100.0): 83130.0,
    ("aa-sp", 0.0, 0.0): 76980.0,
    ("aa-sp", 0.0, 100.0): 76980.0,
    ("aa-sp", 70.0, 0.0): 82440.0,
    ("aa-sp", 70.0, 100.0): 82440.0,
    ("aa-int", 0.0, 0.0): 77882.0,
    ("aa-int", 0.0, 100.0): 78082.0,
    ("aa-int", 70.0, 0.0): 83692.0,
    ("aa-int", 70.0, 100.0): 83892.0,
}


@pytest.mark.parametrize("scheme,mem_access_ns,handler_cost_ns", list(GETLOG_END_NS))
def test_logged_get_publish_never_ends_the_run(scheme, mem_access_ns, handler_cost_ns):
    # A get logged with data commits its record at the last egress and
    # queues no publish mark: the consumer fetches the record no earlier than
    # the commit, at a memory access's cost, so its own mark is no earlier.
    # The handler also checks the node's one HandlerCtx: cost_ns is 0 on
    # entry to every record, and touch(k) charges exactly k accesses.
    entry_costs, charges = [], []

    class Bench(GetLogBench):
        def _log_record(self, ctx, record):
            entry_costs.append(ctx.cost_ns)
            super()._log_record(ctx, record)
            k = len(self.recovered) // 8 % 3  # records so far, mod 3
            before = ctx.cost_ns
            ctx.touch(k)
            charges.append((ctx.cost_ns - before, k * mem_access_ns))

    cfg = small_cfg(scheme=scheme, mem_access_ns=mem_access_ns, handler_cost_ns=handler_cost_ns)
    bench = Bench(cfg, "aa", n_gets=30)
    metrics = bench.run()
    assert metrics.sim_time_ns == GETLOG_END_NS[(scheme, mem_access_ns, handler_cost_ns)]
    assert bench.replayed() == bench.fetched_values()
    assert entry_costs == [0.0] * 30
    assert [charged for charged, _ in charges] == [want for _, want in charges]


@pytest.mark.parametrize("scheme", ["aa-sp", "aa-int"])
def test_woken_consumer_enters_no_generator_expression(scheme):
    # The park test, the interrupt batch test and the holdoff test run on
    # every wake-up or commit, so each is a plain loop.
    bench = GetLogBench(small_cfg(scheme=scheme), "aa", n_gets=20)
    entered = set()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == runtime.__file__:
            entered.add(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        bench.run()
    finally:
        sys.setprofile(None)
    assert bench.replayed() == bench.fetched_values()
    assert {"poll_step", "_on_commit"} <= entered
    assert "<genexpr>" not in entered


def test_fixed_seed_runs_are_identical():
    def one(seed):
        sim = Simulation(small_cfg(seed=seed, num_procs=3))
        bases = {}
        for t in (sim.procs[1], sim.procs[2]):
            iuid = t.register_handler(lambda ctx, rec: None, 4096)
            base = t.memory.reserve_region("data", PAGE_SIZE)
            t.assoc_page(base, iuid, wl=True, wld=True, e=True)
            bases[t.rank] = base

        def app(proc):
            for i in range(20):
                tgt = 1 + i % 2
                handle = yield from proc.put(tgt, bases[tgt], bytes([i]) * 8)
                yield from handle.wait()
            yield from proc.flush(1)
            yield from proc.flush(2)

        sim.add_app(0, app(sim.procs[0]))
        metrics = sim.run()
        return (metrics.sim_time_ns, metrics.bytes_wire, metrics.records_consumed)

    assert one(7) == one(7)


def test_assoc_span_maps_a_run_inside_one_region():
    sim = Simulation(small_cfg())
    target = sim.procs[1]
    iuid = target.register_handler(lambda ctx, rec: None, 4096)
    base = target.memory.reserve_region("data", 4 * PAGE_SIZE)
    target.memory.reserve_region("next", PAGE_SIZE)
    with pytest.raises(NodeError):
        target.assoc_page(base, iuid, span=0, wl=True, e=True)
    # A span ending inside a page maps that page too, so it may not end
    # inside the page after the region.
    with pytest.raises(NodeError):
        target.assoc_page(base + PAGE_SIZE, iuid, span=3 * PAGE_SIZE + 8, wl=True, e=True)
    with pytest.raises(NodeError):
        target.assoc_page(base, 99, span=4 * PAGE_SIZE, wl=True, e=True)
    target.assoc_page(base + PAGE_SIZE, iuid, span=2 * PAGE_SIZE + 8, w=True, wl=True, e=True)
    for page in range(4):
        vpn = (base >> 12) + page
        run, _ = target.translator.page_table.lookup(vpn)
        assert (run is not None) == (page > 0)
        if run is not None:
            acts = run.acts[PUT]
            assert run.offset == 0  # assoc_page maps each page onto its own frame
            assert (acts.iuid, acts.memory_effect, acts.log_meta) == (iuid, True, True)
