"""Bridge-level tests driven with hand-built packet interleavings."""

import pytest
from criteria import Rig, multi_device_trial

from aasim import iommu as iommu_mod
from aasim.iommu import IommuError
from aasim.link import split_get, split_put
from aasim.memory import PAGE_SIZE
from aasim.paging import IUID_LIMIT, Pte


def test_hole_reassembly_over_many_interleavings():
    for seed in range(60):
        multi_device_trial(seed)


def test_trial_is_deterministic_per_seed():
    assert multi_device_trial(11) == multi_device_trial(11)


def test_head_of_line_stall_until_consumer_frees_space():
    rig = Rig(log_size=128)  # fits four 32-byte records
    pkts = []
    for t in range(6):
        pkts.extend(split_put(rig.page, bytes([t]) * 8, 0, t, 256))
    for pkt in pkts:
        rig.iommu.on_arrival(pkt)
    rig.engine.run()
    # four reserved, fifth stalls the pipeline head
    assert rig.log.reserve_failures >= 1
    assert len(rig.iommu.ingress) == 2
    first = rig.drain_records()
    assert [r.payload[0] for r in first] == [0, 1, 2, 3]
    rig.engine.run()  # space_freed resumes the pipeline
    rest = rig.drain_records()
    assert [r.payload[0] for r in rest] == [4, 5]
    assert rig.log.head == rig.log.tail


def test_idle_is_false_while_a_packet_a_transaction_or_a_flush_waits():
    rig = Rig()
    assert not rig.iommu.outstanding()
    put_pkts = split_put(rig.page, bytes(600), 0, 9, 256)  # 3 packets
    rig.iommu.on_arrival(put_pkts[0])
    assert rig.iommu.ingress and rig.iommu.outstanding()
    rig.engine.run()
    # the head is processed, but its transaction's tag entry stays open
    assert not rig.iommu.ingress and rig.iommu.tag_buffer and rig.iommu.outstanding()
    for pkt in put_pkts[1:]:
        rig.iommu.on_arrival(pkt)
    rig.engine.run()
    assert not rig.iommu.outstanding()
    # a committed, unconsumed record holds the flush back
    rig.iommu.on_arrival(split_get(next(iter(rig.iommu.flush_pages)), 8, 1, 5))
    rig.engine.run()
    assert not rig.iommu.ingress and not rig.iommu.tag_buffer
    assert rig.iommu.outstanding()
    rig.drain_records()
    assert rig.channels[1].delivered and not rig.iommu.outstanding()


def test_flush_mark_covers_reserved_but_uncommitted_records():
    rig = Rig()
    put_pkts = split_put(rig.page, bytes(600), 0, 9, 256)  # 3 packets
    # deliver only the head packet: record reserved, not committed
    rig.iommu.on_arrival(put_pkts[0])
    rig.engine.run()
    flush_req = split_get(next(iter(rig.iommu.flush_pages)), 8, 1, 5)
    rig.iommu.on_arrival(flush_req)
    rig.engine.run()
    assert rig.channels[1].delivered == []  # must wait for the open record
    for pkt in put_pkts[1:]:
        rig.iommu.on_arrival(pkt)
    rig.engine.run()
    assert rig.channels[1].delivered == []  # committed but not yet consumed
    rig.drain_records()
    assert len(rig.channels[1].delivered) == 1
    assert rig.channels[1].delivered[0].payload == bytes(8)


def test_flush_on_quiet_log_answers_immediately():
    rig = Rig()
    flush_req = split_get(next(iter(rig.iommu.flush_pages)), 8, 2, 1)
    rig.iommu.on_arrival(flush_req)
    rig.engine.run()
    assert len(rig.channels[2].delivered) == 1


def test_queued_flushes_complete_in_fifo_order():
    rig = Rig()
    flush_addr = next(iter(rig.iommu.flush_pages))
    # an open record keeps every flush waiting
    put_pkts = split_put(rig.page, bytes(300), 0, 1, 256)
    rig.iommu.on_arrival(put_pkts[0])
    rig.engine.run()
    for dev, tag in ((1, 11), (2, 22), (3, 33)):
        req = split_get(flush_addr, 8, dev, tag)
        rig.iommu.on_arrival(req)
    rig.engine.run()
    assert all(not rig.channels[d].delivered for d in (1, 2, 3))
    rig.iommu.on_arrival(put_pkts[1])
    rig.engine.run()
    rig.drain_records()
    order = [
        (d, rig.channels[d].delivered[0].tag) for d in (1, 2, 3) if rig.channels[d].delivered
    ]
    assert order == [(1, 11), (2, 22), (3, 33)]


def test_flush_after_consumption_no_double_answer():
    rig = Rig()
    flush_addr = next(iter(rig.iommu.flush_pages))
    for pkt in split_put(rig.page, bytes(16), 0, 1, 256):
        rig.iommu.on_arrival(pkt)
    rig.engine.run()
    rig.drain_records()
    req = split_get(flush_addr, 8, 1, 7)
    rig.iommu.on_arrival(req)
    rig.engine.run()
    assert len(rig.channels[1].delivered) == 1
    rig.drain_records()
    assert len(rig.channels[1].delivered) == 1


def test_atomic_on_logged_page_rejected():
    rig = Rig()
    from aasim.link import AtomicDesc

    # make the logged page readable so the atomic reaches the check
    rig.translator.map_range(
        rig.page, Pte(frame=rig.page >> 12, r=True, rl=True, e=True, iuid=rig.log.iuid)
    )
    req = split_get(rig.page, 8, 0, 1)
    req.atomic = AtomicDesc("sum", 1)
    rig.iommu.on_arrival(req)
    with pytest.raises(Exception):
        rig.engine.run()


def test_domains_are_numbered_until_the_iuid_space_runs_out():
    rig = Rig()
    while len(rig.iommu.alogs) < IUID_LIMIT - 1:
        rig.iommu.add_domain(64)
    alogs = rig.iommu.alogs
    assert [log.iuid for log in alogs] == list(range(1, IUID_LIMIT))
    assert len({log.base for log in alogs}) == len(alogs)
    assert len(rig.iommu.flush_pages) == len(alogs)
    assert list(rig.iommu.flush_pages.values()) == alogs
    with pytest.raises(IommuError):
        rig.iommu.add_domain(64)
    assert len(alogs) == IUID_LIMIT - 1


def test_inbox_queues_writes_to_its_page_in_order():
    rig = Rig()
    inbox = rig.memory.reserve_region("inbox", PAGE_SIZE)
    other = rig.memory.reserve_region("other", PAGE_SIZE)
    rig.translator.map_range(inbox, Pte(frame=inbox >> 12, w=True), pages=2)
    rig.iommu.inbox_page = inbox >> 12
    rig.iommu.on_arrival(split_put(inbox + 8, b"a" * 8, 2, 0, 256)[0])
    rig.iommu.on_arrival(split_put(other, b"x" * 8, 1, 0, 256)[0])
    rig.iommu.on_arrival(split_put(inbox, b"b" * 8, 1, 1, 256)[0])
    rig.engine.run()
    assert list(rig.iommu.inbox) == [(2, b"a" * 8), (1, b"b" * 8)]
    assert rig.memory.read(other, 8) == b"x" * 8
    assert rig.iommu.outstanding()
    rig.iommu.inbox.popleft()
    assert rig.iommu.outstanding()
    rig.iommu.inbox.popleft()
    assert not rig.iommu.outstanding()


def test_interleaved_multi_packet_inbox_writes_each_arrive_whole():
    rig = Rig()
    inbox = rig.memory.reserve_region("inbox", PAGE_SIZE)
    rig.translator.map_range(inbox, Pte(frame=inbox >> 12, w=True))
    rig.iommu.inbox_page = inbox >> 12
    one = bytes(i % 251 for i in range(515))  # three packets
    two = bytes(255 - i % 256 for i in range(800))  # four packets
    ones, twos = split_put(inbox, one, 1, 3, 256), split_put(inbox, two, 2, 3, 256)
    for a, b in zip(ones[:2], twos[:2]):
        rig.iommu.on_arrival(a)
        rig.iommu.on_arrival(b)
        rig.engine.run()
        assert not rig.iommu.inbox  # neither message is whole yet
    rig.iommu.on_arrival(ones[2])
    rig.iommu.on_arrival(twos[2])
    rig.engine.run()
    assert list(rig.iommu.inbox) == [(1, one)]
    rig.iommu.on_arrival(twos[3])
    rig.engine.run()
    assert list(rig.iommu.inbox) == [(1, one), (2, two)]
    assert not rig.iommu.tag_buffer


class CountingTagEntries:
    """Stands in for iommu.TagEntry and counts the entries built."""

    def __init__(self, real):
        self.real = real
        self.built = 0

    def __call__(self, *args):
        self.built += 1
        return self.real(*args)


# A 64 B put against each classification of the write path: the page's bits,
# the status its on_done hook gets, and whether the page is the inbox page.
WRITE_CLASSES = {
    "plain": (dict(w=True), "ok", False),
    "logged metadata": (dict(w=True, wl=True, e=True), "ok", False),
    "logged with data": (dict(wl=True, wld=True, e=True), "ok", False),
    "fault-logged": (dict(w=True, wl=True), "ok", False),
    "execute-only": (dict(e=True), "blocked", False),
    "unmapped": (None, "fault", False),
    "inbox": (dict(w=True), "ok", True),
}


def write_outcome(monkeypatch, bits, inbox, max_payload):
    """Send one 64 B put as max_payload packets; return everything it left."""
    entries = CountingTagEntries(iommu_mod.TagEntry)
    monkeypatch.setattr(iommu_mod, "TagEntry", entries)
    rig = Rig()
    page = rig.memory.reserve_region("target", PAGE_SIZE)
    if bits is not None:
        rig.translator.map_range(page, Pte(frame=page >> 12, iuid=rig.log.iuid, **bits))
    if inbox:
        rig.iommu.inbox_page = page >> 12
    rig.memory.write(page, bytes(range(128)))
    statuses = []
    pkts = split_put(page + 32, bytes(range(100, 164)), 0, 7, max_payload)
    pkts[-1].on_done = lambda tag, status: statuses.append((tag, status))
    for pkt in pkts:
        rig.iommu.on_arrival(pkt)
    rig.engine.run()
    return {
        "packets": len(pkts),
        "memory": rig.memory.read(page, PAGE_SIZE),
        "records": rig.log.ring_read(0, rig.log.committed_head) if rig.log.committed_head else b"",
        "statuses": statuses,
        "faults": list(rig.iommu.fault_log.entries),
        "inbox": list(rig.iommu.inbox),
        "open": dict(rig.iommu.tag_buffer),
        "entries": entries.built,
    }


@pytest.mark.parametrize("name", WRITE_CLASSES)
def test_one_packet_and_eight_packet_puts_leave_the_same_state(monkeypatch, name):
    bits, status, inbox = WRITE_CLASSES[name]
    whole = write_outcome(monkeypatch, bits, inbox, 256)
    pieces = write_outcome(monkeypatch, bits, inbox, 8)
    assert (whole["packets"], pieces["packets"]) == (1, 8)
    assert whole["statuses"] == [(7, status)]
    # A one-packet write keeps no entry; one with packets to come keeps one.
    assert (whole["entries"], pieces["entries"]) == (0, 1)
    for key in ("memory", "records", "statuses", "faults", "inbox", "open"):
        assert whole[key] == pieces[key], key
    assert whole["open"] == {}


def test_a_get_logged_with_data_holds_only_its_key_until_its_record_commits(monkeypatch):
    entries = CountingTagEntries(iommu_mod.TagEntry)
    monkeypatch.setattr(iommu_mod, "TagEntry", entries)
    rig = Rig()
    rig.translator.map_range(
        rig.page, Pte(frame=rig.page >> 12, r=True, rl=True, rld=True, e=True, iuid=rig.log.iuid)
    )
    rig.memory.write(rig.page, b"logged!!")
    channel = rig.channels[1]
    seen = []

    def deliver(tlp):  # at the completion's egress, before the record commits
        seen.append((rig.iommu.outstanding(), list(rig.iommu.tag_buffer)))
        channel.delivered.append(tlp)

    channel.deliver = deliver
    rig.iommu.on_arrival(split_get(rig.page, 8, 1, 5))
    rig.engine.run()
    assert seen == [(["open txns=1"], [(1, 5)])]
    assert not rig.iommu.outstanding() and channel.delivered[0].payload == b"logged!!"
    assert [rec.payload for rec in rig.drain_records()] == [b"logged!!"]
    # A second get on a tag whose logged get is still open is refused.
    rig.iommu.on_arrival(split_get(rig.page, 8, 1, 6))
    rig.iommu.on_arrival(split_get(rig.page, 8, 1, 6))
    with pytest.raises(IommuError, match="busy tag"):
        rig.engine.run()
    assert entries.built == 0
