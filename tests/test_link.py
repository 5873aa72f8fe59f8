import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aasim.config import SimConfig
from aasim.engine import Engine
from aasim.link import (
    COMPLETION_ADDR_BITS,
    POSTED_WRITE,
    READ_COMPLETION,
    BackChannel,
    Link,
    LinkError,
    OversizeError,
    Tlp,
    blocked_completion,
    make_completions,
    split_get,
    split_put,
)


def test_split_put_slices_and_orders():
    payload = bytes(range(256)) * 4  # 1024 bytes
    pkts = split_put(0x2000, payload, 3, 7, 256)
    assert [p.length for p in pkts] == [256, 256, 256, 256]
    assert [p.seq_in_txn for p in pkts] == [0, 1, 2, 3]
    assert [p.address for p in pkts] == [0x2000, 0x2100, 0x2200, 0x2300]
    assert b"".join(p.payload for p in pkts) == payload
    assert all(p.txn_total == 1024 and p.tag == 7 for p in pkts)


def test_split_put_ragged_tail():
    pkts = split_put(0, bytes(300), 0, 0, 128)
    assert [p.length for p in pkts] == [128, 128, 44]


def test_transaction_cap_enforced():
    split_put(0, bytes(4096), 0, 0, 256)
    with pytest.raises(OversizeError):
        split_put(0, bytes(4097), 0, 0, 256)
    with pytest.raises(OversizeError):
        split_get(0, 4097, 0, 0)


def test_completions_carry_only_low_address_bits():
    req = split_get(0x12345, 300, 1, 9)
    data = bytes(range(256)) + bytes(44)
    cpls = make_completions(req, data, 256)
    assert len(cpls) == 2
    assert [c.address for c in cpls] == [0x12345 & 0x7F, (0x12345 + 256) & 0x7F]
    assert all(c.tag == 9 and c.requester_id == 1 for c in cpls)
    assert b"".join(c.payload for c in cpls) == data


def test_blocked_completion_is_empty():
    req = split_get(0x80, 8, 1, 2)
    cpl = blocked_completion(req)
    assert cpl.status == "blocked" and cpl.length == 0 and cpl.payload == b""


def _reference_slices(kind, data, address, address_mask, requester_id, tag, max_payload):
    """The slicer loop every transaction used to take, one-packet ones too."""
    out = []
    for seq, off in enumerate(range(0, len(data), max_payload)):
        chunk = bytes(data[off : off + max_payload])
        out.append(
            Tlp(kind, requester_id, tag, (address + off) & address_mask, len(chunk), chunk, seq, len(data))
        )
    return out


# The buffer types a caller may hand the slicer, built from the same bytes.
BUFFERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4096),
    st.integers(1, 512).map(lambda n: 8 * n),
    st.integers(0, (1 << 40) - 4096),
    st.integers(0, 15),
    st.integers(0, 255),
    st.sampled_from(sorted(BUFFERS)),
)
def test_packets_match_the_reference_slicer(size, max_payload, address, requester, tag, buffer):
    data = bytes(i % 251 for i in range(size))
    caller = BUFFERS[buffer](data)
    pkts = split_put(address, caller, requester, tag, max_payload)
    cpls = make_completions(split_get(address, size, requester, tag), caller, max_payload)
    if buffer != "bytes":
        # Packets that aliased the caller's buffer would now read zeros.
        caller[:] = bytes(size)
    assert all(type(pkt.payload) is bytes for pkt in pkts + cpls)
    assert pkts == _reference_slices(POSTED_WRITE, data, address, -1, requester, tag, max_payload)
    assert cpls == _reference_slices(
        READ_COMPLETION, data, address, (1 << COMPLETION_ADDR_BITS) - 1, requester, tag, max_payload
    )


class _Counter:
    """The Metrics fields a wire counts into."""

    def __init__(self):
        self.packets = 0
        self.bytes_wire = 0
        self.bytes_payload = 0


def _cfg(**kw):
    return SimConfig(**kw)


def _one_packet(requester, tag=0, length=8):
    return split_put(0, bytes(length), requester, tag, 256)[0]


def test_link_serializes_and_times_arrivals():
    eng = Engine()
    got = []
    link = Link(eng, lambda t: got.append((eng.now, t)), _cfg(), random.Random(0), _Counter())
    link.send(_one_packet(0, tag=0))
    link.send(_one_packet(0, tag=1))
    eng.run()
    # 32 wire bytes each at 1 B/ns, 500 ns propagation
    assert [t for t, _ in got] == [532.0, 564.0]
    assert [t.tag for _, t in got] == [0, 1]


def test_link_credits_stall_until_released():
    eng = Engine()
    got = []
    cfg = _cfg(credit_capacity=2, link_latency_ns=0)
    link = Link(eng, lambda t: got.append(t.tag), cfg, random.Random(0), _Counter())
    for tag in range(4):
        link.send(_one_packet(0, tag=tag))
    eng.run()
    assert got == [0, 1]
    assert link.queued == 2
    link.release_credit()
    link.release_credit()
    eng.run()
    assert got == [0, 1, 2, 3]


def test_link_per_device_fifo_holds_under_any_seed():
    for seed in range(20):
        eng = Engine()
        got = []
        link = Link(eng, lambda t: got.append(t), _cfg(), random.Random(seed), _Counter())
        for tag in range(5):
            link.send(_one_packet(7, tag=tag))
            link.send(_one_packet(8, tag=tag))
        eng.run()
        for dev in (7, 8):
            tags = [t.tag for t in got if t.requester_id == dev]
            assert tags == sorted(tags)


def test_link_interleaving_is_seed_deterministic():
    def order(seed):
        eng = Engine()
        got = []
        cfg = _cfg(credit_capacity=1)
        link = Link(eng, lambda t: got.append((t.requester_id, t.tag)), cfg, random.Random(seed), _Counter())
        # The first packet takes the only credit; the rest queue behind it,
        # so every later departure is an arbiter choice among three devices.
        for tag in range(6):
            for dev in (1, 2, 3):
                link.send(_one_packet(dev, tag=tag))
        while link.in_flight:
            eng.run()
            link.release_credit()
        eng.run()
        return got

    assert order(5) == order(5)
    runs = {tuple(order(s)) for s in range(8)}
    assert len(runs) > 1  # the arbiter really varies with the seed


class ReferenceLink(Link):
    """The arbiter as it was first written: the ready list is rebuilt from
    every device's queue on each departure."""

    def __init__(self, engine, sink, cfg, rng, metrics):
        super().__init__(engine, sink, cfg, rng, metrics)
        self._queues = {}

    def send(self, tlp):
        self._queues.setdefault(tlp.requester_id, []).append(tlp)
        self._pump()

    def release_credit(self):
        if self.credits >= self.capacity:
            raise LinkError("credit over-release")
        self.credits += 1
        self._pump()

    def _pump(self):
        while self.credits > 0:
            ready = [d for d, q in self._queues.items() if q]
            if not ready:
                return
            dev = ready[self.rng.randrange(len(ready))] if len(ready) > 1 else ready[0]
            self.credits -= 1
            self._transmit(self._queues[dev].pop(0))
        if any(q for q in self._queues.values()):
            self.stalled_polls += 1

    @property
    def queued(self):
        return sum(len(q) for q in self._queues.values())


# Sends outnumber releases, so queues build up behind the credits and
# devices leave and rejoin the ready list out of first-seen order.
LINK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 39), st.integers(1, 300)),
        st.tuples(st.just("send"), st.integers(0, 39), st.integers(1, 300)),
        st.tuples(st.just("release"), st.integers(1, 2)),
        st.tuples(st.just("run")),
    ),
    max_size=100,
)


def _arbitrate(cls, seed, capacity, devices, steps):
    """Departures (time, device, tag), the link's state after each step,
    stalled polls and wire bytes of one send/release interleaving through a
    Link of class cls."""
    eng = Engine()
    got = []
    states = []
    counter = _Counter()
    cfg = _cfg(credit_capacity=capacity, link_latency_ns=0)
    link = cls(eng, lambda t: got.append((eng.now, t.requester_id, t.tag)), cfg, random.Random(seed), counter)
    for tag, step in enumerate(steps):
        if step[0] == "send":
            link.send(_one_packet(devices[step[1] % len(devices)], tag=tag, length=step[2]))
        elif step[0] == "release":
            for _ in range(min(step[1], link.in_flight)):
                link.release_credit()
        else:
            eng.run()
        states.append((link.queued, link.in_flight))
    while link.in_flight:
        eng.run()
        link.release_credit()
    eng.run()
    states.append((link.queued, link.in_flight))
    return got, states, link.stalled_polls, counter.bytes_wire


def _all_ready(n):
    """Devices and steps that queue n devices behind the only credit: the
    drain then draws among n, n - 1, ... 2 ready devices."""
    devices = [(i // 16, i % 16) for i in range(n)]
    return devices, [("send", 0, 8)] + [("send", i, 8) for i in range(n)]


@settings(max_examples=200, deadline=None)
# Device 1 queues behind the only credit before device 0, which it first
# followed: the ready list must still put device 0 first.
@example(0, 1, [(0, 0), (0, 1)], [("send", 0, 8), ("send", 1, 8), ("send", 0, 8)])
# Just above a power of two, nearly half the draws of the inlined randrange
# are rejected and drawn again.
@example(7, 1, *_all_ready(17))
@example(7, 1, *_all_ready(33))
@given(
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40, unique=True),
    LINK_STEPS,
)
def test_link_arbiter_matches_reference(seed, capacity, devices, steps):
    got = _arbitrate(Link, seed, capacity, devices, steps)
    assert got == _arbitrate(ReferenceLink, seed, capacity, devices, steps)
    departures, states, _stalls, _wire = got
    assert states[-1] == (0, 0)
    assert len(departures) == sum(step[0] == "send" for step in steps)


def test_send_on_an_idle_link_departs_without_the_arbiter():
    # A free credit and no device waiting: the packet leaves inside send,
    # with no draw and no stall, and its device still takes its first-seen
    # rank for later draws.
    eng = Engine()
    link = Link(eng, lambda t: None, _cfg(credit_capacity=2), random.Random(5), _Counter())
    pumped = []
    pump = link._pump
    link._pump = lambda: pumped.append(link.credits) or pump()
    state = link.rng.getstate()
    for tag, device in enumerate([(0, 3), (0, 1)]):
        link.send(_one_packet(device, tag=tag))
        assert (link.queued, link.in_flight) == (0, tag + 1)
    assert pumped == []
    assert link.rng.getstate() == state and link.stalled_polls == 0
    assert list(link._rank) == [(0, 3), (0, 1)]
    link.send(_one_packet((0, 2), tag=2))  # no credit left: it waits
    assert (link.queued, link.stalled_polls) == (1, 1)
    assert list(link._rank) == [(0, 3), (0, 1), (0, 2)]


def test_wire_byte_accounting():
    eng = Engine()
    counter = _Counter()
    link = Link(eng, lambda t: None, _cfg(), random.Random(0), counter)
    for pkt in split_put(0, bytes(1000), 0, 0, 256):
        link.send(pkt)
    eng.run()
    assert counter.packets == 4
    assert counter.bytes_wire == 1000 + 4 * 24
    assert counter.bytes_payload == 1000


def _wire_run(make_wire, send_name):
    """Arrival times and wire accounting for one fixed send schedule."""
    eng = Engine()
    got = []
    counter = _Counter()
    cfg = _cfg(link_latency_ns=123.0, link_bw_bytes_per_ns=0.75, wire_header_bytes=20)
    wire = make_wire(eng, lambda t: got.append((eng.now, t.tag)), cfg, counter)
    send = getattr(wire, send_name)
    schedule = [(0.0, 8), (0.0, 256), (40.0, 64), (41.5, 200), (2000.0, 8), (2000.0, 128)]
    for tag, (at, length) in enumerate(schedule):
        eng.schedule(at, send, _one_packet(5, tag=tag, length=length))
    eng.run()
    return got, counter.packets, counter.bytes_wire


def test_link_without_binding_credits_times_like_backchannel():
    link = _wire_run(lambda eng, sink, cfg, m: Link(eng, sink, cfg, random.Random(0), m), "send")
    back = _wire_run(lambda eng, sink, cfg, m: BackChannel(eng, sink, cfg, m), "deliver")
    assert link == back
    arrivals, packets, wire_bytes = link
    assert [tag for _, tag in arrivals] == list(range(6))
    assert packets == 6
    assert wire_bytes == 6 * 20 + 8 + 256 + 64 + 200 + 8 + 128


def test_backchannel_serializes():
    eng = Engine()
    got = []
    chan = BackChannel(eng, lambda t: got.append(eng.now), _cfg(), _Counter())
    req = split_get(0, 512, 1, 0)
    for cpl in make_completions(req, bytes(512), 256):
        chan.deliver(cpl)
    eng.run()
    assert got == [780.0, 1060.0]  # 280 wire bytes each, back to back
