import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aasim.engine import Engine
from aasim.logbuf import (
    FLAG_BLOCKED,
    FLAG_DATA,
    HEADER,
    HEADER_BYTES,
    AccessLog,
    FaultLog,
    LogError,
    LogRecord,
    WouldBlock,
    record_size,
)
from aasim.memory import LINE_SIZE, PAGE_SIZE, PhysMemory


def take_seq(log):
    """The next record sequence number, taken as the bridge's header store
    takes it."""
    seq = log.next_seq
    log.next_seq = seq + 1
    return seq


def make_log(size=128):
    eng = Engine()
    mem = PhysMemory(0)
    base = mem.reserve_region("log", size)
    return AccessLog(eng, mem, 5, base, size), eng


def test_header_layout_golden_bytes():
    rec = LogRecord(
        op_kind=0,
        device_id=2,
        iuid=3,
        dev_addr=0x1122334455667788,
        length=8,
        flags=FLAG_DATA,
        seq_no=9,
    )
    expected = bytes.fromhex("000200030088776655443322110800010900000000000000")
    assert len(expected) == HEADER_BYTES == 24
    assert HEADER.pack(0, 2, 3, 0x1122334455667788, 8, FLAG_DATA, 9) == expected
    assert LogRecord(*HEADER.unpack(expected)) == rec


def test_record_size_padding():
    assert record_size(8, False) == 24
    assert record_size(8, True) == 32
    assert record_size(5, True) == 32
    assert record_size(9, True) == 40


def test_reserve_commit_consume_roundtrip():
    log, _ = make_log(128)
    off = log.reserve(record_size(8, True))
    log.ring_write(off, HEADER.pack(0, 1, 5, 0x1000, 8, FLAG_DATA, take_seq(log)))
    log.ring_write(off + HEADER_BYTES, b"ABCDEFGH")
    assert log.read_record() is None  # not yet committed
    log.mark_done(off)
    got, size = log.read_record()
    assert got.payload == b"ABCDEFGH"
    assert got.dev_addr == 0x1000 and got.seq_no == 0
    log.advance_tail(size)
    assert log.head == log.tail


def test_out_of_order_commits_publish_in_reservation_order():
    log, _ = make_log(256)
    offs = [log.reserve(32) for _ in range(3)]
    for off in offs:
        log.ring_write(off, HEADER.pack(0, 1, 5, off, 8, FLAG_DATA, take_seq(log)))
        log.ring_write(off + HEADER_BYTES, bytes(8))
    assert log.mark_done(offs[1]) == 0  # hole before it
    assert log.committed_head == 0
    assert log.mark_done(offs[0]) == 2  # publishes both at once
    assert log.committed_head == 64
    assert log.mark_done(offs[2]) == 1
    assert log.committed_head == 96
    assert log.pending_records == 3


def test_byte_granular_wraparound():
    log, _ = make_log(64)
    # first record occupies [0, 40)
    off = log.reserve(40)
    log.ring_write(off, HEADER.pack(0, 1, 5, 0, 16, FLAG_DATA, take_seq(log)))
    log.ring_write(off + HEADER_BYTES, bytes(range(16)))
    log.mark_done(off)
    _, size = log.read_record()
    log.advance_tail(size)
    # second record wraps the physical end of the ring
    off = log.reserve(40)
    assert off == 40
    payload = bytes(range(100, 116))
    log.ring_write(off, HEADER.pack(0, 1, 5, 0, 16, FLAG_DATA, take_seq(log)))
    log.ring_write(off + HEADER_BYTES, payload)
    log.mark_done(off)
    got, size = log.read_record()
    assert got.payload == payload
    log.advance_tail(size)
    assert log.tail == 80


def test_full_ring_blocks_until_space_freed():
    log, _ = make_log(64)
    a = log.reserve(32)
    log.reserve(32)
    with pytest.raises(WouldBlock):
        log.reserve(8)
    assert log.reserve_failures == 1
    # drain the first record
    log.ring_write(a, HEADER.pack(0, 1, 5, 0, 8, FLAG_DATA, take_seq(log)))
    log.mark_done(a)
    _, size = log.read_record()
    log.advance_tail(size)
    assert log.reserve(8) is not None


def test_oversized_record_is_a_config_error():
    log, _ = make_log(64)
    with pytest.raises(LogError):
        log.reserve(65)


def test_size_must_be_power_of_two():
    eng = Engine()
    mem = PhysMemory(0)
    base = mem.reserve_region("log", 96)
    with pytest.raises(LogError):
        AccessLog(eng, mem, 1, base, 96)


def test_fault_log_drops_on_overflow():
    flog = FaultLog(2)
    rec = LogRecord(0, 1, 0, 0, 8, FLAG_BLOCKED, 0)
    assert flog.append(rec)
    assert flog.append(rec)
    assert not flog.append(rec)
    assert flog.drops == 1
    assert len(flog.entries) == 2


def test_fault_log_rejects_data_records():
    flog = FaultLog(4)
    with pytest.raises(LogError):
        flog.append(LogRecord(0, 1, 0, 0, 8, FLAG_DATA, 0))


class ReferenceRing:
    """A ring kept in an unbacked PhysMemory: every ring write and read goes
    through PhysMemory.write and read, split where the ring wraps."""

    def __init__(self, size):
        self.memory = PhysMemory(0)
        self.memory.reserve_region("before", PAGE_SIZE)
        self.base = self.memory.reserve_region("log", size)
        self.memory.reserve_region("after", PAGE_SIZE)
        self.size = size

    def write(self, voffset, payload):
        pos = self.base + voffset % self.size
        room = self.base + self.size - pos
        self.memory.write(pos, payload[:room])
        if len(payload) > room:
            self.memory.write(self.base, payload[room:])

    def read(self, voffset, nbytes):
        pos = self.base + voffset % self.size
        first = min(nbytes, self.base + self.size - pos)
        out = self.memory.read(pos, first)
        if first < nbytes:
            out += self.memory.read(self.base, nbytes - first)
        return out

    def record(self, tail, committed):
        """What read_record gives: None, (record, size), or LogError when
        the committed prefix ends inside the record."""
        if committed < HEADER_BYTES:
            return None
        rec = LogRecord(*HEADER.unpack(self.read(tail, HEADER_BYTES)))
        if not rec.flags & FLAG_DATA:
            return rec, HEADER_BYTES
        if committed < record_size(rec.length, True):
            return LogError
        rec.payload = self.read(tail + HEADER_BYTES, rec.length)
        return rec, record_size(rec.length, True)


def pattern(length, seed):
    return bytes((seed + 7 * i) % 256 for i in range(length))


RING_OPS = st.one_of(
    st.tuples(st.just("reserve"), st.integers(1, 600), st.booleans()),
    st.tuples(st.just("write"), st.integers(0, 7), st.integers(0, 600), st.integers(1, 600),
              st.integers(0, 255)),
    st.tuples(st.just("done"), st.integers(0, 7)),
    st.tuples(st.just("consume"),),
    # Plain memory traffic on and around the ring region: (offset from the
    # ring's base, length, pattern seed).
    st.tuples(st.just("mem_write"), st.integers(-64, 4096 + 64), st.integers(1, 600),
              st.integers(0, 255)),
    st.tuples(st.just("mem_read"), st.integers(-64, 4096 + 64), st.integers(1, 600)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1 << k for k in range(5, 13)]),
    st.integers(0, 4096),
    st.lists(RING_OPS, max_size=60),
)
def test_backed_ring_matches_a_ring_kept_in_the_line_store(size, lead, ops):
    ref = ReferenceRing(size)
    mem = PhysMemory(0)
    mem.reserve_region("before", PAGE_SIZE)
    base = mem.reserve_region("log", size)
    mem.reserve_region("after", PAGE_SIZE)
    assert base == ref.base
    log = AccessLog(Engine(), mem, 5, base, size)
    # One record consumed up front starts the ops at any offset, so that
    # headers and payloads often wrap.
    lead = lead // 8 * 8 % size
    if lead >= HEADER_BYTES:
        length = lead - HEADER_BYTES
        offset = log.reserve(lead)
        record = HEADER.pack(0, 1, 5, 0, length, FLAG_DATA if length else 0, take_seq(log))
        record += pattern(length, lead)
        log.ring_write(offset, record)
        ref.write(offset, record)
        log.mark_done(offset)
        log.advance_tail(log.read_record()[1])
    open_recs = []  # [offset, length, with_data] reserved and not yet done
    span = -(-size // LINE_SIZE) * LINE_SIZE + LINE_SIZE  # backed lines and the next
    for op in ops:
        kind = op[0]
        if kind == "reserve":
            _, length, with_data = op
            nbytes = record_size(length, with_data)
            if nbytes > size:
                with pytest.raises(LogError):
                    log.reserve(nbytes)
                continue
            try:
                offset = log.reserve(nbytes)
            except WouldBlock:
                continue
            header = HEADER.pack(0, 1, 5, offset, length, FLAG_DATA if with_data else 0, take_seq(log))
            log.ring_write(offset, header)
            ref.write(offset, header)
            open_recs.append([offset, length, with_data])
        elif kind == "write" and open_recs:
            _, k, at, length, seed = op
            offset, rec_len, with_data = open_recs[k % len(open_recs)]
            if not with_data:
                continue
            at %= rec_len
            chunk = pattern(min(length, rec_len - at), seed)
            log.ring_write(offset + HEADER_BYTES + at, chunk)
            ref.write(offset + HEADER_BYTES + at, chunk)
        elif kind == "done" and open_recs:
            offset = open_recs.pop(op[1] % len(open_recs))[0]
            log.mark_done(offset)
        elif kind == "consume":
            # Plain writes may have changed a header's length or flags.
            try:
                got = log.read_record()
            except LogError:
                got = LogError
            assert got == ref.record(log.tail, log.committed_head - log.tail)
            if got not in (None, LogError):
                log.advance_tail(got[1])
        elif kind == "mem_write":
            _, at, length, seed = op
            mem.write(base + at, pattern(length, seed))
            ref.memory.write(base + at, pattern(length, seed))
        elif kind == "mem_read":
            _, at, length = op
            assert mem.read(base + at, length) == ref.memory.read(base + at, length)
        assert mem.read(base, size) == ref.memory.read(base, size)
        if log.head:  # the ring is backed from its first reservation on
            assert log.ring_read(0, size) == ref.read(0, size)
    assert mem.read(0, mem.size) == ref.memory.read(0, ref.memory.size)
    for line in range(base - LINE_SIZE, base + span, LINE_SIZE):
        assert mem.read(line, LINE_SIZE) == ref.memory.read(line, LINE_SIZE), line
