import pytest

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
from aasim.memory import PhysMemory


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
    log.ring_write(off, HEADER.pack(0, 1, 5, 0x1000, 8, FLAG_DATA, log.take_seq()))
    log.ring_write(off + HEADER_BYTES, b"ABCDEFGH")
    assert log.read_record() is None  # not yet committed
    log.mark_done(off)
    got, size = log.read_record()
    assert got.payload == b"ABCDEFGH"
    assert got.dev_addr == 0x1000 and got.seq_no == 0
    log.advance_tail(size)
    assert log.drained()


def test_out_of_order_commits_publish_in_reservation_order():
    log, _ = make_log(256)
    offs = [log.reserve(32) for _ in range(3)]
    for off in offs:
        log.ring_write(off, HEADER.pack(0, 1, 5, off, 8, FLAG_DATA, log.take_seq()))
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
    log.ring_write(off, HEADER.pack(0, 1, 5, 0, 16, FLAG_DATA, log.take_seq()))
    log.ring_write(off + HEADER_BYTES, bytes(range(16)))
    log.mark_done(off)
    _, size = log.read_record()
    log.advance_tail(size)
    # second record wraps the physical end of the ring
    off = log.reserve(40)
    assert off == 40
    payload = bytes(range(100, 116))
    log.ring_write(off, HEADER.pack(0, 1, 5, 0, 16, FLAG_DATA, log.take_seq()))
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
    log.ring_write(a, HEADER.pack(0, 1, 5, 0, 8, FLAG_DATA, log.take_seq()))
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
