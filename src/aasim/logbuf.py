"""Access-log ring buffers and the system fault log.

Each logging domain (IUID) owns one power-of-two ring in host memory. The
producer side reserves each transaction's record, stores its header and
data through the ring's writers, and may complete records out of order; a
committed-head pointer publishes only the hole-free prefix, so consumers
never observe a partially filled record. Offsets are virtual (monotonic)
and wrap at byte granularity on the ring.

A ring is one buffer that backs the ring's lines in the node's memory
(``PhysMemory.back_region``), from its first reservation on; every ring
write and read follows one. A ring write or read is one slice of the
buffer, two when it wraps, and a header is unpacked in place;
``PhysMemory.read`` and ``write`` of the ring region see and change the same
bytes.
"""

import struct
from collections import deque
from dataclasses import dataclass

from .engine import Signal

HEADER = struct.Struct("<BHHQHBQ")
HEADER_BYTES = HEADER.size  # 24

FLAG_DATA = 0x01
FLAG_BLOCKED = 0x02


class LogError(Exception):
    pass


def record_size(length, with_data):
    return HEADER_BYTES + ((length + 7) & ~7 if with_data else 0)


@dataclass(slots=True)
class LogRecord:
    op_kind: int  # paging.PUT or paging.GET
    device_id: int
    iuid: int
    dev_addr: int
    length: int
    flags: int
    seq_no: int
    payload: bytes = None

    @property
    def data_present(self):
        return bool(self.flags & FLAG_DATA)

    @property
    def blocked(self):
        return bool(self.flags & FLAG_BLOCKED)


class AccessLog:
    """One domain's ring, which numbers and lays out its own records. Never
    drops; a producer that cannot reserve stalls until the consumer frees space."""

    def __init__(self, engine, memory, iuid, base, size):
        if size <= 0 or size & (size - 1):
            raise LogError("log size %d not a power of two" % size)
        self.engine = engine
        self.memory = memory
        self.iuid = iuid
        self.base = base
        self.size = size
        self._ring = None  # memoryview of the ring's buffer, from the first reserve
        self.head = 0  # producer reservation frontier (virtual)
        self.committed_head = 0  # hole-free prefix boundary
        self.tail = 0  # consumer frontier
        self._reserved = {}  # offset -> [end, done]; tiles committed_head..head
        self.next_seq = 0
        self.space_freed = Signal(engine)
        self.commit_hooks = []
        self.flush_waiters = deque()  # (mark, flush request); the head is active
        self.records_committed = 0
        self.records_consumed = 0
        self.reserve_failures = 0

    @property
    def pending_records(self):
        return self.records_committed - self.records_consumed

    def reserve(self, nbytes):
        """Claim nbytes at the head; returns the virtual offset.

        Returns None, and counts a reserve failure, when the ring is too
        full; a record that could never fit is a configuration error.
        """
        if nbytes > self.size:
            raise LogError(
                "record of %d bytes can never fit log of %d" % (nbytes, self.size)
            )
        if nbytes > self.size - (self.head - self.tail):  # more than the consumer has left free
            self.reserve_failures += 1
            return None
        if self._ring is None:
            # A domain that never logs costs no buffer.
            self._ring = self.memory.back_region(self.base, self.size)
        offset = self.head
        self.head = end = offset + nbytes
        self._reserved[offset] = [end, False]
        return offset

    def write_header(self, offset, op, device_id, dev_addr, length, with_data, blocked):
        """Store the header of the record reserved at offset, numbered next."""
        seq = self.next_seq
        self.next_seq = seq + 1
        flags = (FLAG_DATA if with_data else 0) | (FLAG_BLOCKED if blocked else 0)
        self.ring_write(offset, HEADER.pack(op, device_id, self.iuid, dev_addr, length, flags, seq))

    def write_data(self, offset, at, payload):
        """Store payload at byte at of the data of the record at offset."""
        self.ring_write(offset + HEADER_BYTES + at, payload)

    def ring_write(self, voffset, payload):
        size = self.size
        pos = voffset % size
        end = pos + len(payload)
        if end <= size:
            self._ring[pos:end] = payload
        else:
            room = size - pos  # bytes before the ring wraps
            self._ring[pos:size] = payload[:room]
            self._ring[: end - size] = payload[room:]

    def ring_read(self, voffset, nbytes):
        size = self.size
        pos = voffset % size
        end = pos + nbytes
        if end <= size:
            return self._ring[pos:end].tobytes()
        return self._ring[pos:size].tobytes() + self._ring[: end - size].tobytes()

    def mark_done(self, offset):
        """Complete the reservation at offset and advance committed_head over
        the done prefix; returns the records published."""
        reserved = self._reserved
        entry = reserved.get(offset)
        if entry is None or entry[1]:
            raise LogError("bad completion for reservation at %d" % offset)
        entry[1] = True
        published = 0
        head = self.committed_head
        entry = reserved.get(head)
        while entry is not None and entry[1]:
            del reserved[head]
            head = entry[0]
            published += 1
            entry = reserved.get(head)
        if published:
            self.committed_head = head
            self.records_committed += published
            for hook in self.commit_hooks:
                hook(self)
        return published

    def read_record(self):
        """Parse the record at the tail; returns (LogRecord, size) or None."""
        committed = self.committed_head - self.tail
        if committed < HEADER_BYTES:
            return None
        pos = self.tail % self.size
        if pos + HEADER_BYTES <= self.size:
            rec = LogRecord(*HEADER.unpack_from(self._ring, pos))
        else:
            rec = LogRecord(*HEADER.unpack(self.ring_read(self.tail, HEADER_BYTES)))
        if rec.flags & FLAG_DATA:
            size = HEADER_BYTES + ((rec.length + 7) & ~7)  # record_size, inlined
            if committed < size:
                raise LogError("committed prefix ends inside a record")
            rec.payload = self.ring_read(self.tail + HEADER_BYTES, rec.length)
            return rec, size
        return rec, HEADER_BYTES

    def advance_tail(self, nbytes):
        if self.tail + nbytes > self.committed_head:
            raise LogError("tail advance past committed head")
        self.tail += nbytes
        self.records_consumed += 1
        if self.space_freed._waiters:  # only a stalled pipeline head waits
            self.space_freed.fire()


# Entries the system fault log keeps before it drops and counts the rest.
FAULT_LOG_ENTRIES = 256


class FaultLog:
    """System-wide metadata ring; overflow drops (and counts) entries."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.drops = 0
        self.next_seq = 0

    def append(self, op, device_id, dev_addr, length, blocked):
        """Log an access's metadata under iuid 0, numbered next even if dropped."""
        seq = self.next_seq
        self.next_seq = seq + 1
        if len(self.entries) >= self.capacity:
            self.drops += 1
            return False
        self.entries.append(
            LogRecord(op, device_id, 0, dev_addr, length, FLAG_BLOCKED if blocked else 0, seq))
        return True
