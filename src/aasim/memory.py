"""Per-node physical memory: a sparse line store with a page-aligned bump allocator.

Reserving a region only moves the bump pointer. Backing store comes in
256-byte lines, kept in a dict keyed by line number: a line is allocated on
its first write, and reading a line never written returns zeros. Build cost
and resident memory therefore follow the lines a run touches, not the volumes
it reserves, and a scattered 8-byte store costs one line rather than a page.
Regions and paging still work in 4 KiB pages.

A region's owner may instead back it with one buffer (``back_region``). Its
lines then enter the store as views of that buffer, so the owner moves a run
of bytes with one slice of the buffer, while ``read`` and ``write`` still go
through the store and see the same bytes. The access logs' rings are backed
this way.

Memory holds 8-byte little-endian words: this module owns that format. WORD
packs and unpacks one word; ``words`` and ``pack_words`` convert a run of
them at once.
"""

import struct
from bisect import bisect_right

PAGE_SIZE = 4096
PAGE_SHIFT = 12
LINE_SIZE = 256
LINE_SHIFT = 8
_LINE_MASK = LINE_SIZE - 1
_ZERO_LINE = bytes(LINE_SIZE)
# _INTO_LINE[n](line, off, payload) copies an n-byte payload into a line in
# place, and _FROM_LINE[n](line, off)[0] copies n bytes of a line out as bytes,
# each in one copy where going through a slice would take two.
_INTO_LINE = [struct.Struct("%ds" % n).pack_into for n in range(LINE_SIZE + 1)]
_FROM_LINE = [struct.Struct("%ds" % n).unpack_from for n in range(LINE_SIZE + 1)]
WORD = struct.Struct("<Q")


def words(data):
    """The 8-byte words of data, whose length is a multiple of 8, as a tuple."""
    return struct.unpack("<%dQ" % (len(data) // 8), data)


def pack_words(values):
    """The words of values, each in [0, 2**64), joined as bytes."""
    return struct.pack("<%dQ" % len(values), *values)


class MemoryError_(Exception):
    """Out-of-bounds or misaligned physical access."""


class PhysMemory:
    def __init__(self, node_id):
        self.node_id = node_id
        self._lines = {}  # line number -> bytearray(LINE_SIZE) once written, or a view
        self._regions = {}
        self._bases = []  # region bases, ascending by construction
        self._names = []
        self._bump = 0

    @property
    def size(self):
        return self._bump

    def reserve_region(self, name, size):
        """Reserve a page-aligned region; returns its base address.

        Regions never overlap by construction (bump allocation) and each name
        is unique. No backing store is allocated until a line is written.
        """
        if name in self._regions:
            raise MemoryError_("region %r already reserved" % name)
        if size <= 0:
            raise MemoryError_("region size must be positive")
        base = self._bump
        span = -(-size // PAGE_SIZE) * PAGE_SIZE
        self._bump = base + span
        self._regions[name] = (base, span)
        self._bases.append(base)
        self._names.append(name)
        return base

    def back_region(self, base, size):
        """Back the whole lines covering [base, base + size) with one
        bytearray and return a memoryview of it; each line's store entry
        becomes a view of its 256 bytes, holding what the line held. base
        must start a line."""
        if base & _LINE_MASK or size <= 0 or base < 0 or base + size > self._bump:
            raise MemoryError_("cannot back [%d, %d) with one buffer" % (base, base + size))
        count = -(-size // LINE_SIZE)
        view = memoryview(bytearray(count * LINE_SIZE))
        lines = self._lines
        first = base >> LINE_SHIFT
        for i in range(count):
            line = view[i * LINE_SIZE : (i + 1) * LINE_SIZE]
            old = lines.get(first + i)
            if old is not None:
                line[:] = old
            lines[first + i] = line
        return view

    def region(self, name):
        return self._regions[name]

    def region_of(self, addr):
        i = bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        name = self._names[i]
        base, span = self._regions[name]
        return name if addr < base + span else None

    def _outside(self, addr, length):
        return MemoryError_(
            "access [%d, %d) outside memory of node %s (size %d)"
            % (addr, addr + length, self.node_id, self._bump)
        )

    def _pieces(self, addr, length):
        """(line number, offset, length) of each line a write spans."""
        while length > 0:
            off = addr & _LINE_MASK
            step = min(length, LINE_SIZE - off)
            yield addr >> LINE_SHIFT, off, step
            addr += step
            length -= step

    # Regions are whole pages and lines divide pages, so an access that
    # starts below the bump pointer and stays inside its first line is in
    # bounds. A longer read joins its lines in one call; a longer write loops.

    def read(self, addr, length):
        off = addr & _LINE_MASK
        if 0 <= addr < self._bump and 0 < length <= LINE_SIZE - off:
            line = self._lines.get(addr >> LINE_SHIFT)
            return bytes(length) if line is None else _FROM_LINE[length](line, off)[0]
        if addr < 0 or length < 0 or addr + length > self._bump:
            raise self._outside(addr, length)
        get = self._lines.get
        end = (addr + length + _LINE_MASK) >> LINE_SHIFT
        whole = b"".join([get(n, _ZERO_LINE) for n in range(addr >> LINE_SHIFT, end)])
        return whole[off : off + length]

    def write(self, addr, payload):
        """Store payload, bytes or bytearray, at addr."""
        length = len(payload)
        off = addr & _LINE_MASK
        if 0 <= addr < self._bump and 0 < length <= LINE_SIZE - off:
            n = addr >> LINE_SHIFT
            line = self._lines.get(n)
            if line is None:
                line = self._lines[n] = bytearray(LINE_SIZE)
            _INTO_LINE[length](line, off, payload)
            return
        if addr < 0 or addr + length > self._bump:
            raise self._outside(addr, length)
        lines = self._lines
        view = memoryview(payload)
        pos = 0
        for n, off, step in self._pieces(addr, length):
            line = lines.get(n)
            if line is None:
                line = lines[n] = bytearray(LINE_SIZE)
            line[off : off + step] = view[pos : pos + step]
            pos += step

    def read_word(self, addr):
        if addr % 8:
            raise MemoryError_("unaligned word read at %d" % addr)
        return WORD.unpack(self.read(addr, 8))[0]

    def write_word(self, addr, value):
        if addr % 8:
            raise MemoryError_("unaligned word write at %d" % addr)
        self.write(addr, WORD.pack(value & (2**64 - 1)))
