"""Per-node physical memory: a sparse page store with a page-aligned bump allocator.

Reserving a region only extends a page directory by one empty slot per page;
a page of backing store is allocated on its first write, and reading a page
never written returns zeros. Build cost and resident memory therefore follow
the pages a run touches, not the volumes it reserves.
"""

from bisect import bisect_right

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_OFFSET_MASK = PAGE_SIZE - 1


class MemoryError_(Exception):
    """Out-of-bounds or misaligned physical access."""


class PhysMemory:
    def __init__(self, node_id):
        self.node_id = node_id
        self._pages = []  # page number -> bytearray(PAGE_SIZE), or None if untouched
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
        is unique. No backing store is allocated until a page is written.
        """
        if name in self._regions:
            raise MemoryError_("region %r already reserved" % name)
        if size <= 0:
            raise MemoryError_("region size must be positive")
        base = self._bump
        span = -(-size // PAGE_SIZE) * PAGE_SIZE
        self._bump = base + span
        self._pages.extend([None] * (span // PAGE_SIZE))
        self._regions[name] = (base, span)
        self._bases.append(base)
        self._names.append(name)
        return base

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
        """(page number, offset, length) of each page the access spans."""
        while length > 0:
            off = addr & _OFFSET_MASK
            step = min(length, PAGE_SIZE - off)
            yield addr >> PAGE_SHIFT, off, step
            addr += step
            length -= step

    # Regions are whole pages, so an access that starts below the bump
    # pointer and stays inside its first page is in bounds.

    def read(self, addr, length):
        off = addr & _OFFSET_MASK
        if 0 <= addr < self._bump and 0 < length <= PAGE_SIZE - off:
            page = self._pages[addr >> PAGE_SHIFT]
            return bytes(length) if page is None else bytes(page[off : off + length])
        if addr < 0 or length < 0 or addr + length > self._bump:
            raise self._outside(addr, length)
        out = bytearray(length)
        pos = 0
        for vpn, off, step in self._pieces(addr, length):
            page = self._pages[vpn]
            if page is not None:
                out[pos : pos + step] = page[off : off + step]
            pos += step
        return bytes(out)

    def write(self, addr, payload):
        length = len(payload)
        off = addr & _OFFSET_MASK
        if 0 <= addr < self._bump and 0 < length <= PAGE_SIZE - off:
            vpn = addr >> PAGE_SHIFT
            page = self._pages[vpn]
            if page is None:
                page = self._pages[vpn] = bytearray(PAGE_SIZE)
            page[off : off + length] = payload
            return
        if addr < 0 or addr + length > self._bump:
            raise self._outside(addr, length)
        view = memoryview(payload)
        pos = 0
        for vpn, off, step in self._pieces(addr, length):
            page = self._pages[vpn]
            if page is None:
                page = self._pages[vpn] = bytearray(PAGE_SIZE)
            page[off : off + step] = view[pos : pos + step]
            pos += step

    def read_word(self, addr):
        if addr % 8:
            raise MemoryError_("unaligned word read at %d" % addr)
        return int.from_bytes(self.read(addr, 8), "little")

    def write_word(self, addr, value):
        if addr % 8:
            raise MemoryError_("unaligned word write at %d" % addr)
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))
