"""The sparse line store against a dense reference model of the same contract."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aasim.memory import LINE_SIZE, PAGE_SIZE, MemoryError_, PhysMemory


class DenseMemory:
    """Reference: one flat bytearray grown by each reservation."""

    def __init__(self):
        self.data = bytearray()
        self.regions = []  # (name, base, span) in reservation order

    def reserve_region(self, name, size):
        if any(name == n for n, _b, _s in self.regions):
            raise MemoryError_("duplicate")
        if size <= 0:
            raise MemoryError_("empty")
        base = len(self.data)
        span = -(-size // PAGE_SIZE) * PAGE_SIZE
        self.data.extend(bytes(span))
        self.regions.append((name, base, span))
        return base

    @property
    def size(self):
        return len(self.data)

    def region_of(self, addr):
        for name, base, span in self.regions:
            if base <= addr < base + span:
                return name
        return None

    def _check(self, addr, length):
        if addr < 0 or length < 0 or addr + length > len(self.data):
            raise MemoryError_("outside")

    def read(self, addr, length):
        self._check(addr, length)
        return bytes(self.data[addr : addr + length])

    def write(self, addr, payload):
        self._check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_word(self, addr):
        if addr % 8:
            raise MemoryError_("unaligned")
        return int.from_bytes(self.read(addr, 8), "little")

    def write_word(self, addr, value):
        if addr % 8:
            raise MemoryError_("unaligned")
        self.write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))


# Addresses cluster on line boundaries, where the one-line fast path hands
# over to the two-line path and that to the loop, on page boundaries, and on
# the end of memory, where bounds bite. An address is (unit, index, delta):
# index * unit + delta, or the end of memory + delta when unit is 0.
DELTA = st.integers(-9, 9)
ADDRESS = st.one_of(
    st.tuples(st.just(0), st.just(0), DELTA),
    st.tuples(st.just(PAGE_SIZE), st.integers(0, 9), DELTA),
    st.tuples(st.just(LINE_SIZE), st.integers(0, 9 * PAGE_SIZE // LINE_SIZE), DELTA),
)
LENGTH = st.one_of(
    st.integers(-1, 16),
    st.integers(LINE_SIZE - 9, LINE_SIZE + 9),
    st.integers(2 * LINE_SIZE - 9, 2 * LINE_SIZE + 9),
    st.integers(PAGE_SIZE - 9, PAGE_SIZE + 9),
    st.integers(0, 2 * PAGE_SIZE + 17),
)
OPS = st.one_of(
    st.tuples(st.just("reserve"), st.sampled_from("abcd"), st.integers(-1, 3 * PAGE_SIZE + 5)),
    st.tuples(st.just("read"), ADDRESS, LENGTH),
    st.tuples(st.just("write"), ADDRESS, LENGTH, st.integers(0, 255)),
    st.tuples(st.just("read_word"), ADDRESS),
    st.tuples(st.just("write_word"), ADDRESS, st.integers(-(2**65), 2**65)),
)


def resolve(size, address):
    unit, index, delta = address
    return (index * unit if unit else size) + delta


def apply(mem, op):
    """Run one op; returns its result or the exception type it raised."""
    kind = op[0]
    try:
        if kind == "reserve":
            return mem.reserve_region(op[1], op[2])
        addr = resolve(mem.size, op[1])
        if kind == "read":
            return mem.read(addr, op[2])
        if kind == "write":
            length, seed = op[2], op[3]
            return mem.write(addr, bytes((seed + i) % 256 for i in range(max(length, 0))))
        if kind == "read_word":
            return mem.read_word(addr)
        return mem.write_word(addr, op[2])
    except MemoryError_:
        return MemoryError_


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_sparse_store_matches_dense_reference(ops):
    sparse, dense = PhysMemory(0), DenseMemory()
    for op in ops:
        assert apply(sparse, op) == apply(dense, op), op
    assert sparse.size == dense.size
    assert sparse.read(0, sparse.size) == bytes(dense.data)
    for addr in range(0, sparse.size, LINE_SIZE):
        assert sparse.read(addr, LINE_SIZE) == dense.read(addr, LINE_SIZE), addr
    for addr in range(0, sparse.size, PAGE_SIZE):
        assert sparse.read(addr, PAGE_SIZE) == dense.read(addr, PAGE_SIZE), addr
    probes = {-1, sparse.size, sparse.size + PAGE_SIZE}
    for _name, base, span in dense.regions:
        probes.update((base - 1, base, base + span // 2, base + span - 1, base + span))
    for addr in sorted(probes):
        assert sparse.region_of(addr) == dense.region_of(addr), addr


def test_every_short_access_near_a_page_boundary_matches_reference():
    # Exhaustive where the single-page fast path ends: an access that would
    # overrun its first page by even one byte must take the multi-page path.
    sparse, dense = PhysMemory(0), DenseMemory()
    for mem in (sparse, dense):
        mem.reserve_region("a", 2 * PAGE_SIZE)
    for addr in range(PAGE_SIZE - 12, PAGE_SIZE + 1):
        for length in range(14):
            op = ("write", (PAGE_SIZE, 0, addr), length, addr + length)
            assert apply(sparse, op) == apply(dense, op), op
            op = ("read", (PAGE_SIZE, 0, addr), length)
            assert apply(sparse, op) == apply(dense, op), op
    for addr in range(2 * PAGE_SIZE - 12, 2 * PAGE_SIZE + 1):
        for length in range(14):
            op = ("read", (PAGE_SIZE, 0, addr), length)
            assert apply(sparse, op) == apply(dense, op), op
    assert sparse.read(0, sparse.size) == bytes(dense.data)


def test_every_short_access_near_a_line_boundary_matches_reference():
    # Exhaustive where the one-line fast path hands over to the join (for
    # reads) or the loop over lines (for writes), short lengths up to 13,
    # and where an access spans one, two or three lines (lengths near one
    # and two lines).
    sparse, dense = PhysMemory(0), DenseMemory()
    for mem in (sparse, dense):
        mem.reserve_region("a", PAGE_SIZE)
    lengths = [*range(14), *range(LINE_SIZE, LINE_SIZE + 14), *range(2 * LINE_SIZE - 12, 2 * LINE_SIZE + 2)]
    for addr in range(LINE_SIZE - 12, LINE_SIZE + 1):
        for length in lengths:
            op = ("write", (LINE_SIZE, 0, addr), length, addr + length)
            assert apply(sparse, op) == apply(dense, op), op
            op = ("read", (LINE_SIZE, 0, addr), length)
            assert apply(sparse, op) == apply(dense, op), op
    assert sparse.read(0, sparse.size) == bytes(dense.data)


def _allocated_by(fn):
    """Bytes still allocated after fn() returns that it allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_untouched_pages_read_as_zero_and_cost_no_store():
    mem = PhysMemory(0)
    last = []

    def reserve_and_touch_last_word():
        base = mem.reserve_region("huge", 1 << 30)
        last.append(base + (1 << 30) - 8)
        assert mem.read_word(last[0]) == 0
        mem.write_word(last[0], 0xDEADBEEF)

    # A 1 GiB region holds one line: far less than one page.
    assert _allocated_by(reserve_and_touch_last_word) < PAGE_SIZE
    assert mem.read_word(last[0]) == 0xDEADBEEF
    assert mem.read(0, 4 * PAGE_SIZE) == bytes(4 * PAGE_SIZE)


def test_scattered_words_cost_a_line_each_not_a_page():
    # 1,000 words scattered over 32 MiB touch about 1,000 lines, well under
    # 1 MiB; a store of whole 4 KiB pages would hold about 4 MiB.
    mem = PhysMemory(0)
    base = mem.reserve_region("big", 32 << 20)
    rng = random.Random(1)
    addrs = [base + 8 * rng.randrange((32 << 20) // 8) for _ in range(1000)]

    def write_all():
        for addr in addrs:
            mem.write_word(addr, addr)

    assert _allocated_by(write_all) < 1 << 20
    assert all(mem.read_word(addr) == addr for addr in addrs)


def test_a_backed_region_keeps_its_bytes_and_shares_them_with_the_store():
    mem = PhysMemory(0)
    base = mem.reserve_region("ring", 3 * LINE_SIZE)
    mem.reserve_region("next", PAGE_SIZE)
    mem.write(base + LINE_SIZE - 4, b"abcdefgh")  # straddles lines 0 and 1
    view = mem.back_region(base, 2 * LINE_SIZE + 1)
    assert len(view) == 3 * LINE_SIZE  # whole lines, no more
    assert view[LINE_SIZE - 4 : LINE_SIZE + 4].tobytes() == b"abcdefgh"
    view[2 * LINE_SIZE - 2 : 2 * LINE_SIZE + 2] = b"WXYZ"
    assert mem.read(base + 2 * LINE_SIZE - 2, 4) == b"WXYZ"
    mem.write(base + 3 * LINE_SIZE - 3, b"123456")  # into the next region
    assert view[-3:].tobytes() == b"123"
    assert mem.read(base + 3 * LINE_SIZE, 3) == b"456"
    for bad in ((base + 8, 8), (base, 0), (base, mem.size + 1)):
        with pytest.raises(MemoryError_):
            mem.back_region(*bad)
