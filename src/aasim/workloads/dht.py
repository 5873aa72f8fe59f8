"""The distributed hash table workload in all scheme variants.

Every rank owns a volume: a bucket table plus an overflow heap, both arrays
of 16-byte cells {elem, ptr}, with a next-free-cell word and per-bucket
last-element pointers beside them. The traditional variant runs the insert
as a remote atomic sequence; the active variants ship one put and let the
owner's handler do the same steps locally; the message-passing variant sends
the element to the owner's inbox. All variants share local_insert and
local_delete so their final contents can be compared cell for cell.
"""

from collections import Counter
from fractions import Fraction
from math import ceil

from ..config import ConfigError
from ..engine import Barrier
from ..memory import PAGE_SIZE, WORD, words
from ..sim import Simulation
from . import keys as K

CELL = 16
EMPTY = 0
_READ_CHUNK = 1 << 20
_ZERO_PAGE = bytes(PAGE_SIZE)


class DhtOverflow(RuntimeError):
    """The overflow heap ran out of cells; a real store would resize here."""


class VolumeLayout:
    """Address arithmetic for one rank's volume."""

    def __init__(self, base, meta_base, vol_size):
        self.base = base
        self.meta_base = meta_base
        self.vol_size = vol_size
        self.table_size = vol_size // 2  # the overflow heap is the other half

    def elem_addr(self, index):
        return self.base + CELL * index

    def ptr_addr(self, index):
        return self.base + CELL * index + 8

    @property
    def next_free_addr(self):
        return self.meta_base

    def last_ptr_addr(self, bucket):
        return self.meta_base + 8 + 8 * bucket

    @property
    def table_bytes(self):
        return self.table_size * CELL

    @property
    def volume_bytes(self):
        return self.vol_size * CELL

    @property
    def meta_bytes(self):
        raw = 8 + 8 * self.table_size
        return (raw + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def build_volume(proc, vol_size):
    layout = VolumeLayout(0, 0, vol_size)
    layout.base = proc.memory.reserve_region("volume", layout.volume_bytes)
    layout.meta_base = proc.memory.reserve_region("volmeta", layout.meta_bytes)
    proc.memory.write_word(layout.next_free_addr, layout.table_size)
    return layout


# -- the shared local core --------------------------------------------------


def local_insert(rw, layout, elem):
    """Single-consumer insert over read/write words; mirrors the remote
    atomic sequence step for step."""
    pos = K.bucket_of(K.hash64(elem), layout.table_size)
    head = layout.elem_addr(pos)
    if rw.read_word(head) == EMPTY:
        rw.write_word(head, elem)
        return
    free_cell = rw.read_word(layout.next_free_addr)
    rw.write_word(layout.next_free_addr, free_cell + 1)
    if free_cell >= layout.vol_size:
        raise DhtOverflow("volume full (%d cells); needs a resize" % layout.vol_size)
    rw.write_word(layout.elem_addr(free_cell), elem)
    prev_ptr = rw.read_word(layout.last_ptr_addr(pos))
    rw.write_word(layout.last_ptr_addr(pos), free_cell)
    if rw.read_word(layout.ptr_addr(pos)) == EMPTY:
        rw.write_word(layout.ptr_addr(pos), free_cell)
    else:
        rw.write_word(layout.ptr_addr(prev_ptr), free_cell)


def local_delete(rw, layout, key):
    """Clear every cell in key's bucket chain holding key; chain stays."""
    pos = K.bucket_of(K.hash64(key), layout.table_size)
    if rw.read_word(layout.elem_addr(pos)) == key:
        rw.write_word(layout.elem_addr(pos), EMPTY)
    ptr = rw.read_word(layout.ptr_addr(pos))
    hops = 0
    while ptr != EMPTY and hops <= layout.vol_size:
        if rw.read_word(layout.elem_addr(ptr)) == key:
            rw.write_word(layout.elem_addr(ptr), EMPTY)
        ptr = rw.read_word(layout.ptr_addr(ptr))
        hops += 1


def extract_contents(memory, layout):
    """Multiset of stored elements, position independent.

    Reads the volume in bulk slices and unpacks only the pages that hold
    data, since almost every cell of a default-size volume is empty.
    """
    found = Counter()
    end = layout.base + layout.volume_bytes
    for addr in range(layout.base, end, _READ_CHUNK):
        buf = memory.read(addr, min(_READ_CHUNK, end - addr))
        for off in range(0, len(buf), PAGE_SIZE):
            page = buf[off : off + PAGE_SIZE]
            if page != _ZERO_PAGE:
                found.update(words(page)[:: CELL // 8])
    del found[EMPTY]
    return found


# -- remote insert and delete paths -----------------------------------------


def insert_rma(proc, owner, layout, elem, pos):
    """The six-to-eight remote-op insert sequence; pos is elem's bucket."""
    old = yield from proc.cas(owner, layout.elem_addr(pos), EMPTY, elem)
    if old != EMPTY:
        free_cell = yield from proc.fao(owner, "sum", 1, layout.next_free_addr)
        if free_cell >= layout.vol_size:
            raise DhtOverflow("volume at rank %d full; needs a resize" % owner)
        yield from proc.put(owner, layout.elem_addr(free_cell), WORD.pack(elem))
        yield from proc.rma_flush(owner)
        prev_ptr = yield from proc.fao(owner, "replace", free_cell, layout.last_ptr_addr(pos))
        old_ptr = yield from proc.cas(owner, layout.ptr_addr(pos), EMPTY, free_cell)
        if old_ptr != EMPTY:
            yield from proc.put(owner, layout.ptr_addr(prev_ptr), WORD.pack(free_cell))
            yield from proc.rma_flush(owner)


def delete_rma(proc, owner, layout, key, pos):
    """Walk the bucket chain remotely, swapping out every matching cell;
    pos is key's bucket."""
    cell, hops = pos, 0
    while True:
        handle = yield from proc.get(owner, layout.elem_addr(cell), CELL)
        yield from handle.wait()
        elem, ptr = words(handle.data)
        if elem == key:
            yield from proc.cas(owner, layout.elem_addr(cell), key, EMPTY)
        if ptr == EMPTY or hops > layout.vol_size:
            return
        cell, hops = ptr, hops + 1


# -- benchmark assembly ------------------------------------------------------


class DhtNode:
    """Owner-side handlers of the active and message schemes; each decodes
    the element word that leads its payload."""

    def __init__(self, layout):
        self.layout = layout

    def insert_handler(self, ctx, record):
        local_insert(ctx, self.layout, WORD.unpack_from(record.payload)[0])

    def delete_handler(self, ctx, record):
        local_delete(ctx, self.layout, WORD.unpack_from(record.payload)[0])

    def am_handler(self, ctx, src, payload):
        local_insert(ctx, self.layout, WORD.unpack_from(payload)[0])


class DhtBench:
    """Builds one simulation running the configured scheme, with an optional
    delete phase.

    ``keys(rng, rank, table_size)``, when given, returns rank's insert
    keys for tables of table_size buckets, drawn from the rank's own stream;
    a rank given no keys is not a source. Without it every rank draws ``cfg.ops_per_proc`` keys with
    ``keys.collision_keys`` at the configured collision ratio. Whatever the
    keys, ``run()`` measures the collisions off the tables.
    """

    WARMUP_OPS = 16

    def __init__(self, cfg, delete_fraction=0.0, keys=None):
        self.sim = Simulation(cfg)
        if not 0.0 <= delete_fraction <= 1.0:
            raise ConfigError("delete_fraction must be in [0, 1], not %r" % delete_fraction)
        if delete_fraction > 0.0 and cfg.scheme == "am":
            raise ConfigError("the am scheme has no delete path; use delete_fraction 0")
        table_size = cfg.vol_size // 2  # as VolumeLayout derives it
        if cfg.scheme.startswith("aa") and table_size * CELL % PAGE_SIZE:
            raise ConfigError(
                "table of %d cells (%d B) is not a whole number of pages: under %s the"
                " logged table and the plain heap cannot share a page"
                % (table_size, table_size * CELL, cfg.scheme)
            )
        if cfg.r_comp > 0.0 and cfg.ops_per_proc <= self.WARMUP_OPS:
            raise ConfigError(
                "r_comp > 0 needs more than %d ops per proc: the compute gap is sized on"
                " each source's first %d inserts" % (self.WARMUP_OPS, self.WARMUP_OPS)
            )
        self.cfg = cfg
        self.scheme = cfg.scheme
        self.delete_fraction = delete_fraction
        self.table_size = table_size
        self.layouts = []
        self.delete_pages = []
        self.plan = []  # per rank: list of ("insert"|"delete", key)
        self._build_nodes()
        self._build_plan(keys)
        # Cheap bound first: no owner takes more cells than the plan has ops.
        if sum(map(len, self.plan)) > table_size:
            cells = self.overflow_cells()
            owner = max(range(cfg.num_procs), key=cells.__getitem__)
            if cells[owner] > table_size:
                raise ConfigError(
                    "inserts at rank %d need %d overflow cells, more than the %d of its"
                    " heap (vol_size / 2)" % (owner, cells[owner], table_size)
                )

    # -- construction ----------------------------------------------------

    def _build_nodes(self):
        cfg = self.cfg
        active = self.scheme.startswith("aa")
        for proc in self.sim.procs:
            layout = build_volume(proc, cfg.vol_size)
            node = DhtNode(layout)
            self.layouts.append(layout)
            if active:
                ins_id = proc.register_handler(node.insert_handler)
                del_id = proc.register_handler(node.delete_handler)
                proc.assoc_page(
                    layout.base, ins_id, span=layout.table_bytes, wl=True, wld=True, e=True, r=True
                )
                proc.map_plain(
                    layout.base + layout.table_bytes,
                    r=True,
                    span=layout.volume_bytes - layout.table_bytes,
                )
                dpage = proc.memory.reserve_region("delpage", PAGE_SIZE)
                proc.assoc_page(dpage, del_id, wl=True, wld=True, e=True)
                self.delete_pages.append(dpage)
            else:
                proc.map_plain(layout.base, w=True, r=True, span=layout.volume_bytes)
                proc.map_plain(layout.meta_base, w=True, r=True, span=layout.meta_bytes)
                self.delete_pages.append(None)
                if self.scheme == "am":
                    proc.setup_inbox(node.am_handler)

    def _build_plan(self, keys):
        """Each rank's ops: its inserts from ``keys``, or from the collision
        draw when keys is None, then its deletes.

        A delete phase deletes insert i when ceil(i * f) < ceil((i + 1) * f)
        for f = delete_fraction: ceil(n * f) of n inserts, evenly spaced from
        the first. f is taken as the decimal it prints as, so that 0.1 is
        exactly 1/10 and not the nearest binary double.
        """
        cfg, f = self.cfg, Fraction(str(self.delete_fraction))
        if keys is None:

            def keys(rng, _rank, table_size):
                return K.collision_keys(rng, cfg.num_procs, table_size, cfg.r_cols, cfg.ops_per_proc)

        for rank in range(cfg.num_procs):
            inserts = keys(self.sim.rng_for(3, rank), rank, self.table_size)
            ops = [("insert", k) for k in inserts]
            if f:
                ops.extend(
                    ("delete", k) for i, k in enumerate(inserts) if ceil(i * f) < ceil((i + 1) * f)
                )
            self.plan.append(ops)

    def overflow_cells(self):
        """Overflow-heap cells each owner's planned inserts take.

        Every insert runs before any delete, and each takes a heap cell
        except the first into its bucket, so an owner uses its inserts minus
        the distinct buckets they land in.
        """
        procs = self.cfg.num_procs
        cells = [0] * procs
        spots = set()
        for ops in self.plan:
            for kind, key in ops:
                if kind == "insert":
                    spot = K.placement(key, procs, self.table_size)
                    cells[spot[0]] += 1
                    spots.add(spot)
        for owner, _bucket in spots:
            cells[owner] -= 1
        return cells

    # -- execution -------------------------------------------------------

    def _issue(self, proc, kind, key):
        """Issue one op and count it."""
        owner, pos = K.placement(key, self.cfg.num_procs, self.table_size)
        layout = self.layouts[owner]
        if kind == "insert":
            if self.scheme == "rma":
                yield from insert_rma(proc, owner, layout, key, pos)
            elif self.scheme == "am":
                yield from proc.am_send(owner, WORD.pack(key))
            else:  # the active insert: one put, the owner's handler does the rest
                yield from proc.put(owner, layout.elem_addr(pos), WORD.pack(key))
        elif self.scheme == "rma":
            yield from delete_rma(proc, owner, layout, key, pos)
        else:
            yield from proc.put(owner, self.delete_pages[owner], WORD.pack(key))
        self.sim.metrics.ops += 1

    def _app(self, rank, barrier):
        proc = self.sim.procs[rank]
        ops = self.plan[rank]
        inserts = [op for op in ops if op[0] == "insert"]
        deletes = [op for op in ops if op[0] == "delete"]
        engine, r = self.sim.engine, self.cfg.r_comp
        gap = 0.0
        started = engine.now
        for i, (kind, key) in enumerate(inserts):
            if gap:
                wait = proc.cpu.busy(gap)
                if wait > 0:
                    yield wait
            yield from self._issue(proc, kind, key)
            if i + 1 == self.WARMUP_OPS and r > 0.0:
                gap = r / (1.0 - r) * ((engine.now - started) / self.WARMUP_OPS)
        if deletes:
            yield from self._fence(proc)
            yield from barrier.arrive()
            for kind, key in deletes:
                yield from self._issue(proc, kind, key)
        yield from self._fence(proc)

    def _fence(self, proc):
        """Consumption barrier towards every owner this scheme needs one for."""
        if self.scheme.startswith("aa"):
            for owner in range(self.cfg.num_procs):
                if owner != proc.rank:
                    yield from proc.flush(owner)
        elif self.scheme == "rma":
            for owner in range(self.cfg.num_procs):
                if owner != proc.rank:
                    yield from proc.rma_flush(owner)

    def run(self):
        sources = [r for r in range(self.cfg.num_procs) if self.plan[r]]
        barrier = Barrier(self.sim.engine, len(sources))
        for rank in sources:
            self.sim.add_app(rank, self._app(rank, barrier))
        metrics = self.sim.run()
        # Every insert but the first into its bucket takes one overflow-heap
        # cell, in every scheme, so the heap cursors count the collisions.
        metrics.collisions = sum(
            proc.memory.read_word(layout.next_free_addr) - layout.table_size
            for proc, layout in zip(self.sim.procs, self.layouts)
        )
        return metrics

    # -- inspection ------------------------------------------------------

    def contents(self, rank):
        return extract_contents(self.sim.procs[rank].memory, self.layouts[rank])

    def oracle_contents(self, rank):
        """Reference contents at rank, from the plan alone: every key the
        plan inserts there, duplicates kept, less every key it deletes
        there. A delete clears every copy, and the delete phase starts at a
        barrier after every insert."""
        procs = self.cfg.num_procs
        mine = [
            op
            for ops in self.plan
            for op in ops
            if (((op[1] * K.FIB) & K.MASK64) >> 54) % procs == rank  # K.owner_of, inlined
        ]
        want = Counter(key for kind, key in mine if kind == "insert")
        for kind, key in mine:
            if kind == "delete":
                del want[key]
        return want
