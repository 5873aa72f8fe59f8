"""The distributed hash table workload in all scheme variants.

Every rank owns a volume: a bucket table plus an overflow heap, both arrays
of 16-byte cells {elem, ptr}, with a next-free-cell word and per-bucket
last-element pointers beside them. The traditional variant runs the insert
as a remote atomic sequence; the active variants ship one put and let the
owner's handler do the same steps locally; the message-passing variant sends
the element to the owner's inbox. All variants share local_insert and
local_delete so their final contents can be compared cell for cell.
"""

import struct
import sys
from array import array
from collections import Counter

from ..config import ConfigError
from ..engine import Barrier
from ..memory import PAGE_SIZE
from ..sim import Simulation
from . import keys as K

CELL = 16
EMPTY = 0
_READ_CHUNK = 1 << 20
_WORD = struct.Struct("<Q")


class DhtOverflow(RuntimeError):
    """The overflow heap ran out of cells; a real store would resize here."""


def word(value):
    return value.to_bytes(8, "little")


class VolumeLayout:
    """Address arithmetic for one rank's volume."""

    def __init__(self, base, meta_base, vol_size, table_size):
        self.base = base
        self.meta_base = meta_base
        self.vol_size = vol_size
        self.table_size = table_size

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


def build_volume(proc, vol_size, table_size):
    layout = VolumeLayout(0, 0, vol_size, table_size)
    layout.base = proc.memory.reserve_region("volume", layout.volume_bytes)
    layout.meta_base = proc.memory.reserve_region("volmeta", layout.meta_bytes)
    proc.memory.write_word(layout.next_free_addr, table_size)
    return layout


# -- the shared local core (handler side and oracle side) -------------------


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

    Reads the volume in bulk slices and unpacks each slice's words at once.
    """
    found = Counter()
    end = layout.base + layout.volume_bytes
    for addr in range(layout.base, end, _READ_CHUNK):
        words = array("Q", memory.read(addr, min(_READ_CHUNK, end - addr)))
        if sys.byteorder != "little":
            words.byteswap()
        found.update(words[:: CELL // 8])
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
        yield from proc.put(owner, layout.elem_addr(free_cell), word(elem))
        yield from proc.rma_flush(owner)
        prev_ptr = yield from proc.fao(owner, "replace", free_cell, layout.last_ptr_addr(pos))
        old_ptr = yield from proc.cas(owner, layout.ptr_addr(pos), EMPTY, free_cell)
        if old_ptr != EMPTY:
            yield from proc.put(owner, layout.ptr_addr(prev_ptr), word(free_cell))
            yield from proc.rma_flush(owner)


def delete_rma(proc, owner, layout, key, pos):
    """Walk the bucket chain remotely, swapping out every matching cell;
    pos is key's bucket."""
    handle = yield from proc.get(owner, layout.elem_addr(pos), CELL)
    yield from handle.wait()
    elem = int.from_bytes(handle.data[0:8], "little")
    ptr = int.from_bytes(handle.data[8:16], "little")
    if elem == key:
        yield from proc.cas(owner, layout.elem_addr(pos), key, EMPTY)
    hops = 0
    while ptr != EMPTY and hops <= layout.vol_size:
        handle = yield from proc.get(owner, layout.elem_addr(ptr), CELL)
        yield from handle.wait()
        elem = int.from_bytes(handle.data[0:8], "little")
        if elem == key:
            yield from proc.cas(owner, layout.elem_addr(ptr), key, EMPTY)
        ptr = int.from_bytes(handle.data[8:16], "little")
        hops += 1


# -- oracle ------------------------------------------------------------------


class SequentialOracle:
    """Reference semantics: a per-owner multiset with remove-all deletes."""

    def __init__(self, procs, table_size):
        self.procs = procs
        self.table_size = table_size
        self.tables = [Counter() for _ in range(procs)]

    def insert_many(self, keys):
        """Insert keys in order; the owner is owner_of(hash64(key)), inlined."""
        procs = self.procs
        by_owner = [[] for _ in range(procs)]
        for key in keys:
            by_owner[((key * K.FIB & K.MASK64) >> 54) % procs].append(key)
        for table, owned in zip(self.tables, by_owner):
            table.update(owned)

    def delete(self, key):
        owner, _ = K.placement(key, self.procs, self.table_size)
        self.tables[owner][key] = 0

    def contents(self, rank):
        return Counter({k: n for k, n in self.tables[rank].items() if n > 0})


# -- benchmark assembly ------------------------------------------------------


class DhtNode:
    """Owner-side handlers of the active and message schemes; each decodes
    the element word that leads its payload."""

    def __init__(self, layout):
        self.layout = layout

    def insert_handler(self, ctx, record):
        local_insert(ctx, self.layout, _WORD.unpack_from(record.payload)[0])

    def delete_handler(self, ctx, record):
        local_delete(ctx, self.layout, _WORD.unpack_from(record.payload)[0])

    def am_handler(self, ctx, src, payload):
        local_insert(ctx, self.layout, _WORD.unpack_from(payload)[0])


class DhtBench:
    """Builds one simulation running the configured scheme over shared
    deterministic key streams, with an optional delete phase."""

    WARMUP_OPS = 16

    def __init__(
        self,
        cfg,
        delete_fraction=0.0,
        key_mode="collision",
        record_ops=False,
    ):
        cfg.validate()
        if not 0.0 <= delete_fraction <= 1.0:
            raise ConfigError("delete_fraction must be in [0, 1], not %r" % delete_fraction)
        if delete_fraction > 0.0 and cfg.scheme == "am":
            raise ConfigError("the am scheme has no delete path; use delete_fraction 0")
        table_size = cfg.vol_size // 2  # the overflow heap is the other half
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
        if key_mode == "skewed" and cfg.num_procs < 2:
            raise ConfigError("skewed keys need >= 2 procs: rank 0 is the hot owner, the rest are sources")
        fresh = cfg.ops_per_proc - int(cfg.ops_per_proc * cfg.r_cols)
        if key_mode == "collision" and fresh > cfg.num_procs * table_size:
            raise ConfigError(
                "%d fresh keys per source exceed the %d (owner, bucket) slots of %d procs"
                " x %d buckets" % (fresh, cfg.num_procs * table_size, cfg.num_procs, table_size)
            )
        self.cfg = cfg
        self.scheme = cfg.scheme
        self.delete_fraction = delete_fraction
        self.key_mode = key_mode
        self.record_ops = record_ops
        self.op_log = []  # (rank, kind, key, remote_ops_used) when recording
        self.sim = Simulation(cfg)
        self.table_size = table_size
        self.layouts = []
        self.delete_pages = []
        self.oracle = SequentialOracle(cfg.num_procs, self.table_size)
        self.plan = []  # per rank: list of ("insert"|"delete", key)
        self._build_nodes()
        self._build_plan()
        # Cheap bound first: an owner takes at most one cell per planned insert.
        if cfg.ops_per_proc * sum(1 for ops in self.plan if ops) > table_size:
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
            layout = build_volume(proc, cfg.vol_size, self.table_size)
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

    def _keys_for_rank(self, rank, count):
        rng = self.sim.rng_for(3, rank)
        if self.key_mode == "collision":
            stream = K.KeyStream(rng, self.cfg.num_procs, self.table_size, self.cfg.r_cols)
            self.streams.append(stream)
            return stream.take(count)
        if self.key_mode == "forced":
            return K.forced_collision_keys(
                rng,
                count,
                owner=(rank + 1) % self.cfg.num_procs,
                bucket=7,
                procs=self.cfg.num_procs,
                table_size=self.table_size,
            )
        if self.key_mode == "skewed":
            return K.skewed_bucket_keys(rng, count, 0, self.cfg.num_procs, self.table_size)
        raise ValueError("unknown key mode %r" % self.key_mode)

    def _build_plan(self):
        cfg = self.cfg
        self.streams = []
        victims = []
        for rank in range(cfg.num_procs):
            if not self._is_source(rank):
                self.plan.append([])
                continue
            inserts = self._keys_for_rank(rank, cfg.ops_per_proc)
            self.oracle.insert_many(inserts)
            ops = [("insert", k) for k in inserts]
            if self.delete_fraction > 0.0:
                step = max(1, int(round(1.0 / self.delete_fraction)))
                doomed = inserts[::step]
                ops.extend(("delete", k) for k in doomed)
                victims.extend(doomed)
            self.plan.append(ops)
        for key in victims:
            self.oracle.delete(key)

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

    def _is_source(self, rank):
        if self.key_mode == "forced":
            return rank == 0  # the one source aiming at a single bucket
        if self.key_mode == "skewed":
            return rank != 0  # rank 0 is the single hot owner
        return True

    # -- execution -------------------------------------------------------

    def _issue(self, proc, kind, key):
        """Issue one op and count it, with the remote ops it took when
        recording."""
        metrics = self.sim.metrics
        before = metrics.remote_ops
        owner, pos = K.placement(key, self.cfg.num_procs, self.table_size)
        layout = self.layouts[owner]
        if kind == "insert":
            if self.scheme == "rma":
                yield from insert_rma(proc, owner, layout, key, pos)
            elif self.scheme == "am":
                yield from proc.am_send(owner, word(key))
            else:  # the active insert: one put, the owner's handler does the rest
                yield from proc.put(owner, layout.elem_addr(pos), word(key))
        elif self.scheme == "rma":
            yield from delete_rma(proc, owner, layout, key, pos)
        else:
            yield from proc.put(owner, self.delete_pages[owner], word(key))
        metrics.ops += 1
        if self.record_ops:
            self.op_log.append((proc.rank, kind, key, metrics.remote_ops - before))

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
        metrics.collisions = self.collisions()
        return metrics

    # -- inspection ------------------------------------------------------

    def contents(self, rank):
        return extract_contents(self.sim.procs[rank].memory, self.layouts[rank])

    def oracle_contents(self, rank):
        return self.oracle.contents(rank)

    def collisions(self):
        """Stream inserts minus the distinct (owner, bucket) spots they hit:
        each source's quota plus the fresh keys of different sources that
        share a spot. Every stream key lands on a spot of its stream's set."""
        spots = set().union(*(s.used_set for s in self.streams))
        return sum(s.issued for s in self.streams) - len(spots)

    def measured_r_cols(self):
        issued = sum(s.issued for s in self.streams)
        return self.collisions() / issued if issued else 0.0


def run_scheme(cfg, **bench_kw):
    bench = DhtBench(cfg, **bench_kw)
    metrics = bench.run()
    return bench, metrics
