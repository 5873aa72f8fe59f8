"""Extended page tables, the translation cache, and access classification.

Page-table entries carry, besides the usual write/read protection bits, the
logging controls that turn a device access into a log record: WL/WLD for
writes, RL/RLD for reads, the E bit selecting the access-log vs the fault-log
destination, and a 10-bit domain id (IUID) naming the per-domain log.

Every page one map_range call maps shares one Run, which carries the run's
physical offset and its classification for each access kind, worked out by
classify() once, at map time. The IOTLB caches runs, and a walk returns the
run with the physical address, so translating and classifying a transaction
head builds no entry and no action set.
"""

from collections import OrderedDict, namedtuple
from dataclasses import dataclass

from .memory import PAGE_SHIFT

IUID_BITS = 10
IUID_LIMIT = 1 << IUID_BITS
FRAME_BITS = 40

# Access kinds; each is also the op_kind of the log records it produces.
PUT = 0
GET = 1

# Radix tree geometry: 4 levels of 9 bits over a 36-bit page-number space.
LEVELS = 4
LEVEL_BITS = 9
LEVEL_MASK = (1 << LEVEL_BITS) - 1
CONTEXT_WALK_ACCESSES = 2


class PagingError(Exception):
    pass


@dataclass(slots=True)
class Pte:
    frame: int
    w: bool = False
    r: bool = False
    wl: bool = False
    wld: bool = False
    rl: bool = False
    rld: bool = False
    e: bool = False
    iuid: int = 0

    def __post_init__(self):
        if not (0 <= self.iuid < IUID_LIMIT):
            raise PagingError("iuid %d outside [0, %d)" % (self.iuid, IUID_LIMIT))
        if not (0 <= self.frame < (1 << FRAME_BITS)):
            raise PagingError("frame %d out of range" % self.frame)


@dataclass(slots=True, frozen=True)
class ActionSet:
    """What the bridge must do for one transaction against one page. Frozen:
    one is built per access kind at map time and shared by every page of the
    run, every IOTLB entry and every transaction head that reads it."""

    memory_effect: bool
    log_meta: bool
    log_data: bool
    to_access_log: bool  # False => fault log, when any logging happens
    iuid: int


def classify(pte, kind):
    """Total classification of an access against a (possibly raw) PTE.

    A set data-logging bit implies logging even if the meta bit was left
    clear, so log_meta is set whenever log_data is; an access without a
    memory effect is blocked, and blocked gets never log data because there
    is no returned value to copy.
    """
    if kind == PUT:
        memory_effect = pte.w
        log_meta = pte.wl or pte.wld
        log_data = pte.wld
    elif kind == GET:
        memory_effect = pte.r
        log_meta = pte.rl or pte.rld
        log_data = pte.rld and pte.r
    else:
        raise PagingError("unknown access kind %r" % (kind,))
    return ActionSet(memory_effect, log_meta, log_data, bool(pte.e), pte.iuid)


@dataclass(slots=True, frozen=True)
class Run:
    """The pages one map_range call mapped, as a walk sees them."""

    offset: int  # physical minus virtual address: (frame - vpn) << PAGE_SHIFT
    acts: tuple  # classify(pte, kind) at index kind, for PUT and GET


class PageTable:
    """Four-level radix tree keyed by the 36-bit virtual page number.

    A leaf table is a list of 512 slots. Each slot is None or the Run its
    page belongs to, shared by every page that a map_range call mapped, so
    mapping costs one slice assignment per leaf and a lookup returns the run
    as it is.
    """

    def __init__(self):
        self._root = {}

    @staticmethod
    def _indices(vpn):
        # LEVELS = 4 indices of LEVEL_BITS = 9 bits, root first.
        return (
            (vpn >> 27) & LEVEL_MASK,
            (vpn >> 18) & LEVEL_MASK,
            (vpn >> 9) & LEVEL_MASK,
            vpn & LEVEL_MASK,
        )

    def map_range(self, vaddr, pte, pages=1):
        """Map pages consecutive pages from vaddr onto consecutive frames
        from pte.frame, filling each leaf table directly."""
        if vaddr % (1 << PAGE_SHIFT):
            raise PagingError("map address %d not page aligned" % vaddr)
        if pages < 1:
            raise PagingError("cannot map %d pages" % pages)
        if pte.frame + pages > 1 << FRAME_BITS:
            raise PagingError("frames %d+%d out of range" % (pte.frame, pages))
        vpn = vaddr >> PAGE_SHIFT
        end = vpn + pages
        run = Run((pte.frame - vpn) << PAGE_SHIFT, (classify(pte, PUT), classify(pte, GET)))
        while vpn < end:
            top, mid, low, slot = self._indices(vpn)
            node = self._root.setdefault(top, {}).setdefault(mid, {})
            leaf = node.setdefault(low, [None] * (LEVEL_MASK + 1))
            stop = min(end, (vpn | LEVEL_MASK) + 1)
            leaf[slot : slot + stop - vpn] = [run] * (stop - vpn)
            vpn = stop

    def lookup(self, vpn):
        """Returns (run or None, memory accesses spent walking)."""
        # _indices inlined: this runs on every translation-cache miss.
        node = self._root.get((vpn >> 27) & LEVEL_MASK)
        if node is None:
            return None, 1
        node = node.get((vpn >> 18) & LEVEL_MASK)
        if node is None:
            return None, 2
        leaf = node.get((vpn >> 9) & LEVEL_MASK)
        if leaf is None:
            return None, 3
        return leaf[vpn & LEVEL_MASK], LEVELS


def iotlb_ways(capacity, assoc, policy):
    """Ways per set of a translation cache shape; PagingError if unsupported."""
    if capacity <= 0:
        raise PagingError("iotlb capacity must be positive")
    if policy not in ("lru", "rnd"):
        raise PagingError("unknown iotlb policy %r" % (policy,))
    if assoc == "full":
        return capacity
    if str(assoc) not in ("1", "2", "4"):
        raise PagingError("unsupported associativity %r" % (assoc,))
    ways = int(assoc)
    if capacity % ways:
        raise PagingError("capacity %d not divisible by %d ways" % (capacity, ways))
    return ways


class IotlbCache:
    """Set-associative translation cache over page numbers; a cached page
    maps to its Run.

    Associativity is 1, 2, 4, or 'full'; replacement is per-set LRU or
    seeded-random. The set index is page mod set_count.
    """

    def __init__(self, capacity, assoc, policy, rng):
        ways = iotlb_ways(capacity, assoc, policy)
        self.capacity = capacity
        self.ways = ways
        self.set_count = capacity // ways
        self.policy = policy
        self.rng = rng
        self._sets = [OrderedDict() for _ in range(self.set_count)]
        self.hits = 0
        self.misses = 0

    def lookup(self, page):
        s = self._sets[page % self.set_count]
        run = s.get(page)
        if run is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.policy == "lru":
            s.move_to_end(page)
        return run

    def insert(self, page, run):
        """Cache page's run; called only after a miss on page."""
        s = self._sets[page % self.set_count]
        if len(s) >= self.ways:
            if self.policy == "lru":
                s.popitem(last=False)
            else:
                victim = self.rng.randrange(len(s))
                del s[list(s.keys())[victim]]
        s[page] = run

    def invalidate_range(self, first, count):
        """Drop any cached translation of pages [first, first + count)."""
        end = first + count
        for s in self._sets:
            for page in [p for p in s if first <= p < end]:
                del s[page]


# run is None on a fault, and phys is then 0. walk builds it with
# tuple.__new__, which skips the namedtuple's Python-level __new__.
WalkResult = namedtuple("WalkResult", "run phys mem_accesses")


class AddressTranslator:
    """Translation front end of one bridge: context cache + IOTLB + table.

    All devices behind one bridge share a single page table here, so the
    IOTLB is tagged by page number alone; the context cache charges its walk
    cost once per device.
    """

    def __init__(self, page_table, iotlb):
        self.page_table = page_table
        self.iotlb = iotlb
        self._devices = set()
        self._ctx_seen = set()

    def register_device(self, device_id):
        self._devices.add(device_id)

    def map_range(self, vaddr, pte, pages=1):
        self.page_table.map_range(vaddr, pte, pages)
        self.iotlb.invalidate_range(vaddr >> PAGE_SHIFT, pages)

    def walk(self, device_id, addr):
        cost = 0
        if device_id not in self._ctx_seen:
            # Only a registered device's context is ever cached.
            if device_id not in self._devices:
                raise PagingError("unregistered device %r" % (device_id,))
            self._ctx_seen.add(device_id)
            cost = CONTEXT_WALK_ACCESSES
        page = addr >> PAGE_SHIFT
        run = self.iotlb.lookup(page)
        if run is None:
            run, accesses = self.page_table.lookup(page)
            cost += accesses
            if run is None:
                return tuple.__new__(WalkResult, (None, 0, cost))
            self.iotlb.insert(page, run)
        return tuple.__new__(WalkResult, (run, addr + run.offset, cost))
