"""Extended page tables, the translation cache, and access classification.

Page-table entries carry, besides the usual write/read protection bits, the
logging controls that turn a device access into a log record: WL/WLD for
writes, RL/RLD for reads, the E bit selecting the access-log vs the fault-log
destination, and a 10-bit domain id (IUID) naming the per-domain log.
"""

from collections import OrderedDict
from dataclasses import astuple, dataclass

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

    @staticmethod
    def _from_run(frame, bits):
        """A Pte from a mapped run's frame and bits (``astuple(pte)[1:]``, the
        fields after frame), without the checks map_range made for the run."""
        pte = object.__new__(Pte)
        pte.frame = frame
        pte.w, pte.r, pte.wl, pte.wld, pte.rl, pte.rld, pte.e, pte.iuid = bits
        return pte

    def normalized(self):
        """Data-logging implies logging: fold wld into wl and rld into rl."""
        return Pte(
            frame=self.frame,
            w=self.w,
            r=self.r,
            wl=self.wl or self.wld,
            wld=self.wld,
            rl=self.rl or self.rld,
            rld=self.rld,
            e=self.e,
            iuid=self.iuid,
        )


@dataclass(slots=True)
class ActionSet:
    """What the bridge must do for one transaction against one page."""

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


class PageTable:
    """Four-level radix tree keyed by the 36-bit virtual page number.

    A leaf table is a list of 512 slots. Each slot is None or the run its
    page belongs to: one (frame - vpn, bits) pair shared by every page that
    a map_range call mapped, so mapping costs one slice assignment per leaf
    and a lookup builds the page's Pte from its run.
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
        template = pte.normalized()
        if template.frame + pages > 1 << FRAME_BITS:
            raise PagingError("frames %d+%d out of range" % (template.frame, pages))
        vpn = vaddr >> PAGE_SHIFT
        end = vpn + pages
        # Every field after the frame, in declaration order.
        run = (template.frame - vpn, astuple(template)[1:])
        while vpn < end:
            top, mid, low, slot = self._indices(vpn)
            node = self._root.setdefault(top, {}).setdefault(mid, {})
            leaf = node.setdefault(low, [None] * (LEVEL_MASK + 1))
            stop = min(end, (vpn | LEVEL_MASK) + 1)
            leaf[slot : slot + stop - vpn] = [run] * (stop - vpn)
            vpn = stop

    def lookup(self, vpn):
        """Returns (pte or None, memory accesses spent walking)."""
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
        run = leaf[vpn & LEVEL_MASK]
        if run is None:
            return None, LEVELS
        delta, bits = run
        return Pte._from_run(vpn + delta, bits), LEVELS


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
    """Set-associative translation cache over page numbers.

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

    def _set_for(self, page):
        return self._sets[page % self.set_count]

    def lookup(self, page):
        s = self._set_for(page)
        pte = s.get(page)
        if pte is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.policy == "lru":
            s.move_to_end(page)
        return pte

    def insert(self, page, pte):
        s = self._set_for(page)
        if page in s:
            s[page] = pte
            if self.policy == "lru":
                s.move_to_end(page)
            return
        if len(s) >= self.ways:
            if self.policy == "lru":
                s.popitem(last=False)
            else:
                victim = self.rng.randrange(len(s))
                del s[list(s.keys())[victim]]
        s[page] = pte

    def invalidate_range(self, first, count):
        """Drop any cached translation of pages [first, first + count)."""
        end = first + count
        for s in self._sets:
            for page in [p for p in s if first <= p < end]:
                del s[page]


@dataclass(slots=True)
class WalkResult:
    pte: object  # Pte or None on fault
    phys: int
    mem_accesses: int


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
        if device_id not in self._devices:
            raise PagingError("unregistered device %r" % (device_id,))
        cost = 0
        if device_id not in self._ctx_seen:
            self._ctx_seen.add(device_id)
            cost += CONTEXT_WALK_ACCESSES
        page = addr >> PAGE_SHIFT
        pte = self.iotlb.lookup(page)
        if pte is None:
            pte, accesses = self.page_table.lookup(page)
            cost += accesses
            if pte is None:
                return WalkResult(None, 0, cost)
            self.iotlb.insert(page, pte)
        phys = (pte.frame << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))
        return WalkResult(pte, phys, cost)
