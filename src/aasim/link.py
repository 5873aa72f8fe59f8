"""Packetized interconnect with credit-based flow control.

Transactions up to 4 KiB are split into TLPs of at most max_payload bytes.
Each target has one ingress wire shared by all source devices: packets from
one device stay in order, packets from different devices interleave in a
seeded arbitrary order, and a packet departs only when the receiving bridge
has a free credit. Nothing is ever dropped; senders stall.
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

MAX_TXN_BYTES = 4096
COMPLETION_ADDR_BITS = 7  # read completions carry only the low address bits

POSTED_WRITE = "pw"
READ_REQUEST = "rd"
READ_COMPLETION = "cpl"


class LinkError(Exception):
    pass


class OversizeError(LinkError):
    """Transaction larger than the 4 KiB cap."""


@dataclass(slots=True)
class AtomicDesc:
    op: str  # 'cas' | 'sum' | 'replace'
    operand: int
    compare: int = 0


@dataclass(slots=True)
class Tlp:
    kind: str
    requester_id: tuple
    tag: int
    address: int
    length: int
    payload: bytes = None
    seq_in_txn: int = 0
    txn_total: int = 0  # total data bytes of the transaction
    atomic: AtomicDesc = None
    status: str = "ok"  # completions: 'ok' | 'blocked'
    # Sim-side completion hook of a put's last packet: on_done(tag, status).
    on_done: object = field(default=None, repr=False)


def _slices(kind, data, address, address_mask, requester_id, tag, max_payload):
    """Cut one transaction's data into ordered TLPs of at most max_payload
    bytes; each packet's address is masked with address_mask."""
    # The one copy: a slice of bytes is bytes, so no packet aliases the
    # caller's buffer. A loop, not a comprehension: on CPython 3.11 a
    # comprehension's closure costs more than it saves on four packets.
    data = bytes(data)
    total = len(data)
    if total <= max_payload:
        return [Tlp(kind, requester_id, tag, address & address_mask, total, data, 0, total)]
    pkts = []
    for seq, off in enumerate(range(0, total, max_payload)):
        chunk = data[off : off + max_payload]
        pkts.append(
            Tlp(kind, requester_id, tag, (address + off) & address_mask, len(chunk), chunk, seq, total)
        )
    return pkts


def split_put(address, payload, requester_id, tag, max_payload):
    """Split one write transaction into ordered posted-write TLPs."""
    total = len(payload)
    if total == 0:
        raise LinkError("empty put")
    if total > MAX_TXN_BYTES:
        raise OversizeError("put of %d bytes exceeds %d" % (total, MAX_TXN_BYTES))
    return _slices(POSTED_WRITE, payload, address, -1, requester_id, tag, max_payload)


def split_get(address, length, requester_id, tag):
    """Build the read request for a get."""
    if length <= 0:
        raise LinkError("empty get")
    if length > MAX_TXN_BYTES:
        raise OversizeError("get of %d bytes exceeds %d" % (length, MAX_TXN_BYTES))
    return Tlp(READ_REQUEST, requester_id, tag, address, length, None, 0, length)


def make_completions(request, data, max_payload):
    """Slice fetched data into completions for one read request.

    Completions keep the requester/tag pair and only the low 7 bits of the
    address, so reassembly must go through the requester's tag state.
    """
    if len(data) != request.length:
        raise LinkError("completion data length mismatch")
    return _slices(
        READ_COMPLETION,
        data,
        request.address,
        (1 << COMPLETION_ADDR_BITS) - 1,
        request.requester_id,
        request.tag,
        max_payload,
    )


def blocked_completion(request):
    return Tlp(
        kind=READ_COMPLETION,
        requester_id=request.requester_id,
        tag=request.tag,
        address=request.address & ((1 << COMPLETION_ADDR_BITS) - 1),
        length=0,
        payload=b"",
        seq_in_txn=0,
        txn_total=0,
        status="blocked",
    )


class _Wire:
    """One serialized wire: a packet occupies it for its wire bytes at the link
    bandwidth, then arrives after the propagation latency."""

    def __init__(self, engine, sink, cfg, metrics):
        self.engine = engine
        self.sink = sink  # callable(tlp), invoked at arrival time
        self.latency = cfg.link_latency_ns
        self.bw = cfg.link_bw_bytes_per_ns
        self.header_bytes = cfg.wire_header_bytes
        self.metrics = metrics
        self._wire_free_at = 0.0

    def _transmit(self, tlp):
        """Count the packet and queue its arrival at the sink."""
        now = self.engine.now
        free_at = self._wire_free_at
        payload = tlp.payload
        payload_bytes = len(payload) if payload else 0
        wire_bytes = self.header_bytes + payload_bytes
        self._wire_free_at = free_at = (free_at if free_at > now else now) + wire_bytes / self.bw
        metrics = self.metrics
        metrics.packets += 1
        metrics.bytes_wire += wire_bytes
        metrics.bytes_payload += payload_bytes
        self.engine.schedule((free_at + self.latency) - now, self.sink, tlp)


class Link(_Wire):
    """Ingress wire of one target bridge.

    Per-device FIFO queues feed the wire; the arbiter picks the next device
    from those with packets waiting, listed in the order the link first saw
    them, with its own RNG stream so cross-device interleaving is arbitrary
    but reproducible. It draws as rng.randrange does, inlined: the same
    getrandbits calls in the same rejection loop. A device joins or leaves
    the ready list only when its queue turns non-empty or empty. One credit
    is consumed per departed packet and returned by the bridge once the
    packet has been processed. A send that finds a free credit and no device
    waiting transmits the packet at once, as the arbiter would with one
    device ready: no draw, no stall. stalled_polls counts each send or credit
    return that finds packets waiting and no credit left.
    """

    def __init__(self, engine, sink, cfg, rng, metrics):
        super().__init__(engine, sink, cfg, metrics)
        self.credits = cfg.credit_capacity
        self.capacity = cfg.credit_capacity
        self.rng = rng
        self._rank = {}  # device -> its position in first-seen order
        self._queues = []  # rank -> deque of that device's waiting packets
        self._ready = []  # ranks of the devices with packets waiting, ascending
        self.stalled_polls = 0

    def send(self, tlp):
        rank = self._rank.get(tlp.requester_id)
        if rank is None:
            rank = self._rank[tlp.requester_id] = len(self._queues)
            self._queues.append(deque())
        if self.credits and not self._ready:
            # What _pump does for a one-device ready list: no draw, no stall.
            self.credits -= 1
            self._transmit(tlp)
            return
        queue = self._queues[rank]
        if not queue:
            insort(self._ready, rank)
        queue.append(tlp)
        if self.credits:
            self._pump()
        else:  # what _pump would find: packets waiting and no credit
            self.stalled_polls += 1

    def release_credit(self):
        if self.credits >= self.capacity:
            raise LinkError("credit over-release")
        self.credits += 1
        if self._ready:
            self._pump()

    def _pump(self):
        ready = self._ready
        while ready and self.credits:
            n = len(ready)
            i = 0
            if n > 1:  # rng.randrange(n), inlined
                k = n.bit_length()
                i = self.rng.getrandbits(k)
                while i >= n:
                    i = self.rng.getrandbits(k)
            queue = self._queues[ready[i]]
            tlp = queue.popleft()
            if not queue:
                del ready[i]
            self.credits -= 1
            self._transmit(tlp)
        if ready:  # packets wait and no credit is left
            self.stalled_polls += 1

    @property
    def queued(self):
        return sum(len(q) for q in self._queues)

    @property
    def in_flight(self):
        return self.capacity - self.credits


class BackChannel(_Wire):
    """Return wire for completions (target back to one source); no credits."""

    deliver = _Wire._transmit
