"""The extended bridge: interception, logging, flush-get handling.

All ingress packets of one node pass through a single pipeline coroutine in
FIFO order. The first packet of a transaction misses the tag buffer, which
triggers the translation walk, the classification (read off the mapped run),
and (for logged accesses) the log-space reservation; later packets of the
same transaction reuse the cached entry. A full access log stalls the
pipeline head instead of dropping anything, so backpressure propagates to
the link credits.

Each step of pipeline occupancy is one sleep. A head's interception
(iommu_proc_ns) and its walk are one step, and the head is a plain call that
returns it. When a logged head's record fits the ring at interception start,
its reservation and header store (one memory access) join that step; else
the head is a generator that sleeps the interception and walk, reserves (in
the bypass loop while the ring is full), then stores the header. An atomic's
write-back and its completion's egress interception are one step too.
Nothing outside the bridge can see a point inside a step: the IOTLB and the
walk are the bridge's alone, and no workload remaps a page during a run. A
record that fits at interception start still fits at the walk's end, at the
same offset, because only the consumer moves the ring's tail, and only
forward, and only the pipeline moves its head; a head that does not fit
reserves at the walk's end as before, so reserve_failures counts the same
stalls. One caveat: a merged step queues its end when it starts, so an event
due at that same instant and queued in between now runs after it rather than
before. No simulated number of the tests or the benchmark moves for it.

Every get the bridge serves is a chain of scheduled callbacks, one at the
data fetch and one at each completion's egress: plain reads, reads logged
with data (each completion is also copied into the record, which commits
after the last, with no publish callback) and atomics (a read-modify-write).
A get to a flush page joins its domain's FIFO of flush waiters; the head
waiter is answered once the consumer has freed every record reserved before
it arrived.

The tag buffer holds only what a later packet or event needs. A write keeps
a TagEntry there only while packets of its transaction are still to come: a
one-packet write is classified, applied and retired inside one call, so an
entry for it could never be seen, and it builds none. A get logged with data
keeps only its key there, until its record commits.

Logging domains are bridge state: the bridge numbers each one, reserves its
ring and flush page, and resolves a PTE's IUID to its log. The active-message
inbox is too: a write to the inbox page is queued with its source, whole,
once the last packet of its transaction has landed.
"""

from collections import deque
from dataclasses import dataclass

from . import link as lnk
from . import logbuf
from .engine import Signal
from .memory import PAGE_SHIFT, PAGE_SIZE, WORD
from .paging import GET, IUID_LIMIT, PUT


class IommuError(Exception):
    pass


@dataclass(slots=True)
class TagEntry:
    """A write transaction with packets still to come."""

    dev_addr: int
    bytes_remaining: int
    head: tuple  # the classification _open_txn returns for its first packet
    message: bytes = b""  # the pieces so far of a write to the inbox page


class Iommu:
    def __init__(self, engine, cfg, memory, translator):
        self.engine = engine
        self.cfg = cfg
        self.memory = memory
        self.translator = translator
        self.fault_log = logbuf.FaultLog(logbuf.FAULT_LOG_ENTRIES)
        self.enabled = cfg.iommu_enabled
        self.alogs = []  # one AccessLog per logging domain; iuid i at index i-1
        # (requester, tag) -> the TagEntry of a write with packets still to
        # come, or None for a get logged with data until its record commits.
        self.tag_buffer = {}
        self.flush_pages = {}  # flush-page address -> its domain's log, in iuid order
        self.ingress = deque()
        self._ingress_signal = Signal(engine)
        self._blocked_log = None  # log the stalled head waits on, if any
        self.link = None  # ingress link, for credit release
        self.backchannels = {}  # requester_id -> BackChannel
        self.inbox_page = None  # page number whose writes are queued as messages
        self.inbox = deque()  # (source, payload) per inbox write, in arrival order
        self.wake_consumer = None  # callable(): a flush or a message waits on the consumer
        engine.spawn(self._pipeline())

    # -- wiring ------------------------------------------------------------

    def add_domain(self, size):
        """Open the next logging domain: a size-byte ring and a flush page.
        Returns its AccessLog."""
        iuid = len(self.alogs) + 1  # iuid 0 is reserved for fault-log records
        if iuid >= IUID_LIMIT:
            raise IommuError("out of logging domains (iuid space exhausted)")
        base = self.memory.reserve_region("log%d" % iuid, size)
        log = logbuf.AccessLog(self.engine, self.memory, iuid, base, size)
        self.alogs.append(log)
        self.flush_pages[self.memory.reserve_region("flush%d" % iuid, PAGE_SIZE)] = log
        return log

    def outstanding(self):
        """Queued packets, open transactions, parked flushes and unread inbox
        messages, as diagnostic phrases; empty when there are none."""
        bits = []
        if self.ingress:
            bits.append("ingress=%d" % len(self.ingress))
        if self.tag_buffer:
            bits.append("open txns=%d" % len(self.tag_buffer))
        for addr, log in self.flush_pages.items():
            if log.flush_waiters:
                bits.append("flush@%d waiting=%d" % (addr, len(log.flush_waiters)))
        if self.inbox:
            bits.append("inbox=%d" % len(self.inbox))
        return bits

    def backchannel_for(self, requester_id):
        try:
            return self.backchannels[requester_id]
        except KeyError:
            raise IommuError("no return path to device %r" % (requester_id,))

    # -- ingress -----------------------------------------------------------

    def on_arrival(self, tlp):
        self.ingress.append(tlp)
        if self._blocked_log is not None:
            # A stalled head rescans the queue on every arrival: the new
            # packet may belong to an open transaction it can serve.
            self._blocked_log.space_freed.fire()
        # Only a parked pipeline waits here, and never while a head is
        # stalled; an arrival event can resume it in place.
        if self._ingress_signal._waiters:
            self._ingress_signal.fire()

    def _pipeline(self):
        ingress, arrived, retire = self.ingress, self._ingress_signal, self._retire
        while True:
            while not ingress:
                yield arrived
            tlp = ingress[0]
            kind = tlp.kind
            if kind == lnk.POSTED_WRITE:
                yield from self.intercept_write(tlp)
            elif kind == lnk.READ_REQUEST:
                log = self.flush_pages.get(tlp.address) if self.enabled else None
                if log is None:
                    yield from self.intercept_read_request(tlp)
                else:
                    yield self.cfg.iommu_proc_ns
                    self.handle_flush_get(tlp, log)
            else:
                raise IommuError("unexpected ingress packet kind %r" % kind)
            ingress.popleft()
            retire()

    def _retire(self):
        """A packet left ingress processed: note progress, return its credit."""
        self.engine.last_activity = self.engine.now
        if self.link is not None:
            self.link.release_credit()

    # -- transaction heads -------------------------------------------------

    def _open_txn(self, tlp, op):
        """First packet of a transaction: interception, walk, classification
        and, for a logged access, the record's reservation and header store.
        Returns (step, head): the occupancy the caller sleeps, every side
        effect done, and the head's classification (phys_base, memory_effect,
        log_data, log, offset, status), where log is the AccessLog holding
        the record or None, offset the record's ring offset and status 'ok',
        'blocked' or 'fault'; or, for a record that does not fit at
        interception start, the generator that reserves late, and None."""
        if tlp.seq_in_txn != 0:
            raise IommuError("transaction started mid-stream (tag reuse?)")
        cfg = self.cfg
        if not self.enabled:
            return cfg.iommu_proc_ns, (tlp.address, True, False, None, 0, "ok")
        run, phys, accesses = self.translator.walk(tlp.requester_id, tlp.address)
        # Interception and the walk: one step of pipeline occupancy.
        occupancy = cfg.iommu_proc_ns + cfg.mem_access_ns * accesses
        if run is None:
            self.fault_log.append(op, tlp.requester_id, tlp.address, tlp.txn_total, True)
            return occupancy, (0, False, False, None, 0, "fault")
        acts = run.acts[op]
        memory_effect = acts.memory_effect
        status = "ok" if memory_effect else "blocked"
        if not (acts.log_meta and acts.to_access_log):
            if acts.log_meta:  # logged to the fault log
                self.fault_log.append(
                    op, tlp.requester_id, tlp.address, tlp.txn_total, not memory_effect)
            return occupancy, (phys, memory_effect, False, None, 0, status)
        iuid = acts.iuid
        if not 0 < iuid <= len(self.alogs):
            raise IommuError("no access log registered for iuid %d" % iuid)
        log = self.alogs[iuid - 1]
        with_data = acts.log_data
        nbytes = logbuf.record_size(tlp.txn_total, with_data)
        if nbytes > log.size - (log.head - log.tail):
            return self._reserve_late(tlp, op, acts, log, nbytes, occupancy, phys, status), None
        # Space freed later only adds to this, so the record reserved now is
        # the one the walk's end would reserve, at the same offset; the
        # header store (one memory access) joins the step.
        offset = log.reserve(nbytes)
        log.write_header(offset, op, tlp.requester_id, tlp.address, tlp.txn_total, with_data,
                         not memory_effect)
        return occupancy + cfg.mem_access_ns, (phys, memory_effect, with_data, log, offset, status)

    def _reserve_late(self, tlp, op, acts, log, nbytes, occupancy, phys, status):
        """Sleep the interception and walk, reserve, then store the header.
        Returns the head.

        While the ring is full, the head serves open transactions.  A
        transaction head that cannot reserve must not be consumed, and its
        link credit stays withheld; the log counts each failed try in
        reserve_failures, the run's backpressure stalls.  But packets that
        continue transactions with records already reserved need no new
        space, and committing those records is the only way the consumer can
        free any.  Serving them ahead of the stalled head keeps per-device
        ordering intact (a device's open transaction always precedes its next
        head in the queue) and keeps the ring draining instead of wedging on
        a full ring of holes.  With no such packet queued, the head parks
        until the consumer frees space.
        """
        yield occupancy
        offset = log.reserve(nbytes)
        while offset is None:
            served = yield from self._serve_open_txns()
            if not served:
                self._blocked_log = log
                yield log.space_freed
                self._blocked_log = None
            offset = log.reserve(nbytes)
        log.write_header(offset, op, tlp.requester_id, tlp.address, tlp.txn_total, acts.log_data,
                         not acts.memory_effect)
        yield self.cfg.mem_access_ns
        return phys, acts.memory_effect, acts.log_data, log, offset, status

    def _serve_open_txns(self):
        """Process the first queued packet of an already-open transaction."""
        for i in range(1, len(self.ingress)):
            tlp = self.ingress[i]
            if tlp.kind == lnk.POSTED_WRITE and (
                (tlp.requester_id, tlp.tag) in self.tag_buffer
            ):
                del self.ingress[i]
                yield from self.intercept_write(tlp)
                self._retire()
                return True
        return False

    # -- writes ------------------------------------------------------------

    def intercept_write(self, tlp):
        key = (tlp.requester_id, tlp.tag)
        entry = self.tag_buffer.get(key)
        if entry is None:
            step, head = self._open_txn(tlp, PUT)
            if head is None:
                head = yield from step
            else:
                yield step
            off = 0
            last = tlp.length >= tlp.txn_total
            if not last:
                entry = self.tag_buffer[key] = TagEntry(
                    tlp.address, tlp.txn_total - tlp.length, head)
        else:
            yield self.cfg.iommu_proc_ns
            head = entry.head
            off = tlp.address - entry.dev_addr
            entry.bytes_remaining -= tlp.length
            last = entry.bytes_remaining <= 0
            if last:
                del self.tag_buffer[key]
        phys, memory_effect, log_data, log, offset, status = head
        payload = tlp.payload
        if memory_effect:
            phys += off
            self.memory.write(phys, payload)
            if phys >> PAGE_SHIFT == self.inbox_page:
                self._to_inbox(tlp.requester_id, payload, entry, last)
        if log_data:
            log.write_data(offset, off, payload)
        if last:
            if tlp.on_done is not None:
                # An active put (no memory effect, but logged) succeeded.
                tlp.on_done(tlp.tag, "ok" if log is not None else status)
            if log is not None:
                log.mark_done(offset)
                # Trailing pointer publish: occupies the pipeline, not the
                # transaction's completion path.
                yield self.cfg.mem_access_ns

    def _to_inbox(self, source, payload, entry, last):
        """Queue a write to the inbox page as one message, once the last
        packet of its transaction has landed; entry is None for a one-packet
        write."""
        if entry is not None:
            entry.message += payload
            if not last:
                return
            payload = entry.message
        self.inbox.append((source, payload))
        if self.wake_consumer is not None:
            self.wake_consumer()

    # -- reads -------------------------------------------------------------

    def intercept_read_request(self, tlp):
        key = (tlp.requester_id, tlp.tag)
        if key in self.tag_buffer:
            raise IommuError("read request with busy tag %r" % (key,))
        step, head = self._open_txn(tlp, GET)
        if head is None:
            head = yield from step
        else:
            yield step
        phys, memory_effect, log_data, log, offset, _status = head
        if not memory_effect:
            if log is not None:
                log.mark_done(offset)
                yield self.cfg.mem_access_ns
            self.backchannel_for(tlp.requester_id).deliver(lnk.blocked_completion(tlp))
            return
        if log is None:
            self.engine.schedule(self.cfg.mem_access_ns, self._fetch, tlp, phys)
            return
        if tlp.atomic is not None:
            raise IommuError("atomics on logging-marked pages are unsupported")
        if log_data:
            # The record stays open until the read has copied its data in;
            # the key alone keeps the tag busy and the transaction outstanding.
            self.tag_buffer[key] = None
            self.engine.schedule(self.cfg.mem_access_ns, self._fetch, tlp, phys, log, offset)
            return
        # Metadata-only read record commits at interception, before the fetch
        # is queued: the commit hooks' wake-ups are scheduled ahead of it.
        log.mark_done(offset)
        self.engine.schedule(self.cfg.mem_access_ns, self._fetch, tlp, phys)
        yield self.cfg.mem_access_ns

    def _fetch(self, tlp, phys, log=None, offset=0):
        """At a get's data fetch: read (or atomically update) the data and
        queue the first completion's egress. With a log, each completion is
        also copied into the record at offset."""
        cfg = self.cfg
        desc = tlp.atomic
        egress = cfg.iommu_proc_ns
        if desc is None:
            data = self.memory.read(phys, tlp.length)
        else:
            prev = self.memory.read_word(phys)
            if desc.op == "cas":
                if prev == desc.compare:
                    self.memory.write_word(phys, desc.operand)
            elif desc.op == "sum":
                self.memory.write_word(phys, (prev + desc.operand) & (2**64 - 1))
            elif desc.op == "replace":
                self.memory.write_word(phys, desc.operand)
            else:
                raise IommuError("unknown atomic op %r" % desc.op)
            data = WORD.pack(prev)
            # The write-back and the egress interception: one step.
            egress += cfg.mem_access_ns
        cpls = lnk.make_completions(tlp, data, cfg.max_payload)
        self.engine.schedule(egress, self._egress, tlp, cpls, 0, log, offset)

    def _egress(self, tlp, cpls, i, log, offset):
        """At the end of completion i's egress interception: send it and
        queue the next one's; after the last, commit the record if any."""
        cfg = self.cfg
        cpl = cpls[i]
        if log is not None:
            log.write_data(offset, i * cfg.max_payload, cpl.payload)
        self.backchannel_for(tlp.requester_id).deliver(cpl)
        if i + 1 < len(cpls):
            self.engine.schedule(cfg.iommu_proc_ns, self._egress, tlp, cpls, i + 1, log, offset)
        elif log is None:
            self.engine.last_activity = self.engine.now
        else:
            # The publish needs no event: the consumer's record fetch comes no
            # earlier and claims a memory access, so it marks activity later.
            del self.tag_buffer[(tlp.requester_id, tlp.tag)]
            log.mark_done(offset)

    # -- flushes -----------------------------------------------------------

    def handle_flush_get(self, tlp, log):
        waiters = log.flush_waiters
        if not waiters and log.tail >= log.head:
            self._answer_flush(tlp)
            return
        # The flush covers every record reserved before it arrived.
        waiters.append((log.head, tlp))
        if self.wake_consumer is not None:
            self.wake_consumer()

    def _answer_flush(self, request):
        channel = self.backchannel_for(request.requester_id)
        for cpl in lnk.make_completions(request, bytes(request.length), self.cfg.max_payload):
            channel.deliver(cpl)

    def check_flushes(self, log):
        """Called when the consumer advances a tail; completes covered flushes."""
        waiters = log.flush_waiters
        while waiters and log.tail >= waiters[0][0]:
            _mark, request = waiters.popleft()
            self._answer_flush(request)
            self.engine.last_activity = self.engine.now
        if waiters and self.wake_consumer is not None:
            self.wake_consumer()
