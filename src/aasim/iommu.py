"""The extended bridge: interception, logging, flush-get handling.

All ingress packets of one node pass through a single pipeline coroutine in
FIFO order. The first packet of a transaction misses the tag buffer, which
triggers the translation walk, the classification, and (for logged accesses)
the log-space reservation; later packets of the same transaction reuse the
cached entry. A full access log stalls the pipeline head instead of dropping
anything, so backpressure propagates to the link credits.

Every get the bridge serves goes through one read coroutine: plain reads,
reads logged with data (each completion is also copied into the record) and
atomics (a read-modify-write). A get to a flush page instead joins its
domain's FIFO of flush waiters; the head waiter is answered once the consumer
has freed every record reserved before it arrived.

Logging domains are bridge state: the bridge numbers each one, reserves its
ring and flush page, and resolves a PTE's IUID to its log. The active-message
inbox is too: a write to the inbox page is queued with its source.
"""

from collections import deque
from dataclasses import dataclass

from . import link as lnk
from . import logbuf
from .engine import Signal
from .memory import PAGE_SHIFT, PAGE_SIZE
from .paging import GET, IUID_LIMIT, PUT, classify


class IommuError(Exception):
    pass


@dataclass(slots=True)
class TagEntry:
    dev_addr: int
    bytes_remaining: int
    phys_base: int = 0
    memory_effect: bool = False
    log_data: bool = False
    log: object = None
    offset: int = 0
    status: str = "ok"


class Iommu:
    def __init__(self, engine, cfg, memory, translator):
        self.engine = engine
        self.cfg = cfg
        self.memory = memory
        self.translator = translator
        self.fault_log = logbuf.FaultLog(cfg.fault_log_entries)
        self.enabled = cfg.iommu_enabled
        self.alogs = []  # one AccessLog per logging domain; iuid i at index i-1
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
        self._fault_seq = 0
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

    def idle(self):
        """No packet waits in ingress, no transaction is open, no flush is
        parked and no inbox message is unread."""
        return (
            not self.ingress
            and not self.tag_buffer
            and not self.inbox
            and not any(log.flush_waiters for log in self.alogs)
        )

    def describe(self):
        """What idle() finds still busy, as diagnostic phrases."""
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
        self._ingress_signal.fire()

    def _pipeline(self):
        while True:
            while not self.ingress:
                yield self._ingress_signal
            tlp = self.ingress[0]
            yield from self._process(tlp)
            self.ingress.popleft()
            self._retire()

    def _retire(self):
        """A packet left ingress processed: note progress, return its credit."""
        self.engine.note_activity()
        if self.link is not None:
            self.link.release_credit()

    def _process(self, tlp):
        yield self.cfg.iommu_proc_ns
        if tlp.kind == lnk.POSTED_WRITE:
            yield from self.intercept_write(tlp)
        elif tlp.kind == lnk.READ_REQUEST:
            log = self.flush_pages.get(tlp.address) if self.enabled else None
            if log is not None:
                self.handle_flush_get(tlp, log)
            else:
                yield from self.intercept_read_request(tlp)
        else:
            raise IommuError("unexpected ingress packet kind %r" % tlp.kind)

    # -- transaction heads -------------------------------------------------

    def _open_txn(self, tlp, op):
        """First packet of a transaction: walk, classify, reserve. Generator."""
        if tlp.seq_in_txn != 0:
            raise IommuError("transaction started mid-stream (tag reuse?)")
        if not self.enabled:
            return TagEntry(tlp.address, tlp.txn_total, tlp.address, True)
        walk = self.translator.walk(tlp.requester_id, tlp.address)
        if walk.mem_accesses:
            yield self.cfg.mem_access_ns * walk.mem_accesses
        if walk.pte is None:
            self._append_fault(tlp, op, blocked=True)
            return TagEntry(tlp.address, tlp.txn_total, status="fault")
        acts = classify(walk.pte, op)
        entry = TagEntry(
            tlp.address,
            tlp.txn_total,
            walk.phys,
            acts.memory_effect,
            status="ok" if acts.memory_effect else "blocked",
        )
        if acts.log_meta:
            if acts.to_access_log:
                if not 0 < acts.iuid <= len(self.alogs):
                    raise IommuError("no access log registered for iuid %d" % acts.iuid)
                log = self.alogs[acts.iuid - 1]
                with_data = acts.log_data
                nbytes = logbuf.record_size(tlp.txn_total, with_data)
                try:
                    offset = log.reserve(nbytes)
                except logbuf.WouldBlock:
                    offset = yield from self._reserve_with_bypass(log, nbytes)
                flags = (logbuf.FLAG_DATA if with_data else 0) | (
                    0 if acts.memory_effect else logbuf.FLAG_BLOCKED
                )
                header = logbuf.HEADER.pack(
                    op, tlp.requester_id, acts.iuid, tlp.address, tlp.txn_total, flags, log.take_seq()
                )
                log.ring_write(offset, header)
                entry.log = log
                entry.offset = offset
                entry.log_data = with_data
                # Header store costs one memory access of pipeline occupancy.
                yield self.cfg.mem_access_ns
            else:
                self._append_fault(tlp, op, blocked=not acts.memory_effect)
        return entry

    def _reserve_with_bypass(self, log, nbytes):
        """Reserve ring space after a failed try, serving open transactions
        while blocked.

        A transaction head that cannot reserve must not be consumed, and its
        link credit stays withheld; the log counts each failed try in
        reserve_failures, the run's backpressure stalls.  But packets that
        continue transactions with records already reserved need no new
        space, and committing those records is the only way the consumer can
        free any.  Serving them ahead of the stalled head keeps per-device
        ordering intact (a device's open transaction always precedes its next
        head in the queue) and keeps the ring draining instead of wedging on
        a full ring of holes.
        """
        while True:
            served = yield from self._serve_open_txns()
            if not served:
                self._blocked_log = log
                yield log.space_freed
                self._blocked_log = None
            try:
                return log.reserve(nbytes)
            except logbuf.WouldBlock:
                pass

    def _serve_open_txns(self):
        """Process the first queued packet of an already-open transaction."""
        for i in range(1, len(self.ingress)):
            tlp = self.ingress[i]
            if tlp.kind == lnk.POSTED_WRITE and (
                (tlp.requester_id, tlp.tag) in self.tag_buffer
            ):
                del self.ingress[i]
                yield from self._process(tlp)
                self._retire()
                return True
        return False

    def _append_fault(self, tlp, op, blocked):
        rec = logbuf.LogRecord(
            op_kind=op,
            device_id=tlp.requester_id,
            iuid=0,
            dev_addr=tlp.address,
            length=tlp.txn_total,
            flags=logbuf.FLAG_BLOCKED if blocked else 0,
            seq_no=self._fault_seq,
        )
        self._fault_seq += 1
        self.fault_log.append(rec)

    # -- writes ------------------------------------------------------------

    def intercept_write(self, tlp):
        key = (tlp.requester_id, tlp.tag)
        entry = self.tag_buffer.get(key)
        if entry is None:
            entry = yield from self._open_txn(tlp, PUT)
            self.tag_buffer[key] = entry
        off = tlp.address - entry.dev_addr
        if entry.memory_effect:
            phys = entry.phys_base + off
            self.memory.write(phys, tlp.payload)
            if phys >> PAGE_SHIFT == self.inbox_page:
                self.inbox.append((tlp.requester_id, tlp.payload))
                if self.wake_consumer is not None:
                    self.wake_consumer()
        if entry.log is not None and entry.log_data:
            entry.log.ring_write(entry.offset + logbuf.HEADER_BYTES + off, tlp.payload)
        entry.bytes_remaining -= tlp.length
        if entry.bytes_remaining <= 0:
            del self.tag_buffer[key]
            if tlp.on_done is not None:
                # An active put (no memory effect, but logged) succeeded.
                tlp.on_done("ok" if entry.log is not None else entry.status)
            if entry.log is not None:
                entry.log.mark_done(entry.offset)
                # Trailing pointer publish: occupies the pipeline, not the
                # transaction's completion path.
                yield self.cfg.mem_access_ns

    # -- reads -------------------------------------------------------------

    def intercept_read_request(self, tlp):
        key = (tlp.requester_id, tlp.tag)
        if key in self.tag_buffer:
            raise IommuError("read request with busy tag %r" % (key,))
        entry = yield from self._open_txn(tlp, GET)
        log = entry.log
        if not entry.memory_effect:
            if log is not None:
                log.mark_done(entry.offset)
                yield self.cfg.mem_access_ns
            self.backchannel_for(tlp.requester_id).deliver(lnk.blocked_completion(tlp))
            return
        if log is None:
            self.engine.spawn(self._serve_read(tlp, entry.phys_base))
            return
        if tlp.atomic is not None:
            raise IommuError("atomics on logging-marked pages are unsupported")
        if entry.log_data:
            # The record stays open until the read has copied its data in.
            self.tag_buffer[key] = entry
            self.engine.spawn(self._serve_read(tlp, entry.phys_base, log, entry.offset))
            return
        # Metadata-only read record commits at interception, before the read
        # is spawned: the commit hooks' wake-ups are scheduled ahead of it.
        log.mark_done(entry.offset)
        self.engine.spawn(self._serve_read(tlp, entry.phys_base))
        yield self.cfg.mem_access_ns

    def _serve_read(self, tlp, phys, log=None, offset=0):
        """Fetch (or atomically update) the data and send the completions,
        copying each one into the record at offset when log is given."""
        yield self.cfg.mem_access_ns  # data fetch
        desc = tlp.atomic
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
            data = prev.to_bytes(8, "little")
            yield self.cfg.mem_access_ns  # write-back
        channel = self.backchannel_for(tlp.requester_id)
        copied = 0
        for cpl in lnk.make_completions(tlp, data, self.cfg.max_payload):
            yield self.cfg.iommu_proc_ns  # egress interception
            if log is not None:
                log.ring_write(offset + logbuf.HEADER_BYTES + copied, cpl.payload)
                copied += len(cpl.payload)
            channel.deliver(cpl)
        if log is not None:
            del self.tag_buffer[(tlp.requester_id, tlp.tag)]
            log.mark_done(offset)
            yield self.cfg.mem_access_ns
        self.engine.note_activity()

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
            self.engine.note_activity()
        if waiters and self.wake_consumer is not None:
            self.wake_consumer()
