"""The extended bridge: interception, logging, flush-get handling.

All ingress packets of one node pass through a single pipeline coroutine in
FIFO order. The first packet of a transaction misses the tag buffer, which
triggers the translation walk, the classification, and (for logged accesses)
the log-space reservation; later packets of the same transaction reuse the
cached entry. A full access log stalls the pipeline head instead of dropping
anything, so backpressure propagates to the link credits.
"""

from collections import deque
from dataclasses import dataclass, field

from . import link as lnk
from . import logbuf
from .engine import Signal
from .paging import GET, PUT, classify


class IommuError(Exception):
    pass


@dataclass
class TagEntry:
    kind: str  # 'put' | 'get' | 'fault' | 'raw'
    dev_addr: int
    bytes_remaining: int
    phys_base: int = 0
    memory_effect: bool = False
    log_data: bool = False
    log: object = None
    offset: int = 0
    copied: int = 0
    status: str = "ok"


@dataclass
class FlushWaiter:
    requester_id: int
    tag: int
    txn_id: int
    mark: int


@dataclass
class FlushState:
    address: int
    iuid: int
    active: FlushWaiter = None
    queue: deque = field(default_factory=deque)

    def idle(self):
        return self.active is None and not self.queue


class Iommu:
    def __init__(self, engine, cfg, memory, translator, fault_log, metrics, node_id):
        self.engine = engine
        self.cfg = cfg
        self.memory = memory
        self.translator = translator
        self.fault_log = fault_log
        self.metrics = metrics
        self.node_id = node_id
        self.enabled = cfg.iommu_enabled
        self.alogs = logbuf.AccessLogTable()
        self.tag_buffer = {}
        self.flush_pages = {}
        self._flush_by_iuid = {}
        self.ingress = deque()
        self._ingress_signal = Signal(engine)
        self._blocked_log = None  # log the stalled head waits on, if any
        self.link = None  # ingress link, for credit release
        self.backchannels = {}  # requester_id -> BackChannel
        self.write_hooks = []  # (base, span, callback) for inbox-style regions
        self.on_flush_armed = None
        self._fault_seq = 0
        engine.spawn(self._pipeline())

    # -- wiring ------------------------------------------------------------

    def register_log(self, log):
        self.alogs.register(log)

    def register_flush_page(self, address, iuid):
        if address in self.flush_pages:
            raise IommuError("flush page %d already registered" % address)
        state = FlushState(address=address, iuid=iuid)
        self.flush_pages[address] = state
        self._flush_by_iuid.setdefault(iuid, []).append(state)
        return state

    def add_write_hook(self, base, span, callback):
        self.write_hooks.append((base, span, callback))

    def backchannel_for(self, requester_id):
        try:
            return self.backchannels[requester_id]
        except KeyError:
            raise IommuError("no return path to device %r" % (requester_id,))

    # -- ingress -----------------------------------------------------------

    def on_arrival(self, tlp):
        self.ingress.append(tlp)
        self._ingress_signal.fire()
        if self._blocked_log is not None:
            # A stalled head rescans the queue on every arrival: the new
            # packet may belong to an open transaction it can serve.
            self._blocked_log.space_freed.fire()

    def _pipeline(self):
        while True:
            while not self.ingress:
                yield self._ingress_signal
            tlp = self.ingress[0]
            yield from self._process(tlp)
            self.ingress.popleft()
            self.engine.note_activity()
            if self.link is not None:
                self.link.release_credit()

    def _process(self, tlp):
        yield self.cfg.iommu_proc_ns
        if tlp.kind == lnk.POSTED_WRITE:
            yield from self.intercept_write(tlp)
        elif tlp.kind == lnk.READ_REQUEST:
            state = self.flush_pages.get(tlp.address) if self.enabled else None
            if state is not None:
                self.handle_flush_get(tlp, state)
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
            entry = TagEntry(
                kind="raw",
                dev_addr=tlp.address,
                bytes_remaining=tlp.txn_total,
                phys_base=tlp.address,
                memory_effect=True,
            )
            self.tag_buffer[(tlp.requester_id, tlp.tag)] = entry
            return entry
        walk = self.translator.walk(tlp.requester_id, tlp.address)
        if walk.mem_accesses:
            yield self.cfg.mem_access_ns * walk.mem_accesses
        if walk.fault:
            self._append_fault(tlp, op, blocked=True)
            entry = TagEntry(
                kind="fault",
                dev_addr=tlp.address,
                bytes_remaining=tlp.txn_total,
                status="fault",
            )
            self.tag_buffer[(tlp.requester_id, tlp.tag)] = entry
            return entry
        acts = classify(walk.pte, op)
        entry = TagEntry(
            kind="put" if op == PUT else "get",
            dev_addr=tlp.address,
            bytes_remaining=tlp.txn_total,
            phys_base=walk.phys,
            memory_effect=acts.memory_effect,
            status="blocked" if acts.blocked else "ok",
        )
        if acts.logged:
            if acts.to_access_log:
                log = self.alogs.get(acts.iuid)
                with_data = acts.log_data
                nbytes = logbuf.record_size(tlp.txn_total, with_data)
                offset = yield from self._reserve_with_bypass(log, nbytes)
                flags = (logbuf.FLAG_DATA if with_data else 0) | (
                    logbuf.FLAG_BLOCKED if acts.blocked else 0
                )
                rec = logbuf.LogRecord(
                    op_kind=logbuf.OP_PUT if op == PUT else logbuf.OP_GET,
                    device_id=tlp.requester_id,
                    iuid=acts.iuid,
                    dev_addr=tlp.address,
                    length=tlp.txn_total,
                    flags=flags,
                    seq_no=log.take_seq(),
                )
                log.ring_write(offset, rec.pack_header())
                entry.log = log
                entry.offset = offset
                entry.log_data = with_data
                # Header store costs one memory access of pipeline occupancy.
                yield self.cfg.mem_access_ns
            else:
                self._append_fault(tlp, op, blocked=acts.blocked)
        self.tag_buffer[(tlp.requester_id, tlp.tag)] = entry
        return entry

    def _reserve_with_bypass(self, log, nbytes):
        """Reserve ring space, serving open transactions while blocked.

        A transaction head that cannot reserve must not be consumed, and its
        link credit stays withheld.  But packets that continue transactions
        with records already reserved need no new space, and committing those
        records is the only way the consumer can free any.  Serving them ahead
        of the stalled head keeps per-device ordering intact (a device's open
        transaction always precedes its next head in the queue) and keeps the
        ring draining instead of wedging on a full ring of holes.
        """
        while True:
            try:
                return log.reserve(nbytes)
            except logbuf.WouldBlock:
                self.metrics.backpressure_stalls += 1
                served = yield from self._serve_open_txns()
                if not served:
                    self._blocked_log = log
                    yield log.space_freed
                    self._blocked_log = None

    def _serve_open_txns(self):
        """Process the first queued packet of an already-open transaction."""
        for i in range(1, len(self.ingress)):
            tlp = self.ingress[i]
            if tlp.kind == lnk.POSTED_WRITE and (
                (tlp.requester_id, tlp.tag) in self.tag_buffer
            ):
                del self.ingress[i]
                yield from self._process(tlp)
                self.engine.note_activity()
                if self.link is not None:
                    self.link.release_credit()
                return True
        return False

    def _append_fault(self, tlp, op, blocked):
        rec = logbuf.LogRecord(
            op_kind=logbuf.OP_PUT if op == PUT else logbuf.OP_GET,
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
        off = tlp.address - entry.dev_addr
        if entry.memory_effect:
            self.memory.write(entry.phys_base + off, tlp.payload)
            for base, span, cb in self.write_hooks:
                if base <= entry.phys_base + off < base + span:
                    cb(tlp.requester_id, tlp.payload)
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
        if entry.kind == "fault" or not entry.memory_effect:
            if key in self.tag_buffer:
                del self.tag_buffer[key]
            if entry.log is not None:
                entry.log.mark_done(entry.offset)
                yield self.cfg.mem_access_ns
            self.backchannel_for(tlp.requester_id).deliver(lnk.blocked_completion(tlp))
            return
        if tlp.atomic is not None:
            if entry.log is not None:
                raise IommuError("atomics on logging-marked pages are unsupported")
            del self.tag_buffer[key]
            self.engine.spawn(self._serve_atomic(tlp, entry))
            return
        if entry.log is not None and not entry.log_data:
            # Metadata-only read record commits at interception.
            entry.log.mark_done(entry.offset)
            del self.tag_buffer[key]
            entry = TagEntry(
                kind="get",
                dev_addr=entry.dev_addr,
                bytes_remaining=0,
                phys_base=entry.phys_base,
                memory_effect=True,
            )
            self.engine.spawn(self._serve_read(tlp, entry))
            yield self.cfg.mem_access_ns
            return
        if entry.log is None:
            del self.tag_buffer[key]
        self.engine.spawn(self._serve_read(tlp, entry))

    def _serve_read(self, tlp, entry):
        yield self.cfg.mem_access_ns  # data fetch
        data = self.memory.read(entry.phys_base, tlp.length)
        key = (tlp.requester_id, tlp.tag)
        channel = self.backchannel_for(tlp.requester_id)
        for cpl in lnk.make_completions(tlp, data, self.cfg.max_payload):
            yield self.cfg.iommu_proc_ns  # egress interception
            if entry.log is not None:
                entry.log.ring_write(
                    entry.offset + logbuf.HEADER_BYTES + entry.copied, cpl.payload
                )
                entry.copied += len(cpl.payload)
                entry.bytes_remaining -= len(cpl.payload)
            channel.deliver(cpl)
        if entry.log is not None:
            if entry.bytes_remaining:
                raise IommuError("get replica incomplete")
            del self.tag_buffer[key]
            entry.log.mark_done(entry.offset)
            yield self.cfg.mem_access_ns
        self.engine.note_activity()

    def _serve_atomic(self, tlp, entry):
        desc = tlp.atomic
        yield self.cfg.mem_access_ns
        prev = self.memory.read_word(entry.phys_base)
        if desc.op == "cas":
            if prev == desc.compare:
                self.memory.write_word(entry.phys_base, desc.operand)
        elif desc.op == "sum":
            self.memory.write_word(entry.phys_base, (prev + desc.operand) & (2**64 - 1))
        elif desc.op == "replace":
            self.memory.write_word(entry.phys_base, desc.operand)
        else:
            raise IommuError("unknown atomic op %r" % desc.op)
        yield self.cfg.mem_access_ns
        channel = self.backchannel_for(tlp.requester_id)
        for cpl in lnk.make_completions(tlp, prev.to_bytes(8, "little"), self.cfg.max_payload):
            yield self.cfg.iommu_proc_ns
            channel.deliver(cpl)
        self.engine.note_activity()

    # -- flushes -----------------------------------------------------------

    def handle_flush_get(self, tlp, state):
        log = self.alogs.get(state.iuid)
        waiter = FlushWaiter(
            requester_id=tlp.requester_id, tag=tlp.tag, txn_id=tlp.txn_id, mark=log.head
        )
        if state.active is None and log.tail >= waiter.mark:
            self._answer_flush(waiter)
            return
        state.queue.append(waiter)
        if state.active is None:
            state.active = state.queue.popleft()
        if self.on_flush_armed is not None:
            self.on_flush_armed(log)

    def _answer_flush(self, waiter):
        cpl = lnk.Tlp(
            kind=lnk.READ_COMPLETION,
            requester_id=waiter.requester_id,
            tag=waiter.tag,
            address=0,
            length=8,
            payload=bytes(8),
            txn_id=waiter.txn_id,
            seq_in_txn=0,
            txn_total=8,
        )
        self.backchannel_for(waiter.requester_id).deliver(cpl)

    def check_flushes(self, log):
        """Called when the consumer advances a tail; completes covered flushes."""
        for state in self._flush_by_iuid.get(log.iuid, []):
            while state.active is not None and log.tail >= state.active.mark:
                waiter = state.active
                state.active = state.queue.popleft() if state.queue else None
                self._answer_flush(waiter)
                self.engine.note_activity()
            if state.active is not None and self.on_flush_armed is not None:
                self.on_flush_armed(log)

    def flush_states_idle(self):
        return all(s.idle() for s in self.flush_pages.values())
