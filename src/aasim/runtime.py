"""Host-side runtime of one rank.

A Proc owns its node's memory, bridge, and core, and exposes the operation
set applications program against: nonblocking put/get with completion
handles, blocking atomics, page association with handler binding, flushes,
and one consumer loop that serves the node's logs, under three notification
modes, and its active-message inbox.
"""

from . import link as lnk
from . import logbuf
from .config import ConfigError
from .engine import Cpu, Signal
from .memory import PAGE_SHIFT, PAGE_SIZE
from .paging import Pte

# Under aa-int, a commit that leaves the node's pending records below
# interrupt_batch raises the interrupt this long after the first such
# commit, if records still wait then: the count-or-time rule of NIC
# interrupt moderation.
INTERRUPT_HOLDOFF_NS = 1000.0


class NodeError(Exception):
    pass


class OpHandle:
    """Completion token for a nonblocking operation."""

    # Reassembly state of a get answered by several completions, set by its
    # first completion; every other handle reads these class defaults.
    buf = None
    remaining = 0
    # Built by the first wait() that finds the op not done, so a handle
    # that is never waited on (most puts') builds none.
    _signal = None

    def __init__(self, engine):
        self.done = False
        self.status = None
        self.data = None
        self._engine = engine

    def fire(self, status, data=None):
        self.done = True
        self.status = status
        self.data = data
        if self._signal is not None:
            self._signal.fire()

    def wait(self):
        if not self.done and self._signal is None:
            self._signal = Signal(self._engine)
        while not self.done:
            yield self._signal
        return self


class HandlerCtx:
    """Passed to a record or message handler; memory helpers charge consumer
    CPU time, mem_access_ns per access. A Proc's one ctx is valid only during
    the call it is passed to."""

    def __init__(self, proc):
        self.cost_ns = 0.0
        self._access_ns = proc.cfg.mem_access_ns
        self._memory = proc.memory

    def touch(self, accesses=1):
        self.cost_ns += accesses * self._access_ns

    def read_word(self, addr):
        self.cost_ns += self._access_ns
        return self._memory.read_word(addr)

    def write_word(self, addr, value):
        self.cost_ns += self._access_ns
        self._memory.write_word(addr, value)


class Proc:
    def __init__(self, sim, rank, iommu):
        self.sim = sim
        self.rank = rank
        self.cfg = cfg = sim.cfg
        self.engine = engine = sim.engine
        self.metrics = sim.metrics
        self.memory = iommu.memory
        self.translator = iommu.translator
        self.iommu = iommu
        self.cpu = Cpu(engine)
        self._notification = cfg.resolved_notification()
        self._tag_cursor = 0
        self._tag_freed = Signal(engine)
        # The one record of the ops in flight: a tag is in use exactly while
        # it is a key here, until the last packet or completion is handled.
        self._gets = {}  # tag -> handle of each get in flight
        self._puts = {}  # tag -> (target, handle) of each put in flight
        self.handlers = []  # record handler per logging domain, in iuid order
        self._wake = Signal(engine)
        self._int_armed = False
        self._holdoff_armed = False
        self._ctx = HandlerCtx(self)
        self.am_handler = None
        self.sysflush_addr = None
        iommu.wake_consumer = self._notify

    # -- setup -------------------------------------------------------------

    def setup_sysflush(self):
        """Null-get target used by rma_flush; a plain readable page."""
        base = self.memory.reserve_region("sysflush", PAGE_SIZE)
        self.map_plain(base, r=True)
        self.sysflush_addr = base

    def register_handler(self, handler, log_size=None):
        """Bind a handler to a fresh logging domain; returns its id (iuid)."""
        if not self.iommu.enabled:
            # A bypassed bridge never classifies, so nothing would be logged.
            raise ConfigError("logging workloads need the bridge; iommu_enabled is false")
        log = self.iommu.add_domain(log_size if log_size is not None else self.cfg.access_log_size)
        if self._notification != "poll":  # a polling consumer needs no wake-up
            log.commit_hooks.append(self._on_commit)
        self.handlers.append(handler)
        return log.iuid

    def assoc_page(self, vaddr, hlr_id=0, span=PAGE_SIZE, **bits):
        """Install extended mapping bits for every page that [vaddr, vaddr+span)
        touches; those pages must lie inside one region this rank owns."""
        if vaddr % PAGE_SIZE:
            raise NodeError("page address %d not aligned" % vaddr)
        if span <= 0:
            raise NodeError("span %d maps no pages" % span)
        pages = -(-span // PAGE_SIZE)
        name = self.memory.region_of(vaddr)
        if name is None:
            raise NodeError("cannot assoc unowned page at %d" % vaddr)
        base, size = self.memory.region(name)
        end = vaddr + pages * PAGE_SIZE
        if end > base + size:
            raise NodeError("pages [%d, %d) run past region %r" % (vaddr, end, name))
        logging_bits = any(bits.get(b) for b in ("wl", "wld", "rl", "rld"))
        if logging_bits and bits.get("e") and not 0 < hlr_id <= len(self.handlers):
            raise NodeError("no handler/log registered for id %d" % hlr_id)
        pte = Pte(frame=vaddr >> 12, iuid=hlr_id, **bits)
        self.translator.map_range(vaddr, pte, pages)

    def map_plain(self, vaddr, w=False, r=False, span=PAGE_SIZE):
        self.assoc_page(vaddr, 0, span=span, w=w, r=r)

    def setup_inbox(self, handler):
        """AM receive side: a writable page whose writes the bridge queues.
        The node's consumer drains the inbox after its logs; each queued
        write wakes it as a flush does."""
        base = self.memory.reserve_region("inbox", PAGE_SIZE)
        self.map_plain(base, w=True)
        self.iommu.inbox_page = base >> PAGE_SHIFT
        self.am_handler = handler

    # -- tags --------------------------------------------------------------

    def _alloc_tag(self):
        """The next free tag from the cursor, once one is free. The caller
        registers it before its next yield, so no other op can take it."""
        puts, gets = self._puts, self._gets
        while True:
            for _ in range(256):
                tag = self._tag_cursor
                self._tag_cursor = (tag + 1) % 256
                if tag not in puts and tag not in gets:
                    return tag
            yield self._tag_freed

    @staticmethod
    def _span_error(address, length):
        """The error for a transfer that is empty or straddles a page."""
        if length <= 0:
            return NodeError("empty transfer")
        return NodeError("transfer [%d, +%d) straddles a page" % (address, length))

    # -- data movement -----------------------------------------------------

    def put(self, target, address, payload):
        """Nonblocking write of payload to target's address; returns a handle."""
        nbytes = len(payload)
        if nbytes > lnk.MAX_TXN_BYTES:
            raise lnk.OversizeError("put of %d bytes exceeds %d" % (nbytes, lnk.MAX_TXN_BYTES))
        if not 0 < nbytes <= PAGE_SIZE - address % PAGE_SIZE:
            raise self._span_error(address, nbytes)
        self.metrics.remote_ops += 1
        wait = self.cpu.busy(self.cfg.issue_cost_ns)
        if wait > 0:
            yield wait
        tag = self._tag_cursor
        if tag in self._puts or tag in self._gets:
            tag = yield from self._alloc_tag()
        else:  # the cursor's tag is free: take it
            self._tag_cursor = (tag + 1) % 256
        handle = OpHandle(self.engine)
        pkts = lnk.split_put(address, payload, self.rank, tag, self.cfg.max_payload)
        self._puts[tag] = (target, handle)
        pkts[-1].on_done = self._put_done
        wire = self.sim.links[target]
        for pkt in pkts:
            wire.send(pkt)
        return handle

    def _put_done(self, tag, status):
        """The last packet of the put holding tag has landed at its target."""
        _target, handle = self._puts.pop(tag)
        if self._tag_freed._waiters:  # only an issuer that found no free tag waits
            self._tag_freed.fire()
        handle.fire(status)
        self.engine.last_activity = self.engine.now

    def get(self, target, address, length, atomic=None):
        """Nonblocking read; the handle carries the data when it completes."""
        if not 0 < length <= PAGE_SIZE - address % PAGE_SIZE:
            raise self._span_error(address, length)
        self.metrics.remote_ops += 1
        wait = self.cpu.busy(self.cfg.issue_cost_ns)
        if wait > 0:
            yield wait
        tag = self._tag_cursor
        if tag in self._puts or tag in self._gets:
            tag = yield from self._alloc_tag()
        else:  # the cursor's tag is free: take it
            self._tag_cursor = (tag + 1) % 256
        handle = OpHandle(self.engine)
        req = lnk.split_get(address, length, self.rank, tag)
        req.atomic = atomic
        self._gets[tag] = handle
        self.sim.links[target].send(req)
        return handle

    def on_completion(self, tlp):
        handle = self._gets.get(tlp.tag)
        if handle is None:
            raise NodeError("completion for unknown tag %d at rank %d" % (tlp.tag, self.rank))
        self.engine.last_activity = self.engine.now
        if tlp.status == "blocked":
            status, data = "blocked", None
        elif tlp.length == tlp.txn_total:
            # One completion carries the whole get.
            status, data = "ok", tlp.payload
        else:
            buf = handle.buf
            if buf is None:
                buf = handle.buf = bytearray(tlp.txn_total)
                handle.remaining = tlp.txn_total
            off = tlp.seq_in_txn * self.cfg.max_payload
            buf[off : off + tlp.length] = tlp.payload
            handle.remaining -= tlp.length
            if handle.remaining:
                return
            status, data = "ok", bytes(buf)
        del self._gets[tlp.tag]
        if self._tag_freed._waiters:
            self._tag_freed.fire()
        handle.fire(status, data)

    # -- atomics (blocking) ------------------------------------------------

    def cas(self, target, address, compare, swap):
        handle = yield from self.get(
            target, address, 8, atomic=lnk.AtomicDesc("cas", swap, compare)
        )
        yield from handle.wait()
        return int.from_bytes(handle.data, "little")

    def fao(self, target, op, operand, address):
        if op not in ("sum", "replace"):
            raise NodeError("unknown fetch-and-op %r" % op)
        handle = yield from self.get(target, address, 8, atomic=lnk.AtomicDesc(op, operand))
        yield from handle.wait()
        return int.from_bytes(handle.data, "little")

    # -- flushes -----------------------------------------------------------

    def rma_flush(self, target):
        """Order point: returns once all our puts to target are done there."""
        peer = self.sim.procs[target]
        if peer.sysflush_addr is None:
            raise NodeError("target %d has no flush target page" % target)
        handle = yield from self.get(target, peer.sysflush_addr, 8)
        yield from handle.wait()
        if any(t == target for t, _h in self._puts.values()):
            raise NodeError("puts still outstanding after rma_flush")

    def flush(self, target):
        """Consumption barrier: every record our prior puts/gets produced at
        target is handled before this returns."""
        handles = []
        # The bridge keeps one flush page per logging domain, in iuid order.
        for flush_addr in self.sim.procs[target].iommu.flush_pages:
            handle = yield from self.get(target, flush_addr, 8)
            handles.append(handle)
        for handle in handles:
            yield from handle.wait()

    def am_send(self, target, payload):
        inbox_page = self.sim.procs[target].iommu.inbox_page
        if inbox_page is None:
            raise NodeError("target %d has no inbox" % target)
        handle = yield from self.put(target, inbox_page << PAGE_SHIFT, payload)
        return handle

    # -- notification and consumption -------------------------------------

    def _on_commit(self, _log):
        if self._notification != "int" or (
            sum(log.pending_records for log in self.iommu.alogs) >= self.cfg.interrupt_batch
        ):
            self._notify()
        elif not self._holdoff_armed:
            self._holdoff_armed = True
            self.engine.schedule(INTERRUPT_HOLDOFF_NS, self._holdoff)

    def _holdoff(self):
        self._holdoff_armed = False
        if any(log.pending_records for log in self.iommu.alogs):
            self._notify()

    def _notify(self):
        """Wake the consumer: a scratchpad write under sp, one interrupt under int."""
        if self._notification == "sp":
            self.engine.schedule(self.cfg.scratchpad_ns, self._wake.fire)
        elif self._notification == "int" and not self._int_armed:
            self._int_armed = True
            self.engine.schedule(self.cfg.interrupt_ns, self._interrupt)

    def _interrupt(self):
        self._int_armed = False
        self._wake.fire()

    def poll_step(self):
        """The node's one consumer loop over its logs and inbox; it shares
        the core with the application thread and runs until the run stops.

        Each pass checks the logs' pointers, serves every owned log in iuid
        order, then the inbox. Under poll a pass follows each poll interval.
        Under sp and int the loop parks only when nothing is committed, so
        it drains what committed while it was busy and no wake-up that found
        it busy is needed. The pointer check costs a memory access, or the
        scratchpad latency when the committed-head mirror lives in the
        core's scratchpad.

        The name is kept because bench/tracing.py patches this method by
        name and counts the core claims made inside it as the consumer's
        (ROADMAP item 12).
        """
        # Everything a pass needs, read once: the lists are the live ones,
        # since the loop starts only when the run does.
        cfg, engine, ctx, metrics = self.cfg, self.engine, self._ctx, self.metrics
        busy, iommu, wake = self.cpu.busy, self.iommu, self._wake
        logs, inbox, handlers = iommu.alogs, iommu.inbox, self.handlers
        polling = self._notification == "poll"
        poll_ns, access_ns, handler_ns = cfg.poll_interval_ns, cfg.mem_access_ns, cfg.handler_cost_ns
        check_ns = cfg.scratchpad_ns if self._notification == "sp" else access_ns
        dequeue_ns = 2 * access_ns
        header_bytes = logbuf.HEADER_BYTES
        while True:
            if polling:
                yield poll_ns
            elif not any(log.pending_records for log in logs):
                yield wake
            wait = busy(check_ns)
            if wait > 0:
                yield wait
            for log, handler in zip(logs, handlers):
                while log.committed_head - log.tail >= header_bytes:
                    record, size = log.read_record()
                    wait = busy(access_ns)  # record fetch
                    if wait > 0:
                        yield wait
                    ctx.cost_ns = 0.0
                    handler(ctx, record)
                    wait = busy(handler_ns + ctx.cost_ns)
                    if wait > 0:
                        yield wait
                    log.advance_tail(size)
                    metrics.handler_invocations += 1
                    engine.last_activity = engine.now
                    if log.flush_waiters:
                        iommu.check_flushes(log)
            while inbox:
                src, payload = inbox[0]
                wait = busy(dequeue_ns)
                if wait > 0:
                    yield wait
                ctx.cost_ns = 0.0
                self.am_handler(ctx, src, payload)
                wait = busy(handler_ns + ctx.cost_ns)
                if wait > 0:
                    yield wait
                # The message leaves the inbox only once handled, so a sweep
                # during its handler does not find the node idle.
                inbox.popleft()
                metrics.handler_invocations += 1
                engine.last_activity = engine.now

    # -- quiescence --------------------------------------------------------

    def outstanding(self):
        """The bridge's outstanding(), then the node's ops in flight and each
        log with records not yet handled; empty once the node is drained."""
        bits = self.iommu.outstanding()
        in_flight = len(self._gets) + len(self._puts)
        if in_flight:
            bits.append("ops in flight=%d" % in_flight)
        for log in self.iommu.alogs:
            # tail <= committed_head <= head: a tail at head leaves none pending.
            if log.head != log.tail:
                bits.append("log%d head=%d committed=%d tail=%d"
                            % (log.iuid, log.head, log.committed_head, log.tail))
        return bits
