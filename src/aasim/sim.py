"""System assembly: nodes, wires, and the run loop.

Every rank is one node (memory, bridge, core, ingress wire). Remote ranks
appear at a node as source devices sharing the node's page table. The run
loop executes the application coroutines and, for each node that has a
handler, its one consumer loop, Proc.poll_step. Two observers watch the run;
they only stop it or raise, and never wake a node. The watchdog is the one
stall rule, in every phase of the run: it raises a diagnostic DeadlockError
at last_activity + stall_limit_ns unless there was activity meanwhile. The
last app to return sweeps, every SWEEP_INTERVAL_NS from its return (a run
with no app sweeps from the start): a sweep that finds every queue, log and
handle drained calls Engine.stop(), so the run ends on it. A run that
executes more than DEFAULT_EVENT_BUDGET events raises DeadlockError too,
with the same diagnosis after a line naming the budget.
"""

import random

from .engine import BudgetExceeded, Engine
from .iommu import Iommu
from .link import BackChannel, Link
from .memory import PhysMemory
from .metrics import Metrics
from .paging import AddressTranslator, IotlbCache, PageTable
from .runtime import Proc

_STREAM_LINK = 1
_STREAM_IOTLB = 2

SWEEP_INTERVAL_NS = 1000.0
DEFAULT_EVENT_BUDGET = 50_000_000


class DeadlockError(RuntimeError):
    pass


class Simulation:
    def __init__(self, cfg):
        cfg.validate()
        self.cfg = cfg
        self.engine = Engine()
        self.metrics = Metrics()
        self._ran = False
        self._apps = []
        self._apps_done = 0
        self.procs = []
        self.links = []
        for rank in range(cfg.num_procs):
            iotlb = IotlbCache(
                cfg.iotlb_size, cfg.iotlb_assoc, cfg.iotlb_policy, self.rng_for(_STREAM_IOTLB, rank)
            )
            iommu = Iommu(self.engine, cfg, PhysMemory(rank), AddressTranslator(PageTable(), iotlb))
            proc = Proc(self, rank, iommu)
            link = Link(self.engine, iommu.on_arrival, cfg, self.rng_for(_STREAM_LINK, rank), self.metrics)
            iommu.link = link
            self.procs.append(proc)
            self.links.append(link)
        for proc in self.procs:
            for src in self.procs:
                proc.translator.register_device(src.rank)
                channel = BackChannel(self.engine, src.on_completion, cfg, self.metrics)
                proc.iommu.backchannels[src.rank] = channel
            proc.setup_sysflush()

    # -- plumbing ----------------------------------------------------------

    def rng_for(self, stream, idx=0):
        return random.Random(self.cfg.seed * 0x9E3779B1 + stream * 65537 + idx)

    def add_app(self, rank, gen):
        self._apps.append(gen)

    # -- run loop ----------------------------------------------------------

    def _wrap_app(self, gen):
        yield from gen
        self._apps_done += 1
        self.engine.last_activity = self.engine.now
        if self._apps_done == len(self._apps):
            # Sweep after the events already due now: they may end the last work.
            yield 0.0
            yield from self._sweep()

    def _watchdog(self):
        """Raise at the first deadline with no activity since, in any phase."""
        engine, limit = self.engine, self.cfg.stall_limit_ns
        while True:
            deadline = engine.last_activity + limit
            yield deadline - engine.now
            if engine.last_activity + limit == deadline:
                raise DeadlockError(self.diagnose())

    def _sweep(self):
        while not self.drained():
            yield SWEEP_INTERVAL_NS
        self.engine.stop()

    def drained(self):
        # Asked once every app has returned: no op is in its issue wait, so no
        # core's claim holds work. No wire needs a look: a device's packets
        # stay in order and a put completes at its last packet, still in
        # ingress, so all a wire holds belongs to an op in _puts or _gets.
        return not any(p.outstanding() for p in self.procs)

    def run(self):
        if self._ran:
            raise RuntimeError("simulation already ran")
        self._ran = True
        for proc in self.procs:
            if proc.handlers or proc.am_handler is not None:
                self.engine.spawn(proc.poll_step())
        for gen in self._apps:
            self.engine.spawn(self._wrap_app(gen))
        # The watchdog goes first: a sweep that stops the engine inside spawn
        # must not leave its wake queued.
        self.engine.spawn(self._watchdog())
        if not self._apps:
            self.engine.spawn(self._sweep())
        try:
            self.engine.run(max_events=DEFAULT_EVENT_BUDGET)
        except BudgetExceeded as exc:
            raise DeadlockError("%s\n%s" % (exc, self.diagnose())) from exc
        self._aggregate()
        return self.metrics

    def _aggregate(self):
        for proc in self.procs:
            iotlb = proc.translator.iotlb
            self.metrics.iotlb_hits += iotlb.hits
            self.metrics.iotlb_misses += iotlb.misses
            for log in proc.iommu.alogs:
                self.metrics.records_committed += log.records_committed
                self.metrics.records_consumed += log.records_consumed
                self.metrics.backpressure_stalls += log.reserve_failures
            self.metrics.fault_entries += len(proc.iommu.fault_log.entries)
            self.metrics.fault_drops += proc.iommu.fault_log.drops
        self.metrics.finalize(self.engine)

    def diagnose(self):
        lines = ["deadlock diagnostics at t=%.0f ns:" % self.engine.now]
        lines.append("  apps done: %d/%d" % (self._apps_done, len(self._apps)))
        for proc, link in zip(self.procs, self.links):
            bits = []
            if link.queued or link.in_flight:
                bits.append("link queued=%d in_flight=%d" % (link.queued, link.in_flight))
            bits += proc.outstanding()
            if proc.cpu.free_at > self.engine.now:
                bits.append("core busy until t=%.0f" % proc.cpu.free_at)
            if bits:
                lines.append("  rank %d: %s" % (proc.rank, "; ".join(bits)))
        return "\n".join(lines)
