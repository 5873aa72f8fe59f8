"""System assembly: nodes, wires, and the run loop with quiescence detection.

Every rank is one node (memory, bridge, core, ingress wire). Remote ranks
appear at a node as source devices sharing the node's page table. The run
loop executes the application coroutines plus per-node consumer loops and a
sweeper that declares quiescence once every queue, log, and handle has
drained; a drained event heap with pending work, or a long stretch without
progress, raises a diagnostic deadlock error instead of hanging.
"""

import random

from .engine import Cpu, Engine
from .iommu import Iommu
from .link import BackChannel, Link
from .logbuf import FaultLog
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
        self.stopping = False
        self._ran = False
        self._apps = []
        self._apps_done = 0
        self.procs = []
        self.links = []
        for rank in range(cfg.num_procs):
            memory = PhysMemory(rank)
            iotlb = IotlbCache(
                cfg.iotlb_size, cfg.iotlb_assoc, cfg.iotlb_policy, self.rng_for(_STREAM_IOTLB, rank)
            )
            translator = AddressTranslator(PageTable(), iotlb)
            fault_log = FaultLog(cfg.fault_log_entries)
            iommu = Iommu(self.engine, cfg, memory, translator, fault_log, self.metrics)
            cpu = Cpu(self.engine)
            proc = Proc(self, rank, cfg, self.engine, self.metrics, memory, translator, iommu, cpu)
            link = Link(self.engine, iommu.on_arrival, cfg, self.rng_for(_STREAM_LINK, rank), self.metrics)
            iommu.link = link
            self.procs.append(proc)
            self.links.append(link)
        self._wires = list(self.links)  # ingress links, then return channels
        for proc in self.procs:
            for src in self.procs:
                proc.translator.register_device(src.rank)
                channel = BackChannel(self.engine, src.on_completion, cfg, self.metrics)
                proc.iommu.backchannels[src.rank] = channel
                self._wires.append(channel)
            proc.setup_sysflush()

    # -- plumbing ----------------------------------------------------------

    def rng_for(self, stream, idx=0):
        return random.Random(self.cfg.seed * 0x9E3779B1 + stream * 65537 + idx)

    def add_app(self, rank, gen):
        self._apps.append((rank, gen))

    # -- run loop ----------------------------------------------------------

    def _wrap_app(self, gen):
        yield from gen
        self._apps_done += 1
        self.engine.note_activity()

    def _sweeper(self):
        while True:
            yield SWEEP_INTERVAL_NS
            if self._apps_done == len(self._apps):
                self.stopping = self.drained()
                # Wake parked consumers, to stop or to take sub-batch leftovers.
                for proc in self.procs:
                    proc._wake.fire()
                if self.stopping:
                    return
            if self.engine.now - self.engine.last_activity > self.cfg.stall_limit_ns:
                raise DeadlockError(self.diagnose())

    def drained(self):
        return all(p.drained() and p.iommu.idle() for p in self.procs) and all(
            w.idle() for w in self._wires
        )

    def run(self):
        if self._ran:
            raise RuntimeError("simulation already ran")
        self._ran = True
        for proc in self.procs:
            if proc.handlers:
                self.engine.spawn(proc.consumer())
            if proc.am_handler is not None:
                self.engine.spawn(proc.am_consumer())
        for _rank, gen in self._apps:
            self.engine.spawn(self._wrap_app(gen))
        self.engine.spawn(self._sweeper())
        self.engine.run(max_events=DEFAULT_EVENT_BUDGET)
        if not self.stopping and self._apps:
            raise DeadlockError("event heap drained without quiescence\n" + self.diagnose())
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
            self.metrics.fault_entries += len(proc.iommu.fault_log.entries)
            self.metrics.fault_drops += proc.iommu.fault_log.drops
        self.metrics.finalize(self.cfg, self.engine)

    def diagnose(self):
        lines = ["deadlock diagnostics at t=%.0f ns:" % self.engine.now]
        lines.append("  apps done: %d/%d" % (self._apps_done, len(self._apps)))
        for proc in self.procs:
            link = self.links[proc.rank]
            bits = []
            if link.queued or link.in_flight:
                bits.append("link queued=%d in_flight=%d" % (link.queued, link.in_flight))
            bits.extend(proc.iommu.describe())
            if proc.live_ops:
                bits.append("live ops=%d" % proc.live_ops)
            for log in proc.iommu.alogs:
                if not log.drained():
                    bits.append(
                        "log%d head=%d committed=%d tail=%d"
                        % (log.iuid, log.head, log.committed_head, log.tail)
                    )
            if bits:
                lines.append("  rank %d: %s" % (proc.rank, "; ".join(bits)))
        return "\n".join(lines)
