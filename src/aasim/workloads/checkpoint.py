"""Incremental checkpointing driven by remote-write metadata records.

A target region is marked so every remote put both lands in memory and
leaves a metadata record. Between checkpoints the collector drains those
records into a dirty-page set, unions in the locally dirtied pages it is
handed, and snapshots. Sources fence with a consumption flush before each
epoch boundary so the snapshot sees every record of the closing epoch.
"""

from ..config import ConfigError
from ..engine import Barrier
from ..memory import PAGE_SIZE
from ..sim import Simulation


class CheckpointBench:
    def __init__(self, cfg, n_pages, epochs, writes_per_source):
        cfg.validate()
        if cfg.num_procs < 2 or n_pages < 1:
            raise ConfigError("checkpoint needs procs >= 2 (a collector and a source) and pages >= 1,"
                              " not procs=%d pages=%d" % (cfg.num_procs, n_pages))
        if epochs < 0 or writes_per_source < 0:
            raise ConfigError("checkpoint needs epochs >= 0 and writes >= 0,"
                              " not epochs=%d writes=%d" % (epochs, writes_per_source))
        self.cfg = cfg
        self.n_pages = n_pages
        self.epochs = epochs
        self.sim = Simulation(cfg)
        self.dirty_now = set()
        self.snapshots = []
        self.local_sets = []  # per epoch, the locally dirtied pages, drawn below
        rng = self.sim.rng_for(4)
        sources = list(range(1, cfg.num_procs))
        self.plan = [
            [
                [
                    (rng.randrange(n_pages), rng.randrange(0, PAGE_SIZE // 8 - 1) * 8)
                    for _ in range(writes_per_source)
                ]
                for _ in sources
            ]
            for _ in range(self.epochs)
        ]
        for _ in range(self.epochs):
            self.local_sets.append({rng.randrange(n_pages) for _ in range(4)})
        self._build()

    def _build(self):
        target = self.sim.procs[0]
        span = self.n_pages * PAGE_SIZE
        self.region = target.memory.reserve_region("ckpt", span)
        iuid = target.register_handler(self._mark_dirty)
        target.assoc_page(self.region, iuid, span=span, w=True, wl=True, e=True)

    def _mark_dirty(self, ctx, record):
        self.dirty_now.add((record.dev_addr - self.region) // PAGE_SIZE)
        ctx.touch(1)

    def _source_app(self, idx, rank, start_gate, done_gate):
        proc = self.sim.procs[rank]
        for epoch in range(self.epochs):
            yield from start_gate.arrive()
            for page, offset in self.plan[epoch][idx]:
                yield from proc.put(0, self.region + page * PAGE_SIZE + offset, b"\x5a" * 8)
                self.sim.metrics.ops += 1
            yield from proc.flush(0)
            yield from done_gate.arrive()

    def _collector_app(self, start_gate, done_gate):
        for epoch in range(self.epochs):
            yield from start_gate.arrive()
            yield from done_gate.arrive()
            dirty = set(self.dirty_now) | set(self.local_sets[epoch])
            self.snapshots.append(dirty)
            self.dirty_now.clear()

    def run(self):
        parties = self.cfg.num_procs  # sources plus the collector
        start_gate = Barrier(self.sim.engine, parties)
        done_gate = Barrier(self.sim.engine, parties)
        for idx, rank in enumerate(range(1, self.cfg.num_procs)):
            self.sim.add_app(rank, self._source_app(idx, rank, start_gate, done_gate))
        self.sim.add_app(0, self._collector_app(start_gate, done_gate))
        return self.sim.run()

    def expected(self):
        out = []
        for epoch in range(self.epochs):
            pages = {page for per_src in self.plan[epoch] for (page, _off) in per_src}
            out.append(pages | set(self.local_sets[epoch]))
        return out
