"""Streaming bandwidth through the extended bridge vs a plain one.

A source pushes back-to-back page-sized puts into a reused target buffer
whose pages carry no logging bits. The same stream runs with the extended
bridge enabled (translating, classifying, caching) and with it disabled
(raw addresses, no walks); the achieved bandwidths should sit within a few
percent of each other because walks amortize across the cached, reused
pages while the wire stays the bottleneck.
"""

from ..memory import PAGE_SIZE
from ..sim import Simulation

BUF_PAGES = 16


class StreamBench:
    def __init__(self, cfg, n_puts):
        cfg.validate()
        self.cfg = cfg
        self.n_puts = n_puts
        self.sim = Simulation(cfg)
        target = self.sim.procs[0]
        span = BUF_PAGES * PAGE_SIZE
        self.region = target.memory.reserve_region("streambuf", span)
        target.map_plain(self.region, w=True, span=span)
        self.payload = bytes(range(256)) * (PAGE_SIZE // 256)

    def _source_app(self):
        proc = self.sim.procs[1]
        for i in range(self.n_puts):
            addr = self.region + (i % BUF_PAGES) * PAGE_SIZE
            yield from proc.put(0, addr, self.payload)
            self.sim.metrics.ops += 1

    def run(self):
        self.sim.add_app(1, self._source_app())
        return self.sim.run()

    def bandwidth(self):
        """Payload bytes per nanosecond over the whole run."""
        m = self.sim.metrics
        return self.n_puts * PAGE_SIZE / m.sim_time_ns
