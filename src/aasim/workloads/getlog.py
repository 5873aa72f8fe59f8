"""Fault-tolerant get logging: who keeps the copy of data that was read.

A source reads 8-byte words from a target's data region. The plain variant
keeps nothing. The logging variant marks the data pages so the target's
bridge records each get's address and payload as it serves it, at zero wire
cost. The sendback variant has the source put every fetched word back into a
log region at the target, doubling the payload on the wire. Recovery means
reconstructing the exact sequence of values the source fetched.
"""

from ..config import ConfigError
from ..memory import PAGE_SIZE
from ..sim import Simulation

SCHEMES = ("no-ft", "aa", "sendback")
DATA_PAGES = 4


class GetLogBench:
    def __init__(self, cfg, variant, n_gets=200):
        if variant not in SCHEMES:
            raise ValueError("unknown get-logging variant %r" % variant)
        cfg.validate()
        if n_gets < 0:
            raise ConfigError("getlog needs gets >= 0, not %d" % n_gets)
        self.cfg = cfg
        self.variant = variant
        self.n_gets = n_gets
        self.sim = Simulation(cfg)
        self.recovered = []  # (address, bytes) at the target, in record order
        self.fetched = []  # (address, bytes) at the source, in issue order
        rng = self.sim.rng_for(4)
        self.addr_plan = [
            rng.randrange(0, DATA_PAGES * PAGE_SIZE // 8 - 1) * 8 for _ in range(n_gets)
        ]
        self._build(rng)

    def _build(self, rng):
        target = self.sim.procs[0]
        span = DATA_PAGES * PAGE_SIZE
        self.region = target.memory.reserve_region("data", span)
        target.memory.write(self.region, bytes(rng.getrandbits(8) for _ in range(span)))
        expose(target, self.region, span, self.variant, self._log_record)
        if self.variant == "sendback":
            size = (self.n_gets * 8 + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
            self.sendlog = target.memory.reserve_region("sendlog", size)
            target.map_plain(self.sendlog, w=True, span=size)

    def _log_record(self, ctx, record):
        self.recovered.append((record.dev_addr, bytes(record.payload[: record.length])))
        ctx.touch(1)

    def _source_app(self):
        proc = self.sim.procs[1]
        for i, offset in enumerate(self.addr_plan):
            addr = self.region + offset
            handle = yield from proc.get(0, addr, 8)
            yield from handle.wait()
            self.fetched.append((addr, handle.data))
            self.sim.metrics.ops += 1
            if self.variant == "sendback":
                yield from proc.put(0, self.sendlog + i * 8, handle.data)

    def run(self):
        self.sim.add_app(1, self._source_app())
        return self.sim.run()

    def replayed(self):
        """The value sequence recoverable from what the target holds."""
        if self.variant == "aa":
            return [data for (_addr, data) in self.recovered]
        if self.variant == "sendback":
            mem = self.sim.procs[0].memory
            return [mem.read(self.sendlog + i * 8, 8) for i in range(self.n_gets)]
        return None

    def fetched_values(self):
        return [data for (_addr, data) in self.fetched]


def expose(proc, region, span, variant, handler):
    """Map a data region readable; under aa, every get of it is logged with
    its data and the record goes to handler."""
    if variant == "aa":
        iuid = proc.register_handler(handler)
        proc.assoc_page(region, iuid, span=span, r=True, rl=True, rld=True, e=True)
    else:
        proc.map_plain(region, r=True, span=span)


def run_variants(cfg, **kw):
    out = {}
    for variant in SCHEMES:
        bench = GetLogBench(cfg.replace(), variant, **kw)
        metrics = bench.run()
        out[variant] = (bench, metrics)
    return out
