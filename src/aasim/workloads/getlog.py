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
    def __init__(self, cfg, variant, n_gets):
        if variant not in SCHEMES:
            raise ValueError("unknown get-logging variant %r" % variant)
        cfg.validate()
        if n_gets < 0:
            raise ConfigError("getlog needs gets >= 0, not %d" % n_gets)
        self.cfg = cfg
        self.variant = variant
        self.n_gets = n_gets
        self.sim = Simulation(cfg)
        # The 8-byte values, joined: at the target in record order, and at
        # the source in issue order.
        self.recovered = bytearray()
        self.fetched = bytearray()
        rng = self.sim.rng_for(4)
        # Each address is rng.randrange(n) * 8, inlined: the same getrandbits
        # calls. n leaves out the region's last word on purpose; drawing it
        # would move every address.
        draw = rng.getrandbits
        n = DATA_PAGES * PAGE_SIZE // 8 - 1
        k = n.bit_length()
        self.addr_plan = plan = []
        for _ in range(n_gets):
            i = draw(k)
            while i >= n:
                i = draw(k)
            plan.append(i * 8)
        self._build(rng)

    def _build(self, rng):
        target = self.sim.procs[0]
        span = DATA_PAGES * PAGE_SIZE
        self.region = target.memory.reserve_region("data", span)
        target.memory.write(self.region, rng.randbytes(span))
        expose(target, self.region, span, self.variant, self._log_record)
        if self.variant == "sendback":
            # Regions and mappings round up to whole pages; no gets still take one.
            size = max(self.n_gets * 8, PAGE_SIZE)
            self.sendlog = target.memory.reserve_region("sendlog", size)
            target.map_plain(self.sendlog, w=True, span=size)

    def _log_record(self, ctx, record):
        self.recovered += record.payload[: record.length]
        ctx.touch(1)

    def _source_app(self):
        proc = self.sim.procs[1]
        for i, offset in enumerate(self.addr_plan):
            handle = yield from proc.get(0, self.region + offset, 8)
            yield from handle.wait()
            self.fetched += handle.data
            self.sim.metrics.ops += 1
            if self.variant == "sendback":
                yield from proc.put(0, self.sendlog + i * 8, handle.data)

    def run(self):
        self.sim.add_app(1, self._source_app())
        return self.sim.run()

    def replayed(self):
        """The values recoverable from what the target holds, joined in
        order, or None when it holds none."""
        if self.variant == "aa":
            return bytes(self.recovered)
        if self.variant == "sendback":
            return self.sim.procs[0].memory.read(self.sendlog, self.n_gets * 8)
        return None

    def fetched_values(self):
        """The values the source fetched, joined in issue order."""
        return bytes(self.fetched)


def expose(proc, region, span, variant, handler):
    """Map a data region readable; under aa, every get of it is logged with
    its data and the record goes to handler."""
    if variant == "aa":
        iuid = proc.register_handler(handler)
        proc.assoc_page(region, iuid, span=span, r=True, rl=True, rld=True, e=True)
    else:
        proc.map_plain(region, r=True, span=span)
