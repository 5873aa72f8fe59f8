"""The four benchmark workloads: build, run and check one scenario.

Each scenario is built from a seed alone. Constructing it is the set-up the
benchmark times (simulation, memory, mappings and input generation);
``run()`` drives the simulation to quiescence and returns its Metrics;
``verify()`` checks the outputs against an independent expectation and is
never timed. Every source is a closed loop: it issues its next operation only
after the previous issue has returned on its simulated core.
"""

import random
from array import array
from collections import Counter

from aasim.config import SimConfig
from aasim.memory import PAGE_SIZE
from aasim.sim import Simulation
from aasim.workloads import dht, getlog

DHT_PROCS = 8
DHT_OPS_PER_PROC = 2000
DHT_R_COLS = 0.25
GETLOG_GETS = 20_000
INCAST_SOURCES = 7
INCAST_EPOCHS = 40
INCAST_PUTS_PER_EPOCH = 60
INCAST_PAYLOAD = 1024
INCAST_PAGES = 16

_ZERO_PAGE = bytes(PAGE_SIZE)
# Volumes are read back in slices this large so that the check's own buffers
# stay small next to the simulated memory and do not set the peak RSS.
_READ_CHUNK = 1 << 20


def _volume_contents(memory, layout):
    """Multiset of non-empty element words in one rank's DHT volume.

    Reads the volume in bulk and unpacks only pages that hold data, since
    almost every cell of a default-size volume is empty.
    """
    found = Counter()
    end = layout.base + layout.volume_bytes
    for addr in range(layout.base, end, _READ_CHUNK):
        buf = memory.read(addr, min(_READ_CHUNK, end - addr))
        for off in range(0, len(buf), PAGE_SIZE):
            page = buf[off : off + PAGE_SIZE]
            if page != _ZERO_PAGE:
                found.update(array("Q", page)[:: dht.CELL // 8])
    del found[dht.EMPTY]
    return found


class DhtScenario:
    """DHT inserts at default volume size, 8 procs, a quarter colliding."""

    def __init__(self, scheme, seed):
        cfg = SimConfig(
            scheme=scheme,
            num_procs=DHT_PROCS,
            ops_per_proc=DHT_OPS_PER_PROC,
            r_cols=DHT_R_COLS,
            seed=seed,
        )
        self.bench = dht.DhtBench(cfg)
        self.sim = self.bench.sim
        self.planned_ops = sum(len(ops) for ops in self.bench.plan)

    def run(self):
        return self.bench.run()

    def verify(self):
        return all(
            _volume_contents(proc.memory, self.bench.layouts[proc.rank])
            == self.bench.oracle_contents(proc.rank)
            for proc in self.sim.procs
        )


class GetLogScenario:
    """One source, one outstanding 8-byte get at a time, reads logged with
    data at the serving bridge."""

    def __init__(self, seed):
        cfg = SimConfig(scheme="aa-poll", num_procs=2, seed=seed)
        self.bench = getlog.GetLogBench(cfg, "aa", n_gets=GETLOG_GETS)
        self.sim = self.bench.sim
        self.planned_ops = GETLOG_GETS

    def run(self):
        return self.bench.run()

    def verify(self):
        return self.bench.replayed() == self.bench.fetched_values()


class IncastScenario:
    """Seven sources put seeded 1 KiB payloads into logged-with-data pages on
    rank 0 and flush once per epoch.

    Each put is four packets at the default 256-byte max payload, so logged
    multi-packet transactions from different sources interleave on the one
    ingress wire and their records complete out of order.
    """

    def __init__(self, seed):
        cfg = SimConfig(scheme="aa-poll", num_procs=INCAST_SOURCES + 1, seed=seed)
        self.sim = Simulation(cfg)
        target = self.sim.procs[0]
        self.consumed = []
        iuid = target.register_handler(self._consume)
        span = INCAST_PAGES * PAGE_SIZE
        self.region = target.memory.reserve_region("incast", span)
        for addr in range(self.region, self.region + span, PAGE_SIZE):
            target.assoc_page(addr, iuid, w=True, wl=True, wld=True, e=True)
        rng = random.Random(seed)
        slots = span // INCAST_PAYLOAD
        self.plan = {
            src: [
                [
                    (self.region + rng.randrange(slots) * INCAST_PAYLOAD, rng.randbytes(INCAST_PAYLOAD))
                    for _ in range(INCAST_PUTS_PER_EPOCH)
                ]
                for _ in range(INCAST_EPOCHS)
            ]
            for src in range(1, INCAST_SOURCES + 1)
        }
        self.planned_ops = INCAST_SOURCES * INCAST_EPOCHS * INCAST_PUTS_PER_EPOCH

    def _consume(self, ctx, record):
        self.consumed.append((record.device_id, record.dev_addr, bytes(record.payload[: record.length])))
        ctx.touch(1)

    def _source(self, src):
        proc = self.sim.procs[src]
        for epoch in self.plan[src]:
            for addr, payload in epoch:
                yield from proc.put(0, addr, payload)
                self.sim.metrics.ops += 1
            yield from proc.flush(0)

    def run(self):
        for src in self.plan:
            self.sim.add_app(src, self._source(src))
        return self.sim.run()

    def verify(self):
        """Every put is consumed once, and memory holds only what was sent.

        Puts to one slot from different sources interleave packet by packet,
        so each packet-sized piece of a slot must match the same piece of
        some payload sent there, not necessarily all from one payload.
        """
        sent = Counter(
            (src, addr, payload)
            for src, epochs in self.plan.items()
            for epoch in epochs
            for addr, payload in epoch
        )
        if Counter(self.consumed) != sent:
            return False
        by_slot = {}
        for _src, addr, payload in sent:
            by_slot.setdefault(addr, []).append(payload)
        piece = self.sim.cfg.max_payload
        memory = self.sim.procs[0].memory
        for slot in range(self.region, self.region + INCAST_PAGES * PAGE_SIZE, INCAST_PAYLOAD):
            payloads = by_slot.get(slot, [bytes(INCAST_PAYLOAD)])
            for off in range(0, INCAST_PAYLOAD, piece):
                held = memory.read(slot + off, piece)
                if all(held != p[off : off + piece] for p in payloads):
                    return False
        return True


WORKLOADS = {
    "dht-active": lambda seed: DhtScenario("aa-poll", seed),
    "dht-rma": lambda seed: DhtScenario("rma", seed),
    "getlog-active": GetLogScenario,
    "incast-logged": IncastScenario,
}
