"""Seeded small runs off the default costs, and what each run gives.

The acceptance payloads and the bench workloads run at default costs, where
ties between events are rare. ``wide_configs()`` draws small runs whose
integer costs include zero and a few nanoseconds, so that ties are common,
together with one- and two-credit links, a one-entry IOTLB, 8-byte
``max_payload`` and access logs from 32 B to 64 KiB. It draws every ``dht``
scheme, gets logged with data (``getlog aa``), and incast-style runs where
several sources put logged-with-data payloads into one node and flush.
``NAMED_CONFIGS`` adds six small runs at default costs.

``outcome(config)`` runs one config and returns what it gives: its CSV row,
IOTLB misses, records consumed and the workload's own check, or, for a run
that raises one of ``MODEL_ERRORS``, the error's class, the first line of its
message and ``engine.now``; either way, its event count. Each config is a
dict of plain values, so ``tools/compare_trees.py`` can run the same set on
another source tree; ``tests/exact.json`` pins each outcome.
"""

import random
from collections import Counter

from aasim import iommu, link, logbuf, memory, paging, runtime, sim
from aasim.config import SimConfig
from aasim.memory import PAGE_SIZE
from aasim.metrics import CSV_COLUMNS
from aasim.sim import Simulation
from aasim.workloads import dht, getlog

GENERATOR_SEED = 20261019
DHT_CONFIGS = 400
GETLOG_CONFIGS = 24
INCAST_CONFIGS = 40

# Off-default values per cost field; zeros and 5 ns make ties common.
COSTS = {
    "mem_access_ns": (0.0, 5.0, 10.0, 70.0),
    "iommu_proc_ns": (0.0, 5.0, 10.0),
    "issue_cost_ns": (0.0, 5.0, 150.0, 1500.0),
    "handler_cost_ns": (0.0, 5.0, 100.0),
    "link_latency_ns": (0.0, 5.0, 100.0, 500.0),
    "poll_interval_ns": (5.0, 100.0, 1000.0),
    "interrupt_ns": (0.0, 5.0, 3000.0),
    "scratchpad_ns": (0.0, 5.0, 15.0),
    "interrupt_batch": (1, 2, 10),
    "link_bw_bytes_per_ns": (1.0, 2.0, 4.0),
    "wire_header_bytes": (0, 24),
    "credit_capacity": (1, 2, 64),
    "iotlb_size": (1, 64),
    "max_payload": (8, 256),
}
# A stalled run polls until the watchdog fires; 100 us keeps that cheap and
# still lies far above any quiet stretch of a run that finishes.
STALL_LIMIT_NS = 1e5
LOG_SIZES = tuple(1 << k for k in range(5, 17))  # 32 B .. 64 KiB
INCAST_PAYLOADS = (8, 24, 256, 1000, 1024)
ACTIVE = ("aa-int", "aa-poll", "aa-sp")
# The simulator's own errors, which a run may raise as its outcome.
MODEL_ERRORS = (runtime.NodeError, link.LinkError, iommu.IommuError, logbuf.LogError,
                paging.PagingError, memory.MemoryError_, dht.DhtOverflow, sim.DeadlockError)


def _costs(rng, record_bytes):
    """One draw of every cost field, and a log that fits one record."""
    fields = {name: rng.choice(values) for name, values in COSTS.items()}
    fields["access_log_size"] = rng.choice([s for s in LOG_SIZES if s >= record_bytes])
    fields["stall_limit_ns"] = STALL_LIMIT_NS
    return fields


def wide_configs(seed=GENERATOR_SEED):
    """The config set, in a fixed order."""
    rng = random.Random(seed)
    configs = []
    for _ in range(DHT_CONFIGS):
        configs.append({
            "kind": "dht",
            "scheme": rng.choice(("aa-int", "aa-poll", "aa-sp", "rma", "am")),
            "num_procs": rng.randint(2, 4),
            "ops_per_proc": rng.randint(5, 40),
            "r_cols": rng.choice((0.0, 0.25, 0.5)),
            "seed": rng.randint(1, 1000),
            "vol_size": 1 << 10,
            **_costs(rng, logbuf.record_size(8, with_data=True)),
        })
    for _ in range(GETLOG_CONFIGS):
        configs.append({
            "kind": "getlog",
            "scheme": rng.choice(ACTIVE),
            "num_procs": 2,
            "gets": rng.randint(5, 40),
            "seed": rng.randint(1, 1000),
            **_costs(rng, logbuf.record_size(8, with_data=True)),
        })
    for _ in range(INCAST_CONFIGS):
        payload = rng.choice(INCAST_PAYLOADS)
        configs.append({
            "kind": "incast",
            "scheme": rng.choice(ACTIVE),
            "num_procs": rng.randint(3, 5),
            "epochs": rng.randint(1, 3),
            "puts": rng.randint(2, 6),
            "payload": payload,
            "pages": rng.randint(1, 2),
            "seed": rng.randint(1, 1000),
            **_costs(rng, logbuf.record_size(payload, with_data=True)),
        })
    return configs


# Seed-1 runs at default costs: every dht scheme, and 60 gets logged with data.
_SMALL = {"num_procs": 4, "ops_per_proc": 40, "vol_size": 1 << 12, "seed": 1}
NAMED_CONFIGS = {"small %s" % scheme: {"kind": "dht", "scheme": scheme, "r_cols": 0.3, **_SMALL}
                 for scheme in ("aa-int", "aa-poll", "aa-sp", "rma", "am")}
NAMED_CONFIGS["small getlog-aa"] = {"kind": "getlog", **_SMALL, "num_procs": 2, "gets": 60}


def sim_config(config):
    fields = {k: v for k, v in config.items() if k in SimConfig.__dataclass_fields__}
    return SimConfig(**fields)


class _Dht:
    def __init__(self, config):
        self.bench = dht.DhtBench(sim_config(config))
        self.sim = self.bench.sim

    def run(self):
        return self.bench.run()

    def check(self):
        return all(
            self.bench.contents(rank) == self.bench.oracle_contents(rank)
            for rank in range(self.sim.cfg.num_procs)
        )


class _GetLog:
    def __init__(self, config):
        self.bench = getlog.GetLogBench(sim_config(config), "aa", n_gets=config["gets"])
        self.sim = self.bench.sim

    def run(self):
        return self.bench.run()

    def check(self):
        return self.bench.replayed() == self.bench.fetched_values()


class _Incast:
    """Sources 1.. put seeded payloads into logged-with-data pages on rank 0,
    one flush per epoch; every put must be consumed once."""

    def __init__(self, config):
        self.sim = Simulation(sim_config(config))
        target = self.sim.procs[0]
        self.consumed = []
        iuid = target.register_handler(self._consume)
        span = config["pages"] * PAGE_SIZE
        region = target.memory.reserve_region("incast", span)
        target.assoc_page(region, iuid, span=span, w=True, wl=True, wld=True, e=True)
        rng = random.Random(config["seed"])
        size = config["payload"]
        slots = [
            page + k * size
            for page in range(region, region + span, PAGE_SIZE)
            for k in range(PAGE_SIZE // size)
        ]
        self.plan = {
            src: [
                [(rng.choice(slots), rng.randbytes(size)) for _ in range(config["puts"])]
                for _ in range(config["epochs"])
            ]
            for src in range(1, config["num_procs"])
        }

    def _consume(self, ctx, record):
        self.consumed.append((record.device_id, record.dev_addr, bytes(record.payload)))
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

    def check(self):
        sent = Counter(
            (src, addr, payload)
            for src, epochs in self.plan.items()
            for epoch in epochs
            for addr, payload in epoch
        )
        return Counter(self.consumed) == sent


_KINDS = {"dht": _Dht, "getlog": _GetLog, "incast": _Incast}


def outcome(config):
    """What one config gives, as a dict of plain values. ``events`` is host
    work, not a simulated number, so ``compare_trees.diff`` reports it apart."""
    run = _KINDS[config["kind"]](config)
    try:
        metrics = run.run()
    except MODEL_ERRORS as exc:
        error = {"error": type(exc).__name__, "message": str(exc).split("\n")[0]}
        return {**error, "now": run.sim.engine.now, "events": run.sim.engine.events_run}
    row = metrics.as_row(run.sim.cfg)
    return {
        **{col: row[col] for col in CSV_COLUMNS},
        "iotlb_misses": metrics.iotlb_misses,
        "records_consumed": metrics.records_consumed,
        "check": run.check(),
        "events": run.sim.engine.events_run,
    }
