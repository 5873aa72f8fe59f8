"""The acceptance payloads and the pinned CLI rows, as entries of the record.

Each criterion is a pure function returning a result payload;
``tests/test_acceptance.py`` evaluates the stated tolerances against it.
``run_once`` keeps each payload for the rest of the process, so the
criterion tests and ``record()`` in ``tools/compare_trees.py`` share one
run. ``jobs()`` turns the payloads and the CLI rows into entries of
``tests/exact.json``: ``criterion NN`` with each payload's nested dicts
flattened into dotted fields, and ``cli <command> [<scheme>]`` with the row's
columns exactly as ``aasim`` prints them and the header's order. ``Rig`` is
the bridge without wires that criteria 07 and 08 and ``tests/test_iommu.py``
drive by hand; ``forced_keys`` and ``insert_remote_ops`` are the one-bucket
key source and the per-insert remote-op count of criterion 01 and
``tests/test_workloads.py``.
"""

import contextlib
import csv
import io
import json
import os
import random
import tempfile
import zlib
from functools import partial

from aasim import cli
from aasim.config import SimConfig
from aasim.engine import Engine
from aasim.iommu import Iommu
from aasim.link import split_get, split_put
from aasim.memory import PAGE_SIZE, PhysMemory
from aasim.paging import AddressTranslator, IotlbCache, PageTable, Pte
from aasim.workloads import dht, getlog, iotlb, keys
from aasim.workloads.checkpoint import CheckpointBench
from aasim.workloads.getlog import GetLogBench
from aasim.workloads.sortft import SortBench
from aasim.workloads.stream import StreamBench

_RESULTS = {}


def run_once(name):
    if name not in _RESULTS:
        _RESULTS[name] = CRITERIA[name]()
    return _RESULTS[name]


def digest(obj):
    return zlib.crc32(repr(obj).encode()) & 0xFFFFFFFF


# -- workload variants -------------------------------------------------------


def run_variants(bench_class, cfg, **kw):
    """{variant: (bench, metrics)} for each get-logging variant, each run on
    its own copy of cfg."""
    out = {}
    for variant in getlog.SCHEMES:
        bench = bench_class(cfg.replace(), variant, **kw)
        out[variant] = (bench, bench.run())
    return out


def bandwidth_pair(cfg, n_puts=256):
    """(with extended bridge, without) bandwidths for the same stream."""
    on = StreamBench(cfg.replace(iommu_enabled=True), n_puts)
    on.run()
    off = StreamBench(cfg.replace(iommu_enabled=False), n_puts)
    off.run()
    return on.bandwidth(), off.bandwidth()


def forced_collision_keys(rng, count, owner, bucket, procs, table_size):
    """count distinct keys all hashing to one (owner, bucket): every insert
    after the first is a collision."""
    used = set()
    out = []
    for _ in range(count):
        key = keys.key_for(rng, owner, bucket, procs, table_size, used)
        used.add(key)
        out.append(key)
    return out


def forced_keys(cfg):
    """A DhtBench key source with rank 0 the one source: its cfg.ops_per_proc
    keys all land in bucket 7 of rank 1, so every insert after the first
    collides."""
    procs = cfg.num_procs

    def source(rng, rank, table_size):
        if rank:
            return []
        return forced_collision_keys(rng, cfg.ops_per_proc, 1 % procs, 7, procs, table_size)

    return source


def insert_remote_ops(cfg):
    """The remote ops each of rank 0's forced-key inserts takes, in order:
    one app issues them one at a time and reads the counter around each."""
    bench = dht.DhtBench(cfg, keys=forced_keys(cfg))
    proc, metrics = bench.sim.procs[0], bench.sim.metrics
    counts = []

    def app():
        for kind, key in bench.plan[0]:
            before = metrics.remote_ops
            yield from bench._issue(proc, kind, key)
            counts.append(metrics.remote_ops - before)

    bench.sim.add_app(0, app())
    bench.sim.run()
    return counts


def insert_rate(cfg, assoc, ops=300):
    """Hot-owner insert throughput with the given associativity at the owner."""
    _point, metrics = iotlb.insert_run(cfg, iotlb_assoc=assoc, iotlb_policy="lru", ops_per_proc=ops)
    return metrics.throughput_ops_per_s, metrics


# -- the bridge rig ---------------------------------------------------------


class FakeChannel:
    def __init__(self):
        self.delivered = []

    def deliver(self, tlp):
        self.delivered.append(tlp)


class Rig:
    """One bridge with an active-put page and a log, no wires attached."""

    def __init__(self, n_devices=4, log_size=4096, cfg=None):
        self.cfg = cfg or SimConfig(access_log_size=log_size)
        self.engine = Engine()
        self.memory = PhysMemory(0)
        table = PageTable()
        iotlb = IotlbCache(64, "full", "lru", random.Random(0))
        self.translator = AddressTranslator(table, iotlb)
        for dev in range(n_devices):
            self.translator.register_device(dev)
        self.iommu = Iommu(self.engine, self.cfg, self.memory, self.translator)
        self.log = self.iommu.add_domain(log_size)
        self.page = self.memory.reserve_region("page", PAGE_SIZE)
        table.map_range(
            self.page, Pte(frame=self.page >> 12, wl=True, wld=True, e=True, iuid=self.log.iuid)
        )
        self.channels = {}
        for dev in range(n_devices):
            self.channels[dev] = FakeChannel()
            self.iommu.backchannels[dev] = self.channels[dev]

    def drain_records(self):
        out = []
        while True:
            got = self.log.read_record()
            if got is None:
                return out
            rec, size = got
            self.log.advance_tail(size)
            self.iommu.check_flushes(self.log)
            out.append(rec)


def interleave(rng, streams):
    """Merge per-device packet lists preserving each device's order."""
    streams = {d: list(s) for d, s in streams.items() if s}
    out = []
    while streams:
        dev = sorted(streams)[rng.randrange(len(streams))]
        out.append(streams[dev].pop(0))
        if not streams[dev]:
            del streams[dev]
    return out


def multi_device_trial(seed, n_devices=4, txns_per_device=6):
    """Out-of-order commits from interleaved multi-packet puts must publish
    records whole and in reservation order."""
    rng = random.Random(seed)
    rig = Rig(n_devices=n_devices)
    sent = {}
    streams = {}
    for dev in range(n_devices):
        pkts = []
        for t in range(txns_per_device):
            length = rng.choice([8, 64, 200, 512, 1000])
            payload = bytes(rng.randrange(256) for _ in range(length))
            sent[(dev, t)] = payload
            pkts.extend(
                split_put(rig.page + 128 * dev, payload, dev, t % 256, rig.cfg.max_payload)
            )
        streams[dev] = pkts
    for pkt in interleave(rng, streams):
        rig.iommu.on_arrival(pkt)
    # alternate pipeline progress and consumption until everything lands,
    # which crosses several fill-stall-resume cycles on the 4 KiB ring
    records = []
    for _ in range(1000):
        rig.engine.run()
        records.extend(rig.drain_records())
        if not rig.iommu.ingress and not rig.engine._heap:
            break
    records.extend(rig.drain_records())
    # serial oracle: sequence numbers are exactly the reservation order
    assert [r.seq_no for r in records] == list(range(len(records)))
    # every transaction shows up exactly once, intact
    got = {}
    per_dev_seen = {d: 0 for d in range(n_devices)}
    for rec in records:
        dev = rec.device_id
        got[(dev, per_dev_seen[dev])] = rec.payload
        per_dev_seen[dev] += 1
    assert got == sent
    assert not rig.iommu.tag_buffer
    return [r.seq_no for r in records]


# -- criterion payloads ------------------------------------------------------


def crit_remote_op_reduction():
    out = {}
    for scheme in ("rma", "aa-poll"):
        cfg = SimConfig(scheme=scheme, num_procs=2, ops_per_proc=32, vol_size=1 << 12, seed=1)
        out[scheme] = insert_remote_ops(cfg)
    return out


def crit_speedup_trend():
    out = {}
    for procs in (8, 16, 32):
        point = {}
        for scheme in ("aa-poll", "aa-sp", "rma"):
            cfg = SimConfig(
                scheme=scheme, num_procs=procs, ops_per_proc=50,
                vol_size=1 << 12, r_cols=0.25, seed=1,
            )
            m = dht.DhtBench(cfg).run()
            point[scheme] = m.throughput_ops_per_s
        out[procs] = point
    return out


def crit_interrupt_parity():
    out = {}
    for scheme in ("aa-int", "am"):
        cfg = SimConfig(
            scheme=scheme, num_procs=8, ops_per_proc=200,
            vol_size=1 << 12, r_cols=0.25, seed=1, interrupt_batch=10,
        )
        m = dht.DhtBench(cfg).run()
        out[scheme] = m.throughput_ops_per_s
    return out


def crit_getlog_bandwidth():
    cfg = SimConfig(num_procs=2, seed=1)
    out = run_variants(GetLogBench, cfg, n_gets=200)
    payload = {}
    for variant, (bench, m) in out.items():
        assert bench.replayed() is None or bench.replayed() == bench.fetched_values()
        payload[variant] = {
            "bytes_payload": m.bytes_payload,
            "sim_time_ns": m.sim_time_ns,
        }
    return payload


def crit_passthrough_overhead():
    cfg = SimConfig(num_procs=2, seed=1)
    on, off = bandwidth_pair(cfg, n_puts=256)
    return {"on": on, "off": off}


def crit_iotlb_sweep():
    rows = iotlb.sweep_hit_rates(seed=1)
    cfg = SimConfig(num_procs=4, vol_size=1 << 13, seed=10, iotlb_size=8)
    rate_full, m_full = insert_rate(cfg, "full")
    rate_4way, m_4way = insert_rate(cfg, 4)
    return {
        "rows": rows,
        "full": {"rate": rate_full, "misses": m_full.iotlb_misses},
        "4way": {"rate": rate_4way, "misses": m_4way.iotlb_misses},
    }


def crit_hole_reassembly():
    checksum = 0
    total = 0
    for seed in range(1000):
        seqs = multi_device_trial(seed, n_devices=3)
        total += len(seqs)
        checksum = zlib.crc32(bytes(s % 256 for s in seqs), checksum)
    return {"trials": 1000, "records": total, "checksum": checksum}


def _consume_one(rig):
    got = rig.log.read_record()
    if got is None:
        return False
    _rec, size = got
    rig.log.advance_tail(size)
    rig.iommu.check_flushes(rig.log)
    return True


def _flush_trial(seed):
    """Random put/flush/consume schedule; every flush must hold until all
    records reserved before it arrived have been consumed."""
    rng = random.Random(seed)
    rig = Rig(n_devices=4, log_size=2048)
    flush_addr = next(iter(rig.iommu.flush_pages))
    queues = {}
    for dev in range(3):
        pkts = []
        for t in range(10):
            length = rng.choice([8, 48, 300])
            pkts.extend(
                split_put(rig.page + 256 * dev, bytes([dev]) * length,
                          dev, t % 256, rig.cfg.max_payload)
            )
        queues[dev] = pkts
    marks = {}
    done_tags = set()
    order = []
    consumed = 0
    deferred = 0
    flush_no = 0

    def check_completions():
        for tlp in rig.channels[3].delivered:
            if tlp.tag in done_tags:
                continue
            done_tags.add(tlp.tag)
            order.append(tlp.tag)
            assert consumed >= marks[tlp.tag], (
                "seed %d: flush %d answered with %d consumed, needed %d"
                % (seed, tlp.tag, consumed, marks[tlp.tag])
            )

    steps = 0
    while any(queues.values()) or steps < 160:
        steps += 1
        assert steps < 4000, "seed %d never made progress" % seed
        roll = rng.random()
        if roll < 0.45 and any(queues.values()):
            live = [d for d in queues if queues[d]]
            rig.iommu.on_arrival(queues[live[rng.randrange(len(live))]].pop(0))
        elif roll < 0.62 and flush_no < 200:
            req = split_get(flush_addr, 8, 3, flush_no)
            marks[flush_no] = rig.log.next_seq
            if marks[flush_no] > consumed:
                deferred += 1
            rig.iommu.on_arrival(req)
            flush_no += 1
        elif _consume_one(rig):
            consumed += 1
        rig.engine.run()
        check_completions()
    spins = 0
    while len(done_tags) < flush_no or rig.log.head != rig.log.tail:
        spins += 1
        assert spins < 5000, (
            "seed %d: tail never drained (%d/%d flushes)" % (seed, len(done_tags), flush_no)
        )
        if _consume_one(rig):
            consumed += 1
        rig.engine.run()
        check_completions()
    assert order == sorted(order), "seed %d: flushes completed out of order" % seed
    return consumed, flush_no, deferred, tuple(order)


def crit_flush_linearization():
    checksum = 0
    flushes = 0
    deferred = 0
    for seed in range(500):
        consumed, n, defer, order = _flush_trial(seed)
        flushes += n
        deferred += defer
        checksum = zlib.crc32(repr((consumed, order)).encode(), checksum)
    return {"trials": 500, "flushes": flushes, "deferred": deferred, "checksum": checksum}


def crit_cross_variant_equivalence():
    base = SimConfig(num_procs=4, ops_per_proc=2000, vol_size=1 << 12, r_cols=0.25, seed=42)
    tables = {}
    for scheme in ("aa-poll", "rma"):
        bench = dht.DhtBench(base.replace(scheme=scheme), delete_fraction=0.25)
        m = bench.run()
        tables[scheme] = [bench.contents(r) for r in range(4)]
        oracle = [bench.oracle_contents(r) for r in range(4)]
        assert m.ops == 4 * 2500  # 2000 inserts + 500 deletes per rank
    return {
        "ops": 4 * 2500,
        "aa_matches_oracle": tables["aa-poll"] == oracle,
        "rma_matches_oracle": tables["rma"] == oracle,
        "aa_matches_rma": tables["aa-poll"] == tables["rma"],
        "digest": digest([sorted(t.items()) for t in tables["aa-poll"]]),
    }


def crit_checkpoint_exactness():
    cfg = SimConfig(num_procs=4, seed=1)
    bench = CheckpointBench(cfg, n_pages=256, epochs=3, writes_per_source=60)
    bench.run()
    return {
        "snapshots": [sorted(s) for s in bench.snapshots],
        "expected": [sorted(s) for s in bench.expected()],
    }


def crit_energy_ordering():
    cfg = SimConfig(num_procs=4, seed=1)
    out = run_variants(SortBench, cfg, total_words=1 << 13)
    payload = {}
    for variant, (bench, m) in out.items():
        assert bench.merged() == bench.oracle()
        payload[variant] = {"bytes_wire": m.bytes_wire, "energy_j": m.energy_j}
    return payload


# In criterion order: the record names the n-th ``criterion %02d`` % n.
CRITERIA = {
    "remote_op_reduction": crit_remote_op_reduction,
    "speedup_trend": crit_speedup_trend,
    "interrupt_parity": crit_interrupt_parity,
    "getlog_bandwidth": crit_getlog_bandwidth,
    "passthrough_overhead": crit_passthrough_overhead,
    "iotlb_sweep": crit_iotlb_sweep,
    "hole_reassembly": crit_hole_reassembly,
    "flush_linearization": crit_flush_linearization,
    "cross_variant_equivalence": crit_cross_variant_equivalence,
    "checkpoint_exactness": crit_checkpoint_exactness,
    "energy_ordering": crit_energy_ordering,
}


# -- CLI rows ----------------------------------------------------------------

# Each (command, scheme) runs at seed 1 with this config file; None runs the
# command's default scheme.
CLI_CONFIG = {"vol_size": 4096, "ops_per_proc": 40, "num_procs": 4}
CLI_ROWS = [("dht", s) for s in ("aa-int", "aa-poll", "aa-sp", "rma", "am")] + [
    ("getlog", None), ("checkpoint", None)]


def cli_name(command, scheme):
    return " ".join(["cli", command] + ([scheme] if scheme else []))


def cli_row(command, scheme):
    """The row ``aasim`` prints, as {column: text}, and its header, in
    order, as ``columns``."""
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "small.cfg")
        with open(config, "w") as fh:
            fh.write("".join("%s = %s\n" % item for item in CLI_CONFIG.items()))
        argv = [command, "--config", config, "--seed", "1"] + (["--scheme", scheme] if scheme else [])
        with contextlib.redirect_stdout(printed):
            assert cli.main(argv) == 0
    header, row = csv.reader(io.StringIO(printed.getvalue()))
    return {"columns": header, **dict(zip(header, row))}


# -- record entries ----------------------------------------------------------


def flatten(payload, prefix=""):
    """A dict's nested dicts as dotted field names; any other value, a list
    included, stays one field."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(flatten(value, prefix + key + "."))
        else:
            out[prefix + key] = value
    return out


def criterion_entry(name):
    """A payload through JSON first, as the record file holds it: int keys
    become strings and tuples lists."""
    return flatten(json.loads(json.dumps(run_once(name))))


def jobs():
    """{entry name: function building it} for the ``criterion NN`` and
    ``cli ...`` entries."""
    out = {"criterion %02d" % n: partial(criterion_entry, name) for n, name in enumerate(CRITERIA, 1)}
    out.update((cli_name(*row), partial(cli_row, *row)) for row in CLI_ROWS)
    return out
