"""End-to-end acceptance checks.

Each criterion below is a pure function returning a result payload; its test
evaluates the stated tolerances against that payload and prints one pass/fail
line. The final test reruns every criterion from scratch and requires the
payloads to come back bit-identical, so everything here must be fully
deterministic for its fixed seeds.
"""

import random
import zlib

from test_iommu import Rig, multi_device_trial

from aasim.config import SimConfig
from aasim.link import split_get, split_put
from aasim.workloads import dht, iotlb, stream
from aasim.workloads.checkpoint import CheckpointBench
from aasim.workloads.getlog import run_variants as getlog_variants
from aasim.workloads.sortft import run_variants as sort_variants

_RESULTS = {}

# digest() of the eleven criterion payloads, in criterion order. A change that
# moves it changes simulated behaviour and must say why it rebaselines.
GOLDEN_DIGEST = 2811688515


def run_once(name):
    if name not in _RESULTS:
        _RESULTS[name] = _CRITERIA[name]()
    return _RESULTS[name]


def report(capsys, num, name, ok, detail):
    line = "criterion %2d %-24s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def digest(obj):
    return zlib.crc32(repr(obj).encode()) & 0xFFFFFFFF


# -- criterion payloads ------------------------------------------------------


def crit_remote_op_reduction():
    out = {}
    for scheme in ("rma", "aa-poll"):
        cfg = SimConfig(scheme=scheme, num_procs=2, ops_per_proc=32, vol_size=1 << 12, seed=1)
        bench = dht.DhtBench(cfg, key_mode="forced", record_ops=True)
        bench.run()
        out[scheme] = [n for (_r, kind, _k, n) in bench.op_log if kind == "insert"]
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
    out = getlog_variants(cfg, n_gets=200)
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
    on, off = stream.bandwidth_pair(cfg, n_puts=256)
    return {"on": on, "off": off}


def crit_iotlb_sweep():
    rows = iotlb.sweep_hit_rates(seed=1)
    cfg = SimConfig(num_procs=4, vol_size=1 << 13, seed=10, iotlb_size=8)
    rate_full, m_full = iotlb.insert_rate(cfg, "full")
    rate_4way, m_4way = iotlb.insert_rate(cfg, 4)
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
    out = sort_variants(cfg, total_words=1 << 13)
    payload = {}
    for variant, (bench, m) in out.items():
        assert bench.merged() == bench.oracle()
        payload[variant] = {"bytes_wire": m.bytes_wire, "energy_j": m.energy_j}
    return payload


_CRITERIA = {
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


# -- the twelve checks -------------------------------------------------------


def test_criterion_01_remote_op_reduction(capsys):
    out = run_once("remote_op_reduction")
    rma, aa = out["rma"], out["aa-poll"]
    ok = (
        rma[0] == 1
        and all(n >= 6 for n in rma[1:])
        and aa == [1] * len(aa)
    )
    report(capsys, 1, "remote op reduction", ok,
           "rma colliding min=%d, aa always %d op" % (min(rma[1:]), aa[0]))


def test_criterion_02_speedup_trend(capsys):
    out = run_once("speedup_trend")
    ratios = {p: out[p]["aa-poll"] / out[p]["rma"] for p in out}
    ok = all(1.5 <= r <= 4.0 for r in ratios.values()) and all(
        out[p]["aa-sp"] >= out[p]["aa-poll"] for p in out
    )
    report(capsys, 2, "dht speedup trend", ok,
           "aa-poll/rma " + " ".join("p%d=%.2f" % (p, ratios[p]) for p in sorted(ratios)))


def test_criterion_03_interrupt_parity(capsys):
    out = run_once("interrupt_parity")
    ratio = out["aa-int"] / out["am"]
    ok = 0.75 <= ratio <= 1.25
    report(capsys, 3, "interrupt-mode parity", ok, "aa-int/am = %.3f" % ratio)


def test_criterion_04_getlog_bandwidth(capsys):
    out = run_once("getlog_bandwidth")
    base = out["no-ft"]["bytes_payload"]
    overhead = out["aa"]["sim_time_ns"] / out["no-ft"]["sim_time_ns"] - 1.0
    ok = (
        out["aa"]["bytes_payload"] == base
        and out["sendback"]["bytes_payload"] == 2 * base
        and abs(overhead) <= 0.05
    )
    report(capsys, 4, "get-logging bandwidth", ok,
           "payload %d/%d/%d, aa time %+.1f%%"
           % (base, out["aa"]["bytes_payload"], out["sendback"]["bytes_payload"],
              100 * overhead))


def test_criterion_05_passthrough_overhead(capsys):
    out = run_once("passthrough_overhead")
    delta = abs(out["on"] - out["off"]) / out["off"]
    ok = delta <= 0.05
    report(capsys, 5, "bridge passthrough", ok, "bandwidth delta %.2f%%" % (100 * delta))


def test_criterion_06_iotlb_sweep(capsys):
    out = run_once("iotlb_sweep")
    rates = {(s, a, p): r for (s, a, p, r) in out["rows"]}
    lru_wins = all(
        rates[(s, a, "lru")] >= rates[(s, a, "rnd")]
        for (s, a, p) in rates if p == "lru"
    )
    ok = lru_wins and out["full"]["rate"] >= out["4way"]["rate"]
    report(capsys, 6, "iotlb sweep", ok,
           "lru>=rnd at %d points, full/4way rate %.3f (misses %d vs %d)"
           % (len(rates) // 2, out["full"]["rate"] / out["4way"]["rate"],
              out["full"]["misses"], out["4way"]["misses"]))


def test_criterion_07_hole_reassembly(capsys):
    out = run_once("hole_reassembly")
    ok = out["trials"] == 1000 and out["records"] > 0
    report(capsys, 7, "hole reassembly", ok,
           "%d interleavings, %d records matched the serial oracle"
           % (out["trials"], out["records"]))


def test_criterion_08_flush_linearization(capsys):
    out = run_once("flush_linearization")
    ok = out["trials"] == 500 and out["deferred"] > 0
    report(capsys, 8, "flush linearization", ok,
           "%d schedules, %d flushes (%d held for open records)"
           % (out["trials"], out["flushes"], out["deferred"]))


def test_criterion_09_cross_variant_equivalence(capsys):
    out = run_once("cross_variant_equivalence")
    ok = out["aa_matches_oracle"] and out["rma_matches_oracle"] and out["aa_matches_rma"]
    report(capsys, 9, "cross-variant dht", ok,
           "%d mixed ops, aa == rma == oracle" % out["ops"])


def test_criterion_10_checkpoint_exactness(capsys):
    out = run_once("checkpoint_exactness")
    ok = out["snapshots"] == out["expected"]
    sizes = ",".join(str(len(s)) for s in out["snapshots"])
    report(capsys, 10, "checkpoint dirty sets", ok, "epoch sets exact (%s pages)" % sizes)


def test_criterion_11_energy_ordering(capsys):
    out = run_once("energy_ordering")
    ok = (
        out["aa"]["energy_j"] == out["no-ft"]["energy_j"]
        and out["aa"]["bytes_wire"] == out["no-ft"]["bytes_wire"]
        and out["sendback"]["energy_j"] > out["aa"]["energy_j"]
    )
    report(capsys, 11, "energy ordering", ok,
           "bytes %d == %d < %d"
           % (out["no-ft"]["bytes_wire"], out["aa"]["bytes_wire"],
              out["sendback"]["bytes_wire"]))


def test_criterion_12_determinism(capsys):
    mismatched = []
    for name, fn in _CRITERIA.items():
        first = run_once(name)
        if fn() != first:
            mismatched.append(name)
    golden = digest([run_once(name) for name in _CRITERIA])
    ok = not mismatched and golden == GOLDEN_DIGEST
    if mismatched:
        detail = "mismatch in " + ", ".join(mismatched)
    elif golden != GOLDEN_DIGEST:
        detail = "payload digest %d, golden %d" % (golden, GOLDEN_DIGEST)
    else:
        detail = "the %d criteria above reran bit-identically" % len(_CRITERIA)
    report(capsys, 12, "determinism", ok, detail)
