"""End-to-end acceptance checks.

Each criterion's payload comes from ``tests/criteria.py``, once per process;
its test evaluates the stated tolerances against that payload and prints one
pass/fail line. The final test reruns every criterion from scratch and
requires the payloads to come back bit-identical, so everything here must be
fully deterministic for its fixed seeds, and checks the payloads against
their ``criterion NN`` entries of ``tests/exact.json``.
"""

from criteria import CRITERIA, run_once


def report(capsys, num, name, ok, detail):
    line = "criterion %2d %-24s %s  (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


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


def test_criterion_12_determinism(capsys, exact):
    mismatched = [name for name, fn in CRITERIA.items() if repr(fn()) != repr(run_once(name))]
    moved = exact("criterion *")
    ok = not mismatched and not moved
    if mismatched:
        detail = "mismatch in " + ", ".join(mismatched)
    elif moved:
        detail = "moved from tests/exact.json: " + "; ".join(moved)
    else:
        detail = "the %d criteria above reran bit-identically" % len(CRITERIA)
    report(capsys, 12, "determinism", ok, detail)
