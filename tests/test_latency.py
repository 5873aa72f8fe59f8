"""Closed-form latencies of single remote operations on an idle system.

One source on rank 0 issues operations to rank 1 one after another, and
nothing else runs, so the time from one operation's completion to the next
one's is the sum of the steps on its path. Each expected value is derived
here from SimConfig fields alone: the issue on the source's core, the
request on the wire, the bridge's interception, walk and fetch, the
completion's egress interception and its way back; a put is done once the
bridge has taken its last packet. The literal figures are those of the
default config.
"""

import pytest

from aasim.config import SimConfig
from aasim.memory import PAGE_SIZE
from aasim.paging import LEVELS
from aasim.sim import Simulation

OPS = 6  # distinct pages per miss run; well under the IOTLB's 64 entries


def expected_get_ns(cfg, walk_accesses, bridge_extra_ns=0.0):
    """One 8-byte get: issue, request wire, bridge, completion wire."""
    request_wire = cfg.wire_header_bytes / cfg.link_bw_bytes_per_ns
    completion_wire = (cfg.wire_header_bytes + 8) / cfg.link_bw_bytes_per_ns
    return (
        cfg.issue_cost_ns
        + request_wire
        + cfg.link_latency_ns
        + cfg.iommu_proc_ns  # interception
        + walk_accesses * cfg.mem_access_ns
        + bridge_extra_ns
        + cfg.mem_access_ns  # data fetch
        + cfg.iommu_proc_ns  # egress interception
        + completion_wire
        + cfg.link_latency_ns
    )


def expected_put_ns(cfg, nbytes, walk_accesses):
    """One put waited on its handle: issue, then the bridge's end of its last
    packet. Packet i lands once packets 0..i are on the wire; the bridge ends
    packet 0 after its interception and walk, and each later packet one
    interception after both it has landed and the one before has ended."""
    wire_ns = 0.0
    for i, off in enumerate(range(0, nbytes, cfg.max_payload)):
        length = min(cfg.max_payload, nbytes - off)
        wire_ns += (cfg.wire_header_bytes + length) / cfg.link_bw_bytes_per_ns
        landing = cfg.link_latency_ns + wire_ns
        if i == 0:
            end = landing + cfg.iommu_proc_ns + walk_accesses * cfg.mem_access_ns
        else:
            end = max(landing, end) + cfg.iommu_proc_ns
    return cfg.issue_cost_ns + end


def marginals(cfg, op, distinct_pages, **bits):
    """Completion-to-completion times of OPS sequential ops on rank 1's pages.

    With distinct_pages every op touches a page not yet translated, so each
    walk misses the IOTLB; otherwise all ops hit one page. The first op pays
    the device's context walk and is not a marginal.
    """
    sim = Simulation(cfg)
    target = sim.procs[1]
    iuid = 0
    if bits.get("rl"):
        iuid = target.register_handler(lambda ctx, record: None)
    base = target.memory.reserve_region("data", OPS * PAGE_SIZE)
    target.assoc_page(base, iuid, span=OPS * PAGE_SIZE, **bits)
    addrs = [base + (i * PAGE_SIZE if distinct_pages else 0) for i in range(OPS)]
    done = []

    def app(proc):
        for addr in addrs:
            yield from op(proc, addr)
            done.append(sim.engine.now)

    sim.add_app(0, app(sim.procs[0]))
    sim.run()
    return [b - a for a, b in zip(done, done[1:])]


def get(proc, addr):
    handle = yield from proc.get(1, addr, 8)
    yield from handle.wait()


def put_of(nbytes):
    def put(proc, addr):
        handle = yield from proc.put(1, addr, bytes(nbytes))
        yield from handle.wait()

    return put


def rma_flush(proc, addr):
    yield from proc.rma_flush(1)


def cas(proc, addr):
    yield from proc.cas(1, addr, 0, 1)


def fao(proc, addr):
    yield from proc.fao(1, "sum", 1, addr)


@pytest.mark.parametrize(
    "op,miss,extra_accesses,literal",
    [
        (get, True, 0, 2916.0),
        (get, False, 0, 2636.0),
        (cas, True, 1, 2986.0),
        (cas, False, 1, 2706.0),
        (fao, True, 1, 2986.0),
        (fao, False, 1, 2706.0),
    ],
    ids=["get-miss", "get-hit", "cas-miss", "cas-hit", "fao-miss", "fao-hit"],
)
def test_rma_op_latency_is_closed_form(op, miss, extra_accesses, literal):
    # An atomic adds its write-back, one memory access.
    cfg = SimConfig(scheme="rma", num_procs=2)
    want = expected_get_ns(cfg, LEVELS if miss else 0, extra_accesses * cfg.mem_access_ns)
    assert want == literal
    assert marginals(cfg, op, miss, r=True, w=True) == [want] * (OPS - 1)


def test_get_logged_with_data_adds_the_header_store():
    # Under aa-sp the bridge stores the record header before the fetch; the
    # completion is copied into the record after it leaves, off the path.
    cfg = SimConfig(scheme="aa-sp", num_procs=2)
    want = expected_get_ns(cfg, 0, cfg.mem_access_ns)
    assert want == 2706.0
    assert marginals(cfg, get, False, r=True, rl=True, rld=True, e=True) == [want] * (OPS - 1)


@pytest.mark.parametrize(
    "nbytes,hit_literal,miss_literal",
    [
        (8, 2037.0, 2317.0),
        (256, 2285.0, 2565.0),
        (264, 2317.0, 2570.0),
        (1024, 3125.0, 3125.0),
        (4096, 6485.0, 6485.0),
    ],
    ids=["8B", "256B", "264B", "1KiB", "4KiB"],
)
@pytest.mark.parametrize("miss", [False, True], ids=["hit", "miss"])
def test_put_latency_is_closed_form(nbytes, hit_literal, miss_literal, miss):
    # From 264 bytes on a put is more than one packet; once the later
    # packets' wire time covers the first one's walk, a miss costs nothing.
    cfg = SimConfig(scheme="rma", num_procs=2)
    want = expected_put_ns(cfg, nbytes, LEVELS if miss else 0)
    assert want == (miss_literal if miss else hit_literal)
    assert marginals(cfg, put_of(nbytes), miss, w=True) == [want] * (OPS - 1)


def test_rma_flush_with_no_puts_is_one_get():
    # The null get always reads the same sysflush page, so it hits the IOTLB.
    cfg = SimConfig(scheme="rma", num_procs=2)
    want = expected_get_ns(cfg, 0)
    assert want == 2636.0
    assert marginals(cfg, rma_flush, False, w=True) == [want] * (OPS - 1)
