"""Per-page access counting: metadata logging vs remote atomics vs gather.

A target rank exposes a region of counted pages. Sources replay a mixed
put/get trace against it. The logging variant counts records on the target
with no extra traffic; the atomics variant follows every access with a
fetch-and-add on a remote counter word; the gather variant counts at each
source and ships the vectors once at the end.
"""

from collections import Counter

from ..config import ConfigError
from ..memory import PAGE_SIZE, pack_words, words
from ..paging import PUT
from ..sim import Simulation

SCHEMES = ("aa", "rma-atomics", "allreduce")


def make_trace(rng, sources, n_pages, count):
    """(source, kind, page, offset) tuples; offsets are 8B aligned."""
    trace = []
    for _ in range(count):
        src = sources[rng.randrange(len(sources))]
        kind = "put" if rng.random() < 0.5 else "get"
        page = rng.randrange(n_pages)
        offset = rng.randrange(0, PAGE_SIZE // 8 - 1) * 8
        trace.append((src, kind, page, offset))
    return trace


def trace_counts(trace):
    want = Counter()
    for _src, kind, page, _off in trace:
        want[(kind, page)] += 1
    return want


class CounterBench:
    def __init__(self, cfg, variant, n_pages, accesses):
        if variant not in SCHEMES:
            raise ValueError("unknown counter variant %r" % variant)
        self.sim = Simulation(cfg)
        if cfg.num_procs < 2 or n_pages < 1:
            raise ConfigError("counter needs procs >= 2 (a target and a source) and pages >= 1,"
                              " not procs=%d pages=%d" % (cfg.num_procs, n_pages))
        if accesses < 0:
            raise ConfigError("counter needs accesses >= 0, not %d" % accesses)
        self.cfg = cfg
        self.variant = variant
        self.n_pages = n_pages
        # Counter words take 16 B per counted page: a put and a get count.
        self.vec_span = -(-16 * n_pages // PAGE_SIZE) * PAGE_SIZE
        self.counts = Counter()  # (kind, page) -> count, as measured
        self.local_counts = [Counter() for _ in range(cfg.num_procs)]
        sources = list(range(1, cfg.num_procs))
        self.trace = make_trace(self.sim.rng_for(4), sources, n_pages, accesses)
        self._build()

    def _build(self):
        target = self.sim.procs[0]
        span = self.n_pages * PAGE_SIZE
        self.region = target.memory.reserve_region("counted", span)
        if self.variant == "aa":
            iuid = target.register_handler(self._count_record)
            target.assoc_page(
                self.region, iuid, span=span, w=True, wl=True, r=True, rl=True, e=True
            )
        else:
            target.map_plain(self.region, w=True, r=True, span=span)
        if self.variant == "rma-atomics":
            self.cnt_region = target.memory.reserve_region("counts", self.vec_span)
            target.map_plain(self.cnt_region, w=True, r=True, span=self.vec_span)
        if self.variant == "allreduce":
            gather_span = self.cfg.num_procs * self.vec_span
            self.gather_region = target.memory.reserve_region("gather", gather_span)
            target.map_plain(self.gather_region, w=True, span=gather_span)

    def _count_record(self, ctx, record):
        page = (record.dev_addr - self.region) // PAGE_SIZE
        kind = "put" if record.op_kind == PUT else "get"
        self.counts[(kind, page)] += 1
        ctx.touch(1)  # counter bump

    def _counter_addr(self, kind, page):
        return self.cnt_region + page * 16 + (0 if kind == "put" else 8)

    def _source_app(self, rank):
        proc = self.sim.procs[rank]
        mine = [t for t in self.trace if t[0] == rank]
        for _src, kind, page, offset in mine:
            addr = self.region + page * PAGE_SIZE + offset
            if kind == "put":
                yield from proc.put(0, addr, b"\xa5" * 8)
            else:
                handle = yield from proc.get(0, addr, 8)
                yield from handle.wait()
            self.sim.metrics.ops += 1
            if self.variant == "rma-atomics":
                yield from proc.fao(0, "sum", 1, self._counter_addr(kind, page))
            elif self.variant == "allreduce":
                self.local_counts[rank][(kind, page)] += 1
        if self.variant == "aa":
            yield from proc.flush(0)
        else:
            yield from proc.rma_flush(0)
        if self.variant == "allreduce":
            mine = self.local_counts[rank]
            vec = pack_words(
                [mine[(kind, page)] for page in range(self.n_pages) for kind in ("put", "get")]
            )
            slot = self.gather_region + rank * self.vec_span
            for off in range(0, len(vec), PAGE_SIZE):
                yield from proc.put(0, slot + off, vec[off : off + PAGE_SIZE])
            yield from proc.rma_flush(0)

    def run(self):
        for rank in range(1, self.cfg.num_procs):
            self.sim.add_app(rank, self._source_app(rank))
        metrics = self.sim.run()
        if self.variant == "rma-atomics":
            self._add_vector(self.cnt_region)
        elif self.variant == "allreduce":
            for rank in range(1, self.cfg.num_procs):
                self._add_vector(self.gather_region + rank * self.vec_span)
        return metrics

    def _add_vector(self, base):
        """Add the counts held at base on the target, a put and a get count
        per page, as laid out by _counter_addr."""
        vec = words(self.sim.procs[0].memory.read(base, 16 * self.n_pages))
        for i, n in enumerate(vec):
            if n:
                self.counts[("get" if i % 2 else "put", i // 2)] += n

    def expected_counts(self):
        return trace_counts(self.trace)

    def extra_remote_ops(self):
        """Remote ops beyond one per traced access and one fence per source.

        The logging variant measures zero; the atomics variant measures one
        per access; the gather variant measures, per source, one put per
        page of its vector and one more fence.
        """
        accesses = len(self.trace)
        fences = self.cfg.num_procs - 1
        return self.sim.metrics.remote_ops - accesses - fences
