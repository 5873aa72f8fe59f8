"""Sample sort whose exchange phase runs over the simulated fabric.

Each rank starts with a locally sorted array in its memory. Splitters come
from regular sampling over the sorted arrays, so each rank fetches one
contiguous slice from every peer with page-sized gets. The exchange runs
under the three get-logging schemes; local sorting and splitter agreement
are identical across schemes and stay off the wire.
"""

import heapq
from bisect import bisect_left

from ..config import ConfigError
from ..logbuf import record_size
from ..memory import PAGE_SIZE
from ..sim import Simulation
from . import getlog

WORD = 8


def page_chunks(addr, length):
    """Split [addr, addr+length) at page boundaries."""
    out = []
    while length > 0:
        step = min(length, PAGE_SIZE - addr % PAGE_SIZE)
        out.append((addr, step))
        addr += step
        length -= step
    return out


class SortBench:
    def __init__(self, cfg, variant, total_words=1 << 13):
        if variant not in getlog.SCHEMES:
            raise ValueError("unknown sort variant %r" % variant)
        cfg.validate()
        self.cfg = cfg
        self.variant = variant
        procs = cfg.num_procs
        if total_words % procs:
            raise ConfigError("%d words do not split evenly over %d procs" % (total_words, procs))
        self.words_per_rank = total_words // procs
        if self.words_per_rank <= 0 or self.words_per_rank * WORD % PAGE_SIZE:
            raise ConfigError("%d words over %d procs do not fill whole %d B pages per rank"
                              % (total_words, procs, PAGE_SIZE))
        self.sim = Simulation(cfg)
        rng = self.sim.rng_for(4)
        self.arrays = [
            sorted(rng.getrandbits(32) for _ in range(self.words_per_rank))
            for _ in range(procs)
        ]
        self._plan_partitions()
        if variant == "aa":
            need = record_size(self._longest_get(), with_data=True)
            if need > cfg.access_log_size:
                raise ConfigError("the longest logged get needs a %d B record, more than access_log_size %d"
                                  % (need, cfg.access_log_size))
        self._build()
        self.results = [None] * procs

    def _plan_partitions(self):
        procs = self.cfg.num_procs
        samples = []
        for arr in self.arrays:
            step = max(1, len(arr) // procs)
            samples.extend(arr[step - 1 :: step][: procs - 1])
        samples.sort()
        take = max(1, len(samples) // procs)
        self.splitters = samples[take - 1 :: take][: procs - 1]
        self.ranges = []  # ranges[j][i] = (lo, hi) word slice of rank j going to i
        for arr in self.arrays:
            bounds = [0]
            for s in self.splitters:
                bounds.append(bisect_left(arr, s))
            bounds.append(len(arr))
            self.ranges.append(list(zip(bounds[:-1], bounds[1:])))

    def _longest_get(self):
        """Bytes of the longest get the exchange issues: every slice a rank
        fetches from a peer, cut at page boundaries (regions are page-aligned)."""
        return max(
            (length
             for owner, ranges in enumerate(self.ranges)
             for fetcher, (lo, hi) in enumerate(ranges) if fetcher != owner
             for _addr, length in page_chunks(lo * WORD, (hi - lo) * WORD)),
            default=0,
        )

    def _build(self):
        span = self.words_per_rank * WORD
        self.regions = []
        self.xlogs = []
        for rank, proc in enumerate(self.sim.procs):
            region = proc.memory.reserve_region("data", span)
            proc.memory.write(
                region, b"".join(w.to_bytes(WORD, "little") for w in self.arrays[rank])
            )
            self.regions.append(region)
            getlog.expose(proc, region, span, self.variant, self._log_record)
            if self.variant == "sendback":
                xlog = proc.memory.reserve_region("xlog", span)
                proc.map_plain(xlog, w=True, span=span)
                self.xlogs.append(xlog)
            else:
                self.xlogs.append(None)

    @staticmethod
    def _log_record(ctx, record):
        ctx.touch(1)

    def _sendback_base(self, owner, fetcher):
        """Byte offset of fetcher's slot in owner's exchange log."""
        off = 0
        for i in range(fetcher):
            if i != owner:
                lo, hi = self.ranges[owner][i]
                off += (hi - lo) * WORD
        return off

    def _exchange_app(self, rank):
        proc = self.sim.procs[rank]
        pieces = []
        lo, hi = self.ranges[rank][rank]
        pieces.append(self.arrays[rank][lo:hi])
        for j in range(self.cfg.num_procs):
            if j == rank:
                continue
            lo, hi = self.ranges[j][rank]
            if lo == hi:
                pieces.append([])
                continue
            buf = bytearray()
            start = self.regions[j] + lo * WORD
            for addr, length in page_chunks(start, (hi - lo) * WORD):
                handle = yield from proc.get(j, addr, length)
                yield from handle.wait()
                buf += handle.data
                self.sim.metrics.ops += 1
            if self.variant == "sendback":
                dest = self.xlogs[j] + self._sendback_base(j, rank)
                cursor = 0
                for addr, length in page_chunks(dest, len(buf)):
                    yield from proc.put(j, addr, bytes(buf[cursor : cursor + length]))
                    cursor += length
            words = [
                int.from_bytes(buf[k : k + WORD], "little") for k in range(0, len(buf), WORD)
            ]
            pieces.append(words)
        self.results[rank] = list(heapq.merge(*pieces))

    def run(self):
        for rank in range(self.cfg.num_procs):
            self.sim.add_app(rank, self._exchange_app(rank))
        return self.sim.run()

    def merged(self):
        out = []
        for part in self.results:
            out.extend(part)
        return out

    def oracle(self):
        everything = []
        for arr in self.arrays:
            everything.extend(arr)
        return sorted(everything)


def run_variants(cfg, total_words=1 << 13):
    out = {}
    for variant in getlog.SCHEMES:
        bench = SortBench(cfg.replace(), variant, total_words)
        metrics = bench.run()
        out[variant] = (bench, metrics)
    return out
