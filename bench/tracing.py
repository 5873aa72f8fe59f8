"""Per-layer tracing from outside the simulator.

``Tracer.installed()`` replaces public entry points of each layer with
wrappers that count calls and time every span on the host clock, restoring
the originals on exit. Generator entry points are timed per resumption, so a
span covers only the host time spent inside it, never the simulated time it
waits. Spans nest along the host call stack: a span's self time is its
duration minus its child spans, and time outside every span during the run
is the engine's own. Simulated quantities (latencies, walk accesses, busy
time) are read off the engine clock and never change the simulation.

A scenario must be built after installing, because the simulator binds some
of these methods (arrival sinks, completion sinks) when it is constructed.
"""

import contextlib
import functools
from collections import Counter, deque
from time import perf_counter_ns

from aasim import iommu, link, logbuf, runtime, sim
from aasim.engine import Cpu
from aasim.memory import PAGE_SIZE, PhysMemory
from aasim.paging import AddressTranslator

NS = 1e-9


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return float(ordered[max(0, int(rank) - 1)])


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [group, start_ns, child_ns]
        self.self_ns = Counter()
        self.calls = Counter()
        self.covered_ns = 0  # time inside outermost spans
        self.bytes_reserved = 0
        self.walk_mem_accesses = 0
        self.zero_marks = 0
        self.consumer_busy_ns = 0.0
        self.op_latency_ns = []
        self.flush_latency_ns = []
        self.commit_to_consume_ns = []
        self._commit_stamps = {}

    # -- spans ---------------------------------------------------------------

    def _enter(self, group):
        self._stack.append([group, perf_counter_ns(), 0])

    def _leave(self):
        group, start, child = self._stack.pop()
        duration = perf_counter_ns() - start
        self.self_ns[group] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered_ns += duration

    @contextlib.contextmanager
    def span(self, group):
        self._enter(group)
        try:
            yield
        finally:
            self._leave()

    def _plain(self, group, fn, after=None, name=None):
        """Time fn as a span of group and count its calls under name."""
        name = name or group

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._enter(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _drive(self, group, gen):
        """Run a generator, timing each resumption as one span of group."""
        value = None
        while True:
            self._enter(group)
            try:
                request = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._leave()
            value = yield request

    def _gen(self, group, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._drive(group, fn(*args, **kwargs))

        return wrapper

    # -- simulated-time probes -----------------------------------------------

    def _sim_latency(self, samples, fn):
        @functools.wraps(fn)
        def wrapper(proc, *args, **kwargs):
            start = proc.engine.now
            result = yield from fn(proc, *args, **kwargs)
            samples.append(proc.engine.now - start)
            return result

        return wrapper

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        Proc = runtime.Proc
        AccessLog = logbuf.AccessLog
        Iommu = iommu.Iommu
        Simulation = sim.Simulation

        def count_bytes(fn):
            @functools.wraps(fn)
            def reserve_region(memory, name, size):
                base = fn(memory, name, size)
                self.bytes_reserved += -(-size // PAGE_SIZE) * PAGE_SIZE
                return base

            return reserve_region

        def count_walk(result):
            self.walk_mem_accesses += result.mem_accesses

        def count_zero_mark(published):
            if published == 0:
                self.zero_marks += 1

        def timed_handler(fn):
            @functools.wraps(fn)
            def register_handler(proc, handler, log_size=None):
                return fn(proc, self._plain("workloads.handler", handler), log_size)

            return register_handler

        def traced_app(fn):
            @functools.wraps(fn)
            def add_app(simulation, rank, gen):
                return fn(simulation, rank, self._drive("workloads.app", gen))

            return add_app

        def stamp_issue(fn):
            @functools.wraps(fn)
            def __init__(handle, engine):
                fn(handle, engine)
                handle.bench_issue = (engine, engine.now)

            return __init__

        def stamp_fire(fn):
            @functools.wraps(fn)
            def fire(handle, status, data=None):
                engine, issued = handle.bench_issue
                self.op_latency_ns.append(engine.now - issued)
                return fn(handle, status, data)

            return fire

        def stamp_consume(fn):
            @functools.wraps(fn)
            def advance_tail(log, nbytes):
                fn(log, nbytes)
                self.commit_to_consume_ns.append(log.engine.now - self._commit_stamps[log].popleft())

            return advance_tail

        def consumer_busy(fn):
            @functools.wraps(fn)
            def busy(cpu, ns):
                if self._stack and self._stack[-1][0] == "runtime.consumer":
                    self.consumer_busy_ns += ns
                return fn(cpu, ns)

            return busy

        return [
            (Simulation, "__init__", self._plain("sim.init", Simulation.__init__)),
            (Simulation, "drained", self._plain("sim.drained", Simulation.drained)),
            (Simulation, "add_app", traced_app(Simulation.add_app)),
            (PhysMemory, "reserve_region", self._plain(
                "memory.reserve", count_bytes(PhysMemory.reserve_region))),
            (PhysMemory, "read", self._plain("memory.rw", PhysMemory.read)),
            (PhysMemory, "write", self._plain("memory.rw", PhysMemory.write)),
            (Proc, "assoc_page", self._plain("paging.map", Proc.assoc_page)),
            (AddressTranslator, "walk", self._plain("paging.walk", AddressTranslator.walk, count_walk)),
            (link.Link, "send", self._plain("link.send", link.Link.send)),
            (link.Link, "release_credit", self._plain("link.send", link.Link.release_credit)),
            (link.BackChannel, "deliver", self._plain("link.send", link.BackChannel.deliver)),
            (link, "split_put", self._plain("link.split", link.split_put)),
            (link, "split_get", self._plain("link.split", link.split_get)),
            (link, "make_completions", self._plain("link.split", link.make_completions)),
            (Iommu, "on_arrival", self._plain("iommu.intercept", Iommu.on_arrival, name="iommu.arrival")),
            (Iommu, "intercept_write", self._gen("iommu.intercept", Iommu.intercept_write)),
            (Iommu, "intercept_read_request", self._gen("iommu.intercept", Iommu.intercept_read_request)),
            (Iommu, "handle_flush_get", self._plain(
                "iommu.flush", Iommu.handle_flush_get, name="iommu.flush_get")),
            (Iommu, "check_flushes", self._plain(
                "iommu.flush", Iommu.check_flushes, name="iommu.flush_check")),
            (AccessLog, "reserve", self._plain("logbuf.reserve", AccessLog.reserve)),
            (AccessLog, "mark_done", self._plain(
                "logbuf.commit", AccessLog.mark_done, count_zero_mark, name="logbuf.mark")),
            (AccessLog, "read_record", self._plain("logbuf.read", AccessLog.read_record)),
            (AccessLog, "advance_tail", stamp_consume(AccessLog.advance_tail)),
            (Proc, "put", self._gen("runtime.issue", Proc.put)),
            (Proc, "get", self._gen("runtime.issue", Proc.get)),
            (Proc, "cas", self._gen("runtime.issue", Proc.cas)),
            (Proc, "fao", self._gen("runtime.issue", Proc.fao)),
            (Proc, "poll_step", self._gen("runtime.consumer", Proc.poll_step)),
            (Proc, "flush", self._sim_latency(self.flush_latency_ns, Proc.flush)),
            (Proc, "rma_flush", self._sim_latency(self.flush_latency_ns, Proc.rma_flush)),
            (Proc, "register_handler", timed_handler(Proc.register_handler)),
            (runtime.OpHandle, "__init__", stamp_issue(runtime.OpHandle.__init__)),
            (runtime.OpHandle, "fire", stamp_fire(runtime.OpHandle.fire)),
            (Cpu, "busy", consumer_busy(Cpu.busy)),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def watch_commits(self, simulation):
        """Stamp every record's commit time; call after set-up, before run."""
        for proc in simulation.procs:
            for log in proc.iommu.alogs:
                stamps = self._commit_stamps[log] = deque()
                seen = [log.records_committed]

                def on_commit(log, stamps=stamps, seen=seen):
                    stamps.extend([log.engine.now] * (log.records_committed - seen[0]))
                    seen[0] = log.records_committed

                log.commit_hooks.append(on_commit)

    # -- results -------------------------------------------------------------

    def counts(self, simulation):
        """Every per-layer count and simulated quantity of one traced run.

        These are deterministic, so the benchmark also checks that they
        repeat exactly across traced runs.
        """
        m = simulation.metrics
        hits, misses = m.iotlb_hits, m.iotlb_misses
        logs = [log for proc in simulation.procs for log in proc.iommu.alogs]
        c = self.calls
        return {
            "engine.events": simulation.engine.events_run,
            "sim.drained_calls": c["sim.drained"],
            "memory.bytes_reserved": self.bytes_reserved,
            "memory.rw_calls": c["memory.rw"],
            "paging.map_calls": c["paging.map"],
            "paging.walk_calls": c["paging.walk"],
            "paging.iotlb_hits": hits,
            "paging.iotlb_misses": misses,
            "paging.iotlb_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "paging.walk_mem_accesses": self.walk_mem_accesses,
            "link.packets": m.packets,
            "link.wire_bytes": m.bytes_wire,
            "link.credit_stalls": sum(wire.stalled_polls for wire in simulation.links),
            "link.send_calls": c["link.send"],
            "iommu.arrivals": c["iommu.arrival"],
            "iommu.backpressure_stalls": m.backpressure_stalls,
            "iommu.flush_gets": c["iommu.flush_get"],
            "iommu.flush_checks": c["iommu.flush_check"],
            "iommu.faults": m.fault_entries + m.fault_drops,
            "logbuf.reserve_calls": c["logbuf.reserve"],
            "logbuf.reserve_failures": sum(log.reserve_failures for log in logs),
            "logbuf.mark_calls": c["logbuf.mark"],
            "logbuf.out_of_order_marks": self.zero_marks,
            "logbuf.records_committed": m.records_committed,
            "logbuf.records_consumed": m.records_consumed,
            "logbuf.commit_to_consume_p50_ns": percentile(self.commit_to_consume_ns, 50),
            "logbuf.commit_to_consume_p99_ns": percentile(self.commit_to_consume_ns, 99),
            "logbuf.commit_to_consume_samples": len(self.commit_to_consume_ns),
            "runtime.handler_invocations": m.handler_invocations,
            "runtime.consumer_busy_ns": self.consumer_busy_ns,
            "runtime.op_latency_p50_ns": percentile(self.op_latency_ns, 50),
            "runtime.op_latency_p99_ns": percentile(self.op_latency_ns, 99),
            "runtime.op_latency_samples": len(self.op_latency_ns),
            "runtime.flush_latency_p50_ns": percentile(self.flush_latency_ns, 50),
            "runtime.flush_latency_p99_ns": percentile(self.flush_latency_ns, 99),
            "runtime.flush_latency_samples": len(self.flush_latency_ns),
        }

    def host_seconds(self, run_covered_ns, run_s):
        """Host self time per layer, in seconds, for one traced run."""
        s = self.self_ns
        return {
            "engine.self_s": run_s - run_covered_ns * NS,
            "sim.init_s": s["sim.init"] * NS,
            "sim.drained_s": s["sim.drained"] * NS,
            "memory.reserve_s": s["memory.reserve"] * NS,
            "memory.rw_s": s["memory.rw"] * NS,
            "paging.map_s": s["paging.map"] * NS,
            "paging.walk_s": s["paging.walk"] * NS,
            "link.send_s": s["link.send"] * NS,
            "link.split_s": s["link.split"] * NS,
            "iommu.intercept_s": s["iommu.intercept"] * NS,
            "iommu.flush_s": s["iommu.flush"] * NS,
            "logbuf.reserve_s": s["logbuf.reserve"] * NS,
            "logbuf.commit_s": s["logbuf.commit"] * NS,
            "logbuf.read_s": s["logbuf.read"] * NS,
            "runtime.issue_s": s["runtime.issue"] * NS,
            "runtime.consumer_s": s["runtime.consumer"] * NS,
            "workloads.setup_s": s["workloads.setup"] * NS,
            "workloads.app_s": s["workloads.app"] * NS,
            "workloads.handler_s": s["workloads.handler"] * NS,
        }
