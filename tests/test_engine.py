import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aasim.engine import Barrier, Cpu, Engine, Signal


def test_events_run_in_time_order():
    eng = Engine()
    out = []
    eng.schedule(30, out.append, "c")
    eng.schedule(10, out.append, "a")
    eng.schedule(20, out.append, "b")
    eng.run()
    assert out == ["a", "b", "c"]
    assert eng.now == 30


def test_equal_times_run_in_schedule_order():
    eng = Engine()
    out = []
    for tag in range(8):
        eng.schedule(5, out.append, tag)
    eng.run()
    assert out == list(range(8))


def test_process_sleep_and_return_value():
    eng = Engine()
    seen = {}

    def inner():
        yield 7
        return 42

    def outer():
        seen["start"] = eng.now
        value = yield from inner()
        seen["value"] = value
        seen["end"] = eng.now

    eng.spawn(outer())
    eng.run()
    assert seen == {"start": 0, "value": 42, "end": 7}


def test_signal_wakes_all_waiters():
    eng = Engine()
    woken = []

    sig = Signal(eng)

    def waiter(name):
        yield sig
        woken.append((name, eng.now))

    eng.spawn(waiter("x"))
    eng.spawn(waiter("y"))
    eng.schedule(100, sig.fire)
    eng.run()
    assert woken == [("x", 100), ("y", 100)]


def test_signal_fire_without_waiters_is_noop():
    eng = Engine()
    sig = Signal(eng)
    sig.fire()
    eng.run()
    assert not eng._heap


def test_cpu_serializes_fifo():
    eng = Engine()
    done = []

    cpu = Cpu(eng)

    def job(name, ns):
        wait = cpu.busy(ns)
        if wait > 0:
            yield wait
        done.append((name, eng.now))

    eng.spawn(job("a", 10))
    eng.spawn(job("b", 5))
    eng.run()
    # b queued behind a even though both started at t=0
    assert done == [("a", 10), ("b", 15)]
    assert cpu.free_at == 15


def test_bad_yield_raises():
    eng = Engine()

    def bad():
        yield "nope"

    try:
        eng.spawn(bad())
    except TypeError:
        return
    raise AssertionError("expected TypeError")


@pytest.mark.parametrize("req,error", [("nope", TypeError), (None, TypeError), (-1, ValueError)])
def test_bad_yield_after_a_sleep_raises_inside_run(req, error):
    eng = Engine()

    def bad():
        yield 5
        yield req

    eng.spawn(bad())
    with pytest.raises(error):
        eng.run()
    assert eng.now == 5 and eng.events_run == 1


def test_bool_yield_sleeps_like_an_int():
    eng = Engine()
    seen = []

    def proc():
        yield 2
        yield True
        seen.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert seen == [3]


def test_event_budget_trips_after_the_step_that_exceeds_it():
    eng = Engine()
    resumes = []

    def sleeper():
        while True:
            resumes.append(eng.now)
            yield 1.0

    eng.spawn(sleeper())
    with pytest.raises(RuntimeError, match=r"^event budget exceeded \(1000\)$"):
        eng.run(max_events=1000)
    assert eng.events_run == 1001
    assert eng.now == 1001.0
    assert len(resumes) == 1002


def test_barrier_is_reusable_and_only_the_last_arriver_releases():
    eng = Engine()
    barrier = Barrier(eng, 3)
    log = []

    def party(name, delays):
        for rnd, delay in enumerate(delays):
            yield delay
            log.append(("arrive", rnd, name, eng.now))
            yield from barrier.arrive()
            log.append(("leave", rnd, name, eng.now))

    delays = {"a": [10, 5, 30], "b": [20, 1, 2], "c": [30, 40, 1]}
    for name, ds in delays.items():
        eng.spawn(party(name, ds))
    eng.run()

    assert len(log) == 2 * 3 * 3
    for rnd, release_at in enumerate([30.0, 70.0, 100.0]):
        events = [e for e in log if e[1] == rnd]
        arrivals = [e for e in events if e[0] == "arrive"]
        leaves = [e for e in events if e[0] == "leave"]
        assert max(t for *_, t in arrivals) == release_at
        assert [t for *_, t in leaves] == [release_at] * 3
        # Nobody leaves a round before its last party has arrived.
        assert log.index(leaves[0]) > max(log.index(e) for e in arrivals)
        # The last arriver goes straight through; the parked ones follow.
        last = arrivals[-1][2]
        at = log.index(arrivals[-1])
        assert log[at + 1] == ("leave", rnd, last, release_at)
    assert barrier.count == 0


# -- the engine against a heap-only reference scheduler -----------------------


class RefSignal:
    def __init__(self, engine):
        self.engine = engine
        self._waiters = []

    def fire(self):
        waiters, self._waiters = self._waiters, []
        for gen in waiters:
            self.engine.schedule(0, self.engine.advance, gen)


class RefEngine:
    """Reference: every resume is one heap entry, popped in (time, seq) order."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self.seq = itertools.count()
        self.events_run = 0

    def schedule(self, delay, fn, *args):
        heapq.heappush(self._heap, (self.now + delay, next(self.seq), fn, args))

    def spawn(self, gen):
        self.advance(gen)

    def advance(self, gen):
        try:
            req = gen.send(None)
        except StopIteration:
            return
        if isinstance(req, RefSignal):
            req._waiters.append(gen)
        else:
            self.schedule(req, self.advance, gen)

    def run(self):
        while self._heap:
            self.now, _, fn, args = heapq.heappop(self._heap)
            self.events_run += 1
            fn(*args)


def simulate(engine, make_signal, plan):
    """Run ``plan`` and return the (now, pid, step) trace of every resume and
    callback, the events run, the final clock and the number of fires that
    resume a waiter in place: the first fire inside a callback that finds a
    waiter and nothing due now. A process step is (op, a, b): sleep a; wait on
    signal a; fire signal a; schedule a callback after a that fires signal b
    or, for "call-spawn", spawns process b; or spawn process b. A top-level
    callback (delay, k) fires signal k."""
    tops, callbacks = plan
    signals = [make_signal(engine) for _ in range(2)]
    pids = itertools.count()
    trace = []
    in_place = [0]
    # Whether a callback of this test runs, and whether it has handed a
    # waiter over; a process it spawns runs inside it.
    callback = {"inside": False, "handed": False}

    def proc(steps, depth):
        pid = next(pids)
        for i, (op, a, b) in enumerate(steps):
            trace.append((engine.now, pid, i))
            if op == "sleep":
                yield a
            elif op == "wait":
                yield signals[a % 2]
            elif op == "fire":
                fire_signal(a % 2)
            elif op == "call":
                engine.schedule(a, as_callback(fire), b % 2)
            elif op == "call-spawn" and depth < 2:
                engine.schedule(a, as_callback(start), tops[b % len(tops)], depth + 1)
            elif op == "spawn" and depth < 2:
                engine.spawn(proc(tops[b % len(tops)], depth + 1))

    def fire_signal(k):
        heap = engine._heap
        if (
            callback["inside"]
            and not callback["handed"]
            and signals[k]._waiters
            and not (heap and heap[0][0] <= engine.now)
        ):
            in_place[0] += 1
            callback["handed"] = True
        signals[k].fire()

    def as_callback(fn):
        def run(*args):
            callback.update(inside=True, handed=False)
            try:
                fn(*args)
            finally:
                callback["inside"] = False

        return run

    def fire(k):
        trace.append((engine.now, "fire", k))
        fire_signal(k)

    def start(steps, depth):
        trace.append((engine.now, "start", depth))
        engine.spawn(proc(steps, depth))

    for steps in tops:
        engine.spawn(proc(steps, 0))
    for delay, k in callbacks:
        engine.schedule(delay, as_callback(fire), k)
    engine.run()
    return trace, engine.events_run, engine.now, in_place[0]


small = st.integers(min_value=0, max_value=3)
step = st.tuples(
    st.sampled_from(["sleep", "sleep", "sleep", "wait", "fire", "call", "call-spawn", "spawn"]),
    small,
    small,
)
plans = st.tuples(
    st.lists(st.lists(step, max_size=8), min_size=1, max_size=4),
    st.lists(st.tuples(small, st.integers(min_value=0, max_value=1)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(plans)
def test_engine_matches_heap_only_reference(plan):
    trace, events, now, in_place = simulate(Engine(), Signal, plan)
    ref_trace, ref_events, ref_now, ref_in_place = simulate(RefEngine(), RefSignal, plan)
    assert (trace, now, in_place) == (ref_trace, ref_now, ref_in_place)
    # An in-place resume runs inside its callback's event, not as one of its own.
    assert events == ref_events - in_place


def test_stop_drops_queued_events_and_ends_the_run():
    eng = Engine()
    woken = []

    def sleeper(ns):
        yield ns
        woken.append(eng.now)

    def stopper():
        yield 50
        eng.stop()

    eng.spawn(sleeper(100))
    eng.spawn(stopper())
    eng.spawn(sleeper(10))
    eng.run()
    assert woken == [10]
    assert eng.now == 50
    assert not eng._heap


def test_callback_fire_resumes_the_first_waiter_in_place():
    eng = Engine()
    sig = Signal(eng)
    woken = []

    def waiter(name):
        yield sig
        woken.append((name, eng.now))

    eng.spawn(waiter("x"))
    eng.spawn(waiter("y"))
    eng.schedule(5, sig.fire)
    # x runs inside the callback's event; y is queued behind it, an event of
    # its own.
    assert eng.run() == 2
    assert woken == [("x", 5), ("y", 5)]


# -- Cpu.busy against the generator it used to be ------------------------------


class GenCpu(Cpu):
    """Reference: busy() as a generator that sleeps the wait when positive."""

    def busy(self, ns):
        if ns < 0:
            raise ValueError("negative busy time")
        start = max(self.engine.now, self.free_at)
        self.free_at = start + ns
        delay = self.free_at - self.engine.now
        if delay > 0:
            yield delay


def run_claims(cpu_class, plan):
    """Each process of plan sleeps, then claims the core, step by step; a gap
    of None claims again at once. Returns every claim's (pid, step, start,
    end, free_at), the events run and the final clock."""
    eng = Engine()
    cpu = cpu_class(eng)
    out = []

    def claimer(pid, steps):
        for i, (gap, ns) in enumerate(steps):
            if gap is not None:
                yield gap
            start = eng.now
            if cpu_class is GenCpu:
                yield from cpu.busy(ns)
            else:
                wait = cpu.busy(ns)
                if wait > 0:
                    yield wait
            out.append((pid, i, start, eng.now, cpu.free_at))

    for pid, steps in enumerate(plan):
        eng.spawn(claimer(pid, steps))
    eng.run()
    return out, eng.events_run, eng.now


claims = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([None, 0, 0, 1, 2.5, 4]),
            st.sampled_from([0, 0, 0.5, 1, 3, 7.25]),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(claims)
def test_plain_busy_matches_the_generator_busy(plan):
    assert run_claims(Cpu, plan) == run_claims(GenCpu, plan)


def test_busy_returns_the_wait_and_queues_claims_fifo():
    eng = Engine()
    cpu = Cpu(eng)
    assert cpu.busy(10) == 10
    assert cpu.busy(0) == 10
    assert cpu.busy(5) == 15
    assert cpu.free_at == 15
    with pytest.raises(ValueError):
        cpu.busy(-1)
