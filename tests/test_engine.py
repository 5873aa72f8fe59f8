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
    assert eng.pending_events == 0


def test_cpu_serializes_fifo():
    eng = Engine()
    done = []

    cpu = Cpu(eng)

    def job(name, ns):
        yield from cpu.busy(ns)
        done.append((name, eng.now))

    eng.spawn(job("a", 10))
    eng.spawn(job("b", 5))
    eng.run()
    # b queued behind a even though both started at t=0
    assert done == [("a", 10), ("b", 15)]
    assert cpu.busy_ns == 15


def test_bad_yield_raises():
    eng = Engine()

    def bad():
        yield "nope"

    try:
        eng.spawn(bad())
    except TypeError:
        return
    raise AssertionError("expected TypeError")


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
