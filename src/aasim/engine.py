"""Deterministic discrete-event core.

Processes are generators. A process may yield:
  * a number  -- sleep that many nanoseconds,
  * a Signal  -- park until the signal fires.

Nested calls compose with ``yield from`` and may return values. Events with
equal timestamps run in schedule order (a monotonically increasing sequence
number breaks ties), which is what makes runs bit-identical for a fixed seed.
"""

import heapq
import itertools


class Signal:
    """One-to-many wakeup. Firing resumes every currently parked waiter.

    A waiter that needs a condition must re-check it after waking; firing with
    no waiters is a no-op.
    """

    def __init__(self, engine):
        self._engine = engine
        self._waiters = []

    def fire(self):
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for gen in waiters:
            self._engine._schedule_resume(gen)


class Barrier:
    """Reusable rendezvous of a fixed number of processes: each round, the
    last arriver releases everyone parked and carries on without waiting."""

    def __init__(self, engine, parties):
        self._signal = Signal(engine)
        self.parties = parties
        self.count = 0

    def arrive(self):
        self.count += 1
        if self.count == self.parties:
            self.count = 0
            self._signal.fire()
        else:
            yield self._signal


class Engine:
    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        self.events_run = 0
        # Timestamp of the last productive step; callers mark it explicitly.
        self.last_activity = 0.0

    def note_activity(self):
        if self.now > self.last_activity:
            self.last_activity = self.now

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError("negative delay")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def spawn(self, gen):
        """Start a process generator immediately (at the current time)."""
        self._advance(gen, None)

    def _schedule_resume(self, gen):
        self.schedule(0, self._advance, gen, None)

    def _advance(self, gen, value):
        try:
            req = gen.send(value)
        except StopIteration:
            return
        if isinstance(req, Signal):
            req._waiters.append(gen)
        elif isinstance(req, (int, float)):
            self.schedule(req, self._advance, gen, None)
        else:
            raise TypeError("process yielded %r; expected a delay or a Signal" % (req,))

    def run(self, max_events=None):
        """Drain the event heap. Returns the number of events executed."""
        start = self.events_run
        while self._heap:
            t, _, fn, args = heapq.heappop(self._heap)
            if t < self.now:
                raise RuntimeError("time went backwards")
            self.now = t
            self.events_run += 1
            fn(*args)
            if max_events is not None and self.events_run - start > max_events:
                raise RuntimeError("event budget exceeded (%d)" % max_events)
        return self.events_run - start

    @property
    def pending_events(self):
        return len(self._heap)


class Cpu:
    """A FIFO execution resource shared by the coroutines of one node.

    busy() claims the next free slot; callers are serviced in request order,
    which models an application thread and a log-consumer thread contending
    for the same core.
    """

    def __init__(self, engine):
        self.engine = engine
        self.free_at = 0.0
        self.busy_ns = 0.0

    def busy(self, ns):
        if ns < 0:
            raise ValueError("negative busy time")
        start = max(self.engine.now, self.free_at)
        self.free_at = start + ns
        self.busy_ns += ns
        delay = self.free_at - self.engine.now
        if delay > 0:
            yield delay
