"""Deterministic discrete-event core.

Processes are generators. A process may yield:
  * a number  -- sleep that many nanoseconds,
  * a Signal  -- park until the signal fires.

Nested calls compose with ``yield from`` and may return values. Events with
equal timestamps run in schedule order (a monotonically increasing sequence
number breaks ties), which is what makes runs bit-identical for a fixed seed.
Only the relative order of sequence numbers matters, never their values.

Heap entries are ``(t, seq, fn, args)`` for callbacks and ``(t, seq, None,
gen)`` for process resumes, which the run loop performs itself.

Fast-forward: when a resumed process sleeps ``d`` and the heap is empty or its
earliest entry lies strictly later than ``now + d``, no other event can run
first, so the loop advances the clock and resumes the same process at once
instead of pushing and popping it. The step takes no sequence number (no
other entry could be ordered against it), but it counts as one event and is
checked against the event budget after it runs; an entry at exactly
``now + d`` still goes first (it holds the lower sequence number), so event
order and clock values are the same as with one heap entry per resume.

In-place resume: when ``Signal.fire`` is called inside a callback the run
loop executes and the heap is empty or its earliest entry lies strictly
later than ``now``, the first waiter would be the next entry popped, so the
loop resumes it as soon as the callback returns, inside the callback's
event, instead of queueing it; any other waiters are queued. An entry at
exactly ``now`` runs first (it holds the lower sequence number), so in that
case, once a callback has handed one process over, and outside callbacks,
every waiter is queued. An in-place resume is not counted as an event of
its own.
"""

import heapq
import itertools

# Engine._handoff while a callback runs and has handed no process over; it is
# None outside callbacks, and the handed-over process otherwise.
_IN_CALLBACK = object()


class BudgetExceeded(RuntimeError):
    """Engine.run executed more events than its max_events."""


class Signal:
    """One-to-many wakeup. Firing resumes every currently parked waiter.

    A waiter that needs a condition must re-check it after waking; firing with
    no waiters is a no-op. ``_waiters`` is empty exactly when none is parked,
    so a per-operation site may test it to skip the call.
    """

    def __init__(self, engine):
        self._engine = engine
        self._waiters = []

    def fire(self):
        """Resume every parked waiter; the first one in place when called
        inside a callback with nothing else due now (see the module
        docstring). That resume happens once the callback returns, so it
        comes after the rest of the callback."""
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        engine = self._engine
        now, heap = engine.now, engine._heap
        if engine._handoff is _IN_CALLBACK and (not heap or heap[0][0] > now):
            engine._handoff = waiters[0]
            if len(waiters) == 1:
                return
            waiters = waiters[1:]
        seq = engine._seq
        for gen in waiters:
            heapq.heappush(heap, (now, next(seq), None, gen))


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
        # The process a callback hands to the run loop to resume in place.
        self._handoff = None
        # Timestamp of the last productive step; callers mark it explicitly.
        self.last_activity = 0.0

    def note_activity(self):
        if self.now > self.last_activity:
            self.last_activity = self.now

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError("negative delay")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def stop(self):
        """Drop every queued event, and a process a callback has handed over
        for an in-place resume: run() returns once the current step ends.
        Processes parked on a Signal stay parked."""
        self._heap.clear()
        if self._handoff is not None:
            self._handoff = _IN_CALLBACK

    def spawn(self, gen):
        """Start a process generator immediately (at the current time).

        Its first sleep always goes through the heap: the caller's event has
        not finished, so nothing may be fast-forwarded past it.
        """
        try:
            req = gen.send(None)
        except StopIteration:
            return
        if isinstance(req, Signal):
            req._waiters.append(gen)
        elif isinstance(req, (int, float)):
            if req < 0:
                raise ValueError("negative delay")
            heapq.heappush(self._heap, (self.now + req, next(self._seq), None, gen))
        else:
            raise TypeError("process yielded %r; expected a delay or a Signal" % (req,))

    def run(self, max_events=None):
        """Drain the event heap. Returns the number of events executed."""
        heap, seq = self._heap, self._seq
        heappop, heappush = heapq.heappop, heapq.heappush
        events = start = self.events_run
        limit = float("inf") if max_events is None else start + max_events
        try:
            while heap:
                t, _, fn, args = heappop(heap)
                if t < self.now:
                    raise RuntimeError("time went backwards")
                self.now = t
                events += 1
                if fn is None:
                    gen = args
                else:
                    self._handoff = _IN_CALLBACK
                    fn(*args)
                    gen = self._handoff
                    self._handoff = None
                    if gen is _IN_CALLBACK:
                        if events > limit:
                            raise BudgetExceeded("event budget exceeded (%d)" % max_events)
                        continue
                while True:
                    try:
                        req = gen.send(None)
                    except StopIteration:
                        break
                    if type(req) is not float:
                        if isinstance(req, Signal):
                            req._waiters.append(gen)
                            break
                        if not isinstance(req, (int, float)):
                            raise TypeError("process yielded %r; expected a delay or a Signal" % (req,))
                    if req < 0:
                        raise ValueError("negative delay")
                    t = self.now + req
                    # A queued entry at or before t runs first (on a tie it
                    # holds the lower sequence number); otherwise nothing can
                    # run in between, so fast-forward: resume gen at t now,
                    # with the budget check of a pop.
                    if heap and not t < heap[0][0]:
                        heappush(heap, (t, next(seq), None, gen))
                        break
                    if events > limit:
                        raise BudgetExceeded("event budget exceeded (%d)" % max_events)
                    self.now = t
                    events += 1
                if events > limit:
                    raise BudgetExceeded("event budget exceeded (%d)" % max_events)
        finally:
            self.events_run = events
            self._handoff = None
        return events - start


class Cpu:
    """A FIFO execution resource shared by the coroutines of one node.

    busy() claims the next free slot and returns how long the caller must
    wait until its claim ends; callers are serviced in request order, which
    models an application thread and a log-consumer thread contending for
    the same core. A caller sleeps the wait only when it is positive: a
    zero sleep is an event of its own and would reorder ties.
    """

    def __init__(self, engine):
        self.engine = engine
        self.free_at = 0.0

    def busy(self, ns):
        if ns < 0:
            raise ValueError("negative busy time")
        now = self.engine.now
        start = self.free_at if self.free_at > now else now
        self.free_at = start + ns
        return self.free_at - now
