"""Core discrete-event simulation kernel.

Time is an integer number of simulated nanoseconds.  The design follows the
classic event-loop model: a priority queue of ``(time, sequence, entry)``
entries is drained in order, and each entry runs its callbacks when popped.
Processes are generators; yielding an :class:`Event` suspends the process
until the event fires, and yielding a plain ``int`` suspends it for that
many nanoseconds.

Hot-path notes (the "kernel fast path", see DESIGN.md):

* :meth:`Simulator.run` and :meth:`Simulator.run_process` share a batched
  drain loop that pops all entries of one timestamp in an inner loop with
  locally bound heap operations, and flushes the telemetry counters once
  per drain instead of once per event.
* Plain callback scheduling (:meth:`Simulator.call_soon` /
  :meth:`Simulator.call_at` / :meth:`Simulator.call_later`) pushes the
  bare callable as the heap payload — no :class:`Event`, no carrier
  object, no callback list.  The drain loop distinguishes payloads with
  one ``isinstance(entry, Event)`` check.
* Int sleeps: ``yield 250`` queues the process's cached resume callback
  at ``now + 250`` — exactly the queue position a ``sim.timeout(250)``
  created just before the yield takes — so a CPU charge or a hold costs
  no event, no callback list and no bound method.  Only an exact
  ``int`` sleeps (not ``bool``, not a numpy integer); anything else that
  is not an :class:`Event`, and a negative int, is thrown back into the
  generator as :class:`SimError`.
* An event's callbacks live in one slot that holds a single callable and
  becomes a list only when a second callback is added.
* :class:`Timeout` objects consumed by exactly one waiting process are
  returned to a per-simulator free list and reused by the next
  ``timeout()`` call.  The blocking primitives hand out such pooled
  timeouts when a ``get``/``acquire`` can be served at once.  Retaining a
  fired Timeout past the resumption of its waiter and reading ``.value``
  / ``.processed`` later is unsupported; attach a callback or use a fresh
  :class:`Event` for that.
* A process binds its resume callback once; every wait queues that one
  callable, and its first resumption is that callable, scheduled
  directly — no bootstrap :class:`Event`.

None of this changes observable behaviour: heap entries are created at the
same simulated times in the same relative order as before, so simulated
end times are bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Union

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "SimError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
]


class SimError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0  # not triggered yet
_TRIGGERED = 1  # queued, callbacks will run when popped
_PROCESSED = 2  # callbacks have run

#: cap on the per-simulator Timeout free list (bounds idle memory).
_POOL_MAX = 4096


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move through three states: pending, triggered (scheduled on the
    event queue) and processed (callbacks executed).  Waiting on an already
    processed event resumes the waiter immediately (at the current simulated
    time) rather than blocking forever.
    """

    __slots__ = ("sim", "_state", "_ok", "_value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._state = _PENDING
        self._ok = True
        self._value: Any = None
        # None, one callable, or a list once a second callback is added.
        self._callbacks: Union[None, Callable[["Event"], None],
                               List[Callable[["Event"], None]]] = None

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (not failed)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with."""
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully, firing after ``delay`` ns."""
        if self._state != _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        self.sim._enqueue(delay, self)
        return self

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with a failure; waiters get ``exc`` thrown."""
        if self._state != _PENDING:
            raise SimError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise SimError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._ok = False
        self._value = exc
        self.sim._enqueue(delay, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed, the callback is scheduled
        to run immediately (at the current simulated time).
        """
        if self._state == _PROCESSED:
            self.sim.call_soon(lambda: callback(self))
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif isinstance(callbacks, list):
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        if isinstance(callbacks, list):
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Instances consumed by a single waiting process are pooled: prefer
    ``sim.timeout(...)`` over direct construction so reuse can kick in,
    and do not retain a fired Timeout past its waiter's resumption.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self._state = _TRIGGERED
        self._value = value
        sim._enqueue(delay, self)

    def _run_callbacks(self) -> None:
        self._state = _PROCESSED
        callback = self._callbacks
        if callback is None:
            return
        self._callbacks = None
        if isinstance(callback, list):
            for each in callback:
                each(self)
            return
        callback(self)
        # Recycle the ``yield sim.timeout(...)`` pattern: exactly one
        # waiter, and that waiter is a process resumption.  Condition
        # events (_check callbacks), multi-waiter timeouts, explicit
        # user callbacks and timeouts nobody waited on keep the object
        # alive and are never pooled.
        if getattr(callback, "__func__", None) is _process_resume:
            pool = self.sim._timeout_pool
            if len(pool) < _POOL_MAX:
                self._value = None
                pool.append(self)


#: what a process resumes with when an int sleep (or its first step) is
#: due: processed, ok, value None.  Never queued or waited on itself.
_WAKE = Event.__new__(Event)
_WAKE._state = _PROCESSED
_WAKE._ok = True
_WAKE._value = None
_WAKE._callbacks = None


class Process(Event):
    """A running generator; doubles as the event fired at termination.

    The process resumes each time the event it yielded fires, or once the
    number of nanoseconds it yielded as an ``int`` has passed.  A failed
    event is thrown into the generator, and so is a :class:`SimError` for
    a yield that is neither; an uncaught exception fails the process
    event, and escapes to :meth:`Simulator.run` if nothing waits on the
    process.
    """

    __slots__ = ("_generator", "_send", "_waiting_on", "_observed", "name",
                 "_resume_cb", "_stale")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self._generator = generator
        self._send = generator.send
        # The yielded Event, or the wake-up time of an int sleep.
        self._waiting_on: Union[None, Event, int] = None
        self._observed = False
        self.name = name or getattr(generator, "__name__", "process")
        # Bound once, and queued by every wait: called with the event
        # waited on, or with no argument when an int sleep is due.
        self._resume_cb = self._resume
        # Wake-up time -> count of queued wakes an interrupt cut short.
        self._stale: Optional[Dict[int, int]] = None
        sim.processes_started += 1
        # Kick the process off at the current time (directly scheduled —
        # no bootstrap Event allocation).
        sim.call_soon(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event or sleeping detaches it from that wait.
        """
        if not self.is_alive:
            raise SimError(f"cannot interrupt finished process {self.name!r}")
        poker = Event(self.sim)
        poker.add_callback(self._resume_cb)
        poker.fail(Interrupt(cause))

    def _resume(self, event: Event = _WAKE) -> None:
        if self._state != _PENDING:
            # The process already ended (e.g. interrupted); stale wakeup.
            return
        waiting = self._waiting_on
        if event is not waiting:
            if event is _WAKE:
                # An int sleep (or the first step) is due, unless an
                # interrupt cut that sleep short.
                stale = self._stale
                if stale is not None and self._drop_stale(stale):
                    return
            elif isinstance(event._value, Interrupt):
                # An interrupt arrived while waiting; the original event
                # (or sleep wake) may still fire later, and must then be
                # ignored.
                if type(waiting) is int:
                    self._cut_sleep(waiting)
            else:
                return
        self.sim.process_wakeups += 1
        ok = event._ok
        value = event._value
        while True:
            try:
                if ok:
                    target = self._send(value)
                else:
                    target = self._generator.throw(value)
            except StopIteration as stop:
                self._unbind()
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._unbind()
                self.fail(exc)
                return
            if type(target) is int:
                if target >= 0:
                    # Exactly where a ``sim.timeout(target)`` built just
                    # before the yield would have been queued.
                    sim = self.sim
                    when = sim.now + target
                    self._waiting_on = when
                    bucket = sim._buckets.get(when)
                    if bucket is None:
                        sim._buckets[when] = [self._resume_cb]
                        _heappush(sim._heap, when)
                    else:
                        bucket.append(self._resume_cb)
                    return
                value = SimError(
                    f"process {self.name!r} yielded a negative sleep "
                    f"({target} ns)"
                )
            elif isinstance(target, Event):
                self._waiting_on = target
                target.add_callback(self._resume_cb)
                return
            else:
                value = SimError(
                    f"process {self.name!r} yielded {target!r}; processes "
                    "must yield Event instances or int nanoseconds"
                )
            # A rejected yield raises at the yield, like any failure.
            ok = False

    def _unbind(self) -> None:
        # The cached callback references this process.  Dropping it when
        # the process ends leaves a finished process free of reference
        # cycles, so reference counting reclaims it; a queued stale wake
        # keeps its own reference and finds the process ended.
        self._waiting_on = None
        del self._resume_cb

    def _cut_sleep(self, when: int) -> None:
        """Mark the queued wake at ``when`` stale: an interrupt ended the
        sleep early.  Any stale wake at ``when`` was queued before a live
        wake at the same time could be, so it is dispatched first."""
        stale = self._stale
        if stale is None:
            stale = self._stale = {}
        stale[when] = stale.get(when, 0) + 1

    def _drop_stale(self, stale: Dict[int, int]) -> bool:
        """Consume one stale wake due now; True if there was one."""
        now = self.sim.now
        count = stale.get(now)
        if not count:
            return False
        if count == 1:
            del stale[now]
            if not stale:
                self._stale = None
        else:
            stale[now] = count - 1
        return True

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        self._observed = True
        super().add_callback(callback)

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        super().fail(exc, delay)
        self.sim._defunct.append(self)
        return self


_process_resume = Process._resume

class _Condition(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of the given events fires.

    The value is the ``(event, value)`` pair of the first event.  A failing
    child event fails the condition.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed((event, event.value))
        else:
            self.fail(event.value)


class AllOf(_Condition):
    """Fires when every given event has fired; value is the value list."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed([e.value for e in self._events])


class Simulator:
    """The event loop: owns the clock and runs events in timestamp order."""

    def __init__(self):
        self.now: int = 0
        # Calendar-bucket queue: ``_heap`` holds one plain-int entry per
        # distinct pending timestamp; ``_buckets`` maps each timestamp to
        # its entries in schedule order.  Dispatch order — timestamps
        # ascending, insertion order within a timestamp — is exactly the
        # order of the classic ``(time, sequence)`` heap, but a burst of
        # same-time entries costs one heap operation instead of one each,
        # and heap comparisons are int-int instead of tuple-tuple.
        self._heap: List[int] = []
        self._buckets: Dict[int, List] = {}
        self._defunct: List[Process] = []
        # Telemetry counters, harvested lazily by repro.telemetry (the
        # kernel stays dependency-free): plain int adds per event.  The
        # batched drain loop accumulates them locally and flushes once per
        # drain, so mid-drain reads may lag.
        self.events_dispatched = 0
        self.process_wakeups = 0
        self.processes_started = 0
        self.max_queue_depth = 0
        # Free list for pooled Timeouts (see module docstring).
        self._timeout_pool: List[Timeout] = []

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, delay: int, event: Event) -> None:
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        when = self.now + int(delay)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            _heappush(self._heap, when)
        else:
            bucket.append(event)

    def dispose(self) -> None:
        """Drop every pending event, parked process and pooled timeout.

        End-of-simulation teardown: pending entries (unexpired drain
        watches, parked processes) hold generator frames whose locals
        reach most of the model, so clearing them here lets reference
        counting reclaim a dead cluster instead of leaving one giant
        cycle for the garbage collector to traverse.  The simulator
        itself stays usable for a fresh run.
        """
        self._heap.clear()
        self._buckets.clear()
        self._defunct.clear()
        self._timeout_pool.clear()

    def call_soon(self, func: Callable[[], None]) -> None:
        """Run ``func()`` at the current simulated time, after everything
        already queued for this timestamp."""
        when = self.now
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    def call_at(self, when: int, func: Callable[[], None]) -> None:
        """Run ``func()`` at absolute simulated time ``when`` (>= now)."""
        if when < self.now:
            raise SimError(
                f"cannot schedule into the past (when={when} < now={self.now})"
            )
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    def call_later(self, delay: int, func: Callable[[], None]) -> None:
        """Run ``func()`` after ``delay`` ns of simulated time."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        when = self.now + int(delay)
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [func]
            _heappush(self._heap, when)
        else:
            bucket.append(func)

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now (pooled)."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimError(f"negative timeout delay: {delay}")
            t = pool.pop()
            t._state = _TRIGGERED
            t._value = value
            self._enqueue(delay, t)
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------

    def _reap_defunct(self) -> None:
        # Surface exceptions from processes nobody waits on, so bugs do not
        # vanish silently.  A failed process stays on the defunct list until
        # its own termination event has been processed; if no waiter
        # consumed the failure by then, re-raise it here.
        # Mutated in place: _drain holds a reference to the same list.
        defunct = self._defunct
        still_pending = []
        for proc in defunct:
            if proc._state != _PROCESSED:
                still_pending.append(proc)
            elif not proc.ok and not proc._observed:
                defunct[:] = still_pending
                raise proc.value
        defunct[:] = still_pending

    def step(self) -> None:
        """Process the next entry on the queue."""
        heap = self._heap
        when = heap[0]
        depth = len(heap)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        self.events_dispatched += 1
        bucket = self._buckets[when]
        entry = bucket.pop(0)
        if not bucket:
            del self._buckets[when]
            _heappop(heap)
        self.now = when
        if isinstance(entry, Event):
            entry._run_callbacks()
        else:
            entry()
        if self._defunct:
            self._reap_defunct()

    def _drain(self, until: Optional[int], stop: Optional[Event]) -> None:
        """The shared hot loop: dispatch entries in (time, sequence) order.

        ``until`` bounds simulated time (exclusive); ``stop`` halts the
        loop once that event has been processed.  All entries of one
        timestamp are popped in the inner loop so the time comparison and
        attribute loads happen once per timestamp, not once per event.
        Telemetry counters are accumulated in locals and flushed on exit
        (including on exceptions).
        """
        heap = self._heap
        buckets = self._buckets
        pop = _heappop
        defunct = self._defunct
        dispatched = 0
        max_depth = self.max_queue_depth
        sample = 0
        try:
            # The loop is duplicated for the unbounded stop-less case
            # (plain ``run()``, which is every figure run and benchmark)
            # so the common path pays neither a per-batch ``until`` check
            # nor a per-event stop check.
            if until is None and stop is None:
                while heap:
                    when = pop(heap)
                    self.now = when
                    # Queue depth is sampled every 64th timestamp batch
                    # (not before every pop) and counts distinct pending
                    # timestamps, to keep the loop lean; the gauge stays
                    # deterministic but is an approximation — it is one
                    # of the interpreter self-counters left out of the
                    # golden digests (see DESIGN.md).
                    sample -= 1
                    if sample < 0:
                        sample = 63
                        depth = len(heap)
                        if depth > max_depth:
                            max_depth = depth
                    # Entries scheduled for ``when`` mid-batch go to a
                    # fresh bucket that the outer loop dispatches next,
                    # exactly where their sequence numbers would have
                    # placed them; this bucket cannot grow under us.
                    for entry in buckets.pop(when):
                        dispatched += 1
                        if isinstance(entry, Event):
                            entry._run_callbacks()
                        else:
                            entry()
                        if defunct:
                            self._reap_defunct()
            else:
                while heap:
                    when = heap[0]
                    if until is not None and when >= until:
                        break
                    pop(heap)
                    self.now = when
                    sample -= 1
                    if sample < 0:
                        sample = 63
                        depth = len(heap)
                        if depth > max_depth:
                            max_depth = depth
                    bucket = buckets.pop(when)
                    for i, entry in enumerate(bucket):
                        dispatched += 1
                        if isinstance(entry, Event):
                            entry._run_callbacks()
                        else:
                            entry()
                        if defunct:
                            self._reap_defunct()
                        if stop is not None and stop._state == _PROCESSED:
                            # Preserve the rest of the batch for a later
                            # run; mid-batch entries at ``when`` may have
                            # re-created the bucket and must come after.
                            rest = bucket[i + 1:]
                            if rest:
                                existing = buckets.get(when)
                                if existing is None:
                                    buckets[when] = rest
                                    _heappush(heap, when)
                                else:
                                    existing[:0] = rest
                            return
        finally:
            self.events_dispatched += dispatched
            self.max_queue_depth = max_depth

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains or ``until`` is reached.

        Contract — the bound is **exclusive**: every event scheduled
        strictly before ``until`` is processed; an event scheduled exactly
        at ``until`` stays queued, and the clock stops at ``until`` so a
        subsequent ``run()`` resumes with those events due at the current
        time.  The clock advances to ``until`` even when the queue drains
        early, and never moves backwards: ``until <= now`` processes
        nothing and leaves the clock unchanged.

        Returns the simulated time at which the run stopped.
        """
        self._drain(until, None)
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process return value; re-raises its exception on
        failure.  Other already-scheduled activities keep running alongside.
        """
        proc = self.process(generator, name=name)
        self._drain(None, proc)
        if proc._state != _PROCESSED:
            raise SimError(f"process {proc.name!r} deadlocked (event queue empty)")
        if not proc.ok:
            raise proc.value
        return proc.value
