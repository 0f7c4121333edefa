"""Blocking primitives built on the simulation kernel.

These are the concurrency building blocks the fabric, verbs layer and
shuffle endpoints are written against: FIFO queues, counting semaphores,
mutexes, broadcast signals, and rate-limited pipes that model link
serialization without per-packet events.

A ``get``/``acquire`` that can be served at once returns a pooled
``sim.timeout(0, value)``: it fires at the current time, in the queue
position a fresh succeeded :class:`Event` would take, but like any
pooled timeout it must not be kept past the resumption of the process
that waited on it (see :mod:`repro.sim.kernel`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List

from repro.sim.kernel import Event, SimError, Simulator
from repro.sim.trains import enabled as _trains_enabled

__all__ = ["Queue", "Semaphore", "Mutex", "Notify", "Barrier", "RatePipe"]


def _packet_tick() -> None:
    """The per-packet oracle's intermediate MTU-boundary tick.

    Deliberately a no-op: a train's non-final packets carry no protocol
    action, so the oracle's extra heap entries are observability-only
    and cannot perturb any other event (see :mod:`repro.sim.trains`).
    """


class Queue:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item.  Items are delivered in FIFO order to getters in FIFO order.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        if self._items:
            return self.sim.timeout(0, self._items.popleft())
        event = Event(self.sim)
        self._getters.append(event)
        return event

    def try_get(self):
        """Non-blocking get; returns ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class Semaphore:
    """A counting semaphore with FIFO waiter wakeup."""

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise SimError(f"semaphore initial value must be >= 0, got {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        """Return an event that fires once a unit has been acquired."""
        if self._value > 0:
            self._value -= 1
            return self.sim.timeout(0)
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Acquire without blocking; returns True on success."""
        if self._value > 0:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        """Release one unit, waking the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class Mutex(Semaphore):
    """A binary semaphore with lock/unlock naming and hold-time helper.

    Releasing a mutex nobody holds is an error, not a second unit.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim, value=1)

    def lock(self) -> Event:
        return self.acquire()

    def release(self) -> None:
        """Release the mutex, handing it to the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        elif self._value:
            raise SimError("unlock of a mutex that is not held")
        else:
            self._value = 1

    def unlock(self) -> None:
        self.release()

    def critical_section(self, hold_ns: int):
        """A process fragment: acquire, hold for ``hold_ns``, release.

        Usage: ``yield from mutex.critical_section(250)``.  Models a short
        serialized critical section such as posting to a shared Queue Pair.
        ``hold_ns`` is an int number of nanoseconds.
        """
        yield self.acquire()
        if hold_ns:
            yield hold_ns
        self.release()


class Notify:
    """A broadcast signal: ``wait()`` events all fire on ``notify_all()``.

    Unlike :class:`Queue`, a notification wakes *every* current waiter and
    carries an optional value.  Used for condition-variable style "state
    changed, re-check your predicate" wakeups.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def notify_all(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)


class Barrier:
    """A cyclic barrier for a fixed number of parties.

    ``arrive()`` returns an event that fires once all parties of the
    current generation have arrived; the barrier then resets for reuse.
    """

    def __init__(self, sim: Simulator, parties: int):
        if parties < 1:
            raise SimError(f"barrier needs >= 1 parties, got {parties}")
        self.sim = sim
        self.parties = parties
        self._waiting: List[Event] = []

    def arrive(self) -> Event:
        event = Event(self.sim)
        self._waiting.append(event)
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            for waiter in waiting:
                waiter.succeed()
        return event


class RatePipe:
    """A FIFO, rate-limited transmission resource.

    Models a link (or a NIC processing engine) that serializes work at a
    fixed rate without simulating individual packets: a transfer of ``n``
    units begins when all previously submitted transfers have drained and
    completes ``n / rate`` later.

    Rates are expressed in units per nanosecond (e.g. bytes/ns, which is
    numerically equal to GB/s).

    :meth:`submit_train` charges a whole packet train (one message's
    back-to-back MTU packets) in a single event; with ``split_packets``
    set (the ``REPRO_TRAINS=0`` oracle) it instead ticks every integer
    MTU boundary — same charge, same ``busy_until``, same counters, just
    ``n_packets`` completion entries instead of one.
    """

    def __init__(self, sim: Simulator, rate: float, name: str = ""):
        if rate <= 0:
            raise SimError(f"rate must be positive, got {rate}")
        self.sim = sim
        self.rate = rate
        self.name = name
        #: per-packet oracle mode (REPRO_TRAINS=0): ``submit_train`` calls
        #: schedule one tick per MTU packet instead of one per train.
        #: Read once at construction; Fabric.use_packet_oracle() flips it
        #: on a quiesced fabric for in-process A/B runs.
        self.split_packets = not _trains_enabled()
        self._busy_until: int = 0
        # Serialization delays by unit count.  Real traffic uses a handful
        # of distinct message sizes, so the division in the hot path is
        # almost always a dict hit; bounded so adversarial size mixes
        # cannot grow it without limit.
        self._ser_cache: Dict[float, int] = {}
        self.total_units: float = 0.0
        #: cumulative occupied time (drives utilization telemetry).
        self.busy_ns: int = 0

    def _serialization_ns(self, units: float) -> int:
        cache = self._ser_cache
        duration = cache.get(units)
        if duration is None:
            duration = int(units / self.rate)
            if len(cache) < 1024:
                cache[units] = duration
        return duration

    def transmit(self, units: float, extra_ns: int = 0) -> Event:
        """Submit ``units`` of work; returns the completion event.

        ``extra_ns`` adds fixed per-item overhead that also occupies the
        pipe (e.g. per-work-request processing time).
        """
        if units < 0:
            raise SimError(f"cannot transmit negative units: {units}")
        start = max(self.sim.now, self._busy_until)
        duration = self._serialization_ns(units) + int(extra_ns)
        self._busy_until = start + duration
        self.total_units += units
        self.busy_ns += duration
        event = Event(self.sim)
        event.succeed(delay=self._busy_until - self.sim.now)
        return event

    def _packet_boundaries(self, start: int, ser_ns: int,
                           n_packets: int) -> None:
        """Schedule the oracle's intermediate MTU-boundary ticks.

        Packet ``i`` (1-based) of ``n`` completes at
        ``start + (ser * i) // n`` — integer boundaries, monotone
        non-decreasing, with the final packet's completion (scheduled by
        the caller, carrying any ``extra_ns``) landing exactly at the
        pipe's ``busy_until``.  All ticks are enqueued consecutively, so
        they cannot reorder any foreign event in a shared time bucket.
        """
        now = self.sim.now
        call_later = self.sim.call_later
        for i in range(1, n_packets):
            call_later(start + (ser_ns * i) // n_packets - now, _packet_tick)

    def submit_train(self, units: float, n_packets: int,
                     func: Callable[[], None], extra_ns: int = 0) -> None:
        """Charge one packet train; runs ``func()`` at train arrival.

        Identical occupancy, counters and completion time to
        :meth:`transmit` — a train *is* one ``units``-sized transfer —
        but under the per-packet oracle the serialization interval is
        additionally ticked at every MTU boundary.  ``func`` is scheduled
        as a bare callback; no :class:`Event` is allocated.
        """
        if units < 0:
            raise SimError(f"cannot transmit negative units: {units}")
        start = max(self.sim.now, self._busy_until)
        ser = self._serialization_ns(units)
        duration = ser + int(extra_ns)
        self._busy_until = start + duration
        self.total_units += units
        self.busy_ns += duration
        if n_packets > 1 and self.split_packets:
            self._packet_boundaries(start, ser, n_packets)
        self.sim.call_later(self._busy_until - self.sim.now, func)

    def occupy(self, duration_ns: int) -> Event:
        """Occupy the pipe for a fixed duration (rate-independent work)."""
        start = max(self.sim.now, self._busy_until)
        duration = int(duration_ns)
        self._busy_until = start + duration
        self.busy_ns += duration
        event = Event(self.sim)
        event.succeed(delay=self._busy_until - self.sim.now)
        return event

    def submit_occupy(self, duration_ns: int,
                      func: Callable[[], None]) -> None:
        """Callback form of :meth:`occupy`: runs ``func()`` at completion
        instead of returning an event."""
        start = max(self.sim.now, self._busy_until)
        duration = int(duration_ns)
        self._busy_until = start + duration
        self.busy_ns += duration
        self.sim.call_later(self._busy_until - self.sim.now, func)

    @property
    def busy_until(self) -> int:
        return self._busy_until

    def utilization(self, since: int = 0) -> float:
        """Approximate utilization: busy time over elapsed time."""
        elapsed = max(1, self.sim.now - since)
        return min(1.0, (self._busy_until - since) / elapsed)
