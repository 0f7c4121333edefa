"""Discrete-event simulation kernel.

The whole reproduction runs inside a deterministic discrete-event
simulation: simulated time is an integer number of nanoseconds, concurrent
activities (worker threads, NIC engines, links) are generator-based
processes, and every measurement reported by the benchmarks is simulated
wall-clock time.

The kernel is intentionally small and simpy-like:

* :class:`~repro.sim.kernel.Simulator` owns the clock and the event queue.
* Processes are plain generators that ``yield`` :class:`Event` objects and
  resume when the event fires, or ``yield`` an int to sleep that many
  nanoseconds.
* :mod:`repro.sim.primitives` provides the blocking building blocks used by
  the fabric and the endpoints: FIFO queues, semaphores, mutexes, broadcast
  signals and rate-limited pipes.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimError,
    Simulator,
    Timeout,
)
from repro.sim.primitives import (
    Barrier,
    Mutex,
    Notify,
    Queue,
    RatePipe,
    Semaphore,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Barrier",
    "Event",
    "Interrupt",
    "Mutex",
    "Notify",
    "Process",
    "Queue",
    "RatePipe",
    "Semaphore",
    "SimError",
    "Simulator",
    "Timeout",
]
