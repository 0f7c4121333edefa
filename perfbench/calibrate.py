"""A fixed pure-Python reference loop that tracks the host's current speed.

On a shared host the speed this process gets moves in phases of seconds
to tens of seconds: the loop below took from 0.13 s to 0.30 s within one
minute, and one simulator repetition from 1.2 s to 2.6 s, while CPU time
tracked wall time.  The benchmark times the loop before and after every
timed unit of work and rescales that unit to the speed at which the loop
takes ``REFERENCE_S`` seconds, which cancels the phase both see.  The
loop is the benchmark's own code, so a change to the simulator does not
move it.

It imitates the simulator's instruction mix: a timestamp heap, slotted
objects chained through attributes, generator resumes and dict counters,
over a working set of a few MiB.
"""

from __future__ import annotations

import gc
import heapq
import time

#: seconds one loop takes at the reference speed (about its fastest on a
#: 2-vCPU Intel Xeon container host); rescaled host times are seconds at
#: that speed.
REFERENCE_S = 0.15

_OBJECTS = 20_000
_PROCESSES = 2_000
_EVENTS = 60_000


class _Node:
    __slots__ = ("t", "n", "peer", "slots")

    def __init__(self, n: int):
        self.t = 0
        self.n = n
        self.peer = None
        self.slots = [0] * 8


def _process(node: _Node):
    while True:
        node.t += yield
        node.n += 1


def reference_loop() -> float:
    """Run the fixed loop once; return its host seconds.

    Collects garbage before and after, and keeps the collector off while
    timing, so neither the loop nor the work timed next pays for the
    other's collections.
    """
    gc.collect()
    gc.disable()
    try:
        elapsed = _timed_loop()
    finally:
        gc.enable()
    gc.collect()
    return elapsed


def _timed_loop() -> float:
    start = time.perf_counter()
    nodes = [_Node(i) for i in range(_OBJECTS)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i * 7919) % _OBJECTS]
    procs = [_process(node) for node in nodes[:_PROCESSES]]
    for proc in procs:
        next(proc)
    heap = [((i * 2654435761) % 1000, i) for i in range(_OBJECTS)]
    heapq.heapify(heap)
    counts = {}
    for _ in range(_EVENTS):
        t, i = heapq.heappop(heap)
        node = nodes[i]
        node.slots[t & 7] += 1
        peer = node.peer
        key = peer.n & 1023
        counts[key] = counts.get(key, 0) + 1
        if i < _PROCESSES:
            procs[i].send(t)
        heapq.heappush(heap, (t + 1 + (i * 31 + t) % 97, peer.n % _OBJECTS))
    return time.perf_counter() - start
