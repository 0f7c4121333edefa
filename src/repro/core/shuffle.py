"""The SHUFFLE operator (§4.3.1, Algorithm 1).

A vectorized pull-based operator: each worker thread drains the child
operator, hashes every tuple to a transmission group, packs tuples into
RDMA-registered transmission buffers, and hands full buffers to the
endpoint.  Following the paper's measurement (§4.3.1, [18]), tuples are
always *copied* into registered buffers — no zero-copy — because tuples
are small; the copy cost is charged through the CPU model.

Two partitioning modes are provided:

* :func:`hash_partitioner` — real hash partitioning on a key column
  (used by the TPC-H queries and correctness tests);
* :func:`round_robin_partitioner` — assigns each child batch to the next
  group in turn.  Statistically equivalent to hashing the paper's
  uniformly-random R.a key, and what the synthetic throughput benchmarks
  use so host-side numpy work stays off the critical path.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.endpoint import DataState, SendEndpoint
from repro.core.groups import TransmissionGroups
from repro.engine.operator import Operator, OpState, concat_batches

__all__ = [
    "ShuffleOperator",
    "hash_partitioner",
    "round_robin_partitioner",
    "striped_partitioner",
]

#: Knuth multiplicative hashing constant, as used by in-memory engines.
_HASH_MULTIPLIER = 2654435761


def hash_partitioner(key_of: Callable[[np.ndarray], np.ndarray],
                     num_groups: int):
    """Partition by multiplicative hash of ``key_of(batch)`` (Alg 1 l.8).

    ``key_of`` extracts an integer key array from a batch (e.g.
    ``lambda b: b["orderkey"]``).
    """

    def partition(batch: np.ndarray) -> np.ndarray:
        keys = key_of(batch).astype(np.uint64, copy=False)
        return ((keys * np.uint64(_HASH_MULTIPLIER)) % np.uint64(1 << 32)
                % np.uint64(num_groups)).astype(np.int64)

    return partition


class round_robin_partitioner:
    """Whole-batch assignment cycling through groups.

    Coarse: an entire child batch lands on one destination, which is far
    burstier than per-tuple hashing.  Prefer :class:`striped_partitioner`
    for uniform workloads; this class remains for skew experiments.
    """

    def __init__(self, num_groups: int):
        self.num_groups = num_groups
        self._counter = 0

    def __call__(self, batch: np.ndarray) -> int:
        group = self._counter % self.num_groups
        self._counter += 1
        return group


class striped_partitioner:
    """Even split of every batch across all groups (uniform traffic).

    Per-tuple hashing of a uniformly random key sends each destination an
    equal share of every batch, with transmission buffers for all
    destinations filling in lockstep.  Striping reproduces that traffic
    pattern exactly — equal slices per group, interleaved buffer fills —
    without per-row numpy hashing on the host's critical path.  The
    SHUFFLE operator recognizes this class and splits batches by slicing.
    """

    def __init__(self, num_groups: int):
        self.num_groups = num_groups
        self._offset = 0

    def split(self, batch: np.ndarray):
        """Yields ``(group, slice)`` pairs covering the batch evenly.

        The starting group rotates between calls so remainders do not pile
        onto group 0.
        """
        n = self.num_groups
        bounds = np.linspace(0, len(batch), n + 1).astype(np.int64)
        start = self._offset
        self._offset = (self._offset + 1) % n
        for i in range(n):
            g = (start + i) % n
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                yield g, batch[lo:hi]


class _GroupAccumulator:
    """Per-(thread, group) staging area for tuples awaiting transmission."""

    __slots__ = ("chunks", "rows")

    def __init__(self):
        self.chunks: List[np.ndarray] = []
        self.rows = 0

    def append(self, arr: np.ndarray) -> None:
        if len(arr):
            self.chunks.append(arr)
            self.rows += len(arr)

    def take(self, rows: int) -> np.ndarray:
        """Remove and return exactly ``rows`` tuples (caller checks rows)."""
        taken: List[np.ndarray] = []
        need = rows
        while need > 0:
            head = self.chunks[0]
            if len(head) <= need:
                taken.append(head)
                need -= len(head)
                self.chunks.pop(0)
            else:
                taken.append(head[:need])
                self.chunks[0] = head[need:]
                need = 0
        self.rows -= rows
        batch = concat_batches(taken)
        assert batch is not None  # rows > 0 took at least one chunk
        return batch


class ShuffleOperator(Operator):
    """Algorithm 1: hash, pack, transmit.

    One ``next(tid)`` call drains the child completely (the operator is a
    pipeline breaker toward the network) and returns Depleted.  The
    endpoint array holds one endpoint in the single-endpoint (SE)
    configuration or one per thread in the multi-endpoint (ME) one;
    thread ``tid`` uses ``endpoints[tid % len(endpoints)]`` (Alg 1 l.1-4).
    """

    def __init__(self, node, child: Operator,
                 endpoints: Sequence[SendEndpoint],
                 groups: TransmissionGroups,
                 partition_fn,
                 num_threads: int):
        super().__init__(node, child)
        if not endpoints:
            raise ValueError("shuffle needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.groups = groups
        self.partition_fn = partition_fn
        self.num_threads = num_threads
        self._acc = [
            [_GroupAccumulator() for _ in range(groups.num_groups)]
            for _ in range(num_threads)
        ]
        for tid in range(num_threads):
            self.endpoints[tid % len(self.endpoints)].attach_thread()
        self.tuples_out = 0

    def _endpoint(self, tid: int) -> SendEndpoint:
        return self.endpoints[tid % len(self.endpoints)]

    def _capacity_rows(self, batch: np.ndarray) -> int:
        target = self._endpoint(0)
        itemsize = batch.dtype.itemsize
        if itemsize > target.config.message_size:
            raise ValueError(
                f"tuple of {itemsize} B exceeds the {target.config.message_size} B "
                "transmission buffer"
            )
        return max(1, target.config.message_size // itemsize)

    def next(self, tid: int):
        target = self._endpoint(tid)
        net = self.node.config
        acc = self._acc[tid]
        capacity_rows = None
        while True:
            state, batch = yield from self.child.next(tid)
            if batch is not None and len(batch):
                if capacity_rows is None:
                    capacity_rows = self._capacity_rows(batch)
                # Hash + copy into registered buffers (Alg 1 l.8-10),
                # charged per batch through the CPU cost model.
                yield self.per_tuple_cost(
                    len(batch), batch.nbytes,
                    ns_per_tuple=net.hash_ns_per_tuple,
                    ns_per_byte=net.copy_ns_per_byte,
                )
                self._scatter(acc, batch)
                self.tuples_out += len(batch)
                # Transmit every full buffer (Alg 1 l.11-13), interleaving
                # destinations the way per-tuple hashing fills buffers in
                # lockstep — one full buffer per group per pass.
                busy = True
                while busy:
                    busy = False
                    for g, bucket in enumerate(acc):
                        if bucket.rows >= capacity_rows:
                            chunk = bucket.take(capacity_rows)
                            yield from self._transmit(target, chunk, g)
                            busy = busy or bucket.rows >= capacity_rows
            if state == OpState.DEPLETED:
                break
        # Flush partial buffers, then propagate end-of-stream; the
        # endpoint emits the Depleted markers once its last attached
        # thread finishes (Alg 1 l.14-17).
        for g, bucket in enumerate(acc):
            if bucket.rows:
                chunk = bucket.take(bucket.rows)
                yield from self._transmit(target, chunk, g)
        yield from target.finish()
        return (OpState.DEPLETED, None)

    def _scatter(self, acc, batch: np.ndarray) -> None:
        if isinstance(self.partition_fn, striped_partitioner):
            for g, part in self.partition_fn.split(batch):
                acc[g].append(part)
            return
        assignment = self.partition_fn(batch)
        if np.isscalar(assignment) or isinstance(assignment, (int, np.integer)):
            acc[int(assignment)].append(batch)
            return
        order = np.argsort(assignment, kind="stable")
        sorted_batch = batch[order]
        sorted_groups = assignment[order]
        boundaries = np.searchsorted(
            sorted_groups, np.arange(self.groups.num_groups + 1))
        for g in range(self.groups.num_groups):
            lo, hi = boundaries[g], boundaries[g + 1]
            if hi > lo:
                acc[g].append(sorted_batch[lo:hi])

    def _transmit(self, target: SendEndpoint, chunk: np.ndarray, g: int):
        buf = yield from target.get_free()
        buf.fill(chunk, chunk.nbytes)
        yield from target.send(buf, self.groups[g], DataState.MORE_DATA)
