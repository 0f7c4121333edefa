"""The vectorized pull-based operator interface (§2.1).

Every operator implements ``next(tid)`` as a *process fragment*: a
generator invoked as ``state, batch = yield from op.next(tid)`` inside a
simulated worker thread.  ``tid`` selects thread-partitioned operator
state, exactly like Figure 1 of the paper.

Batches are numpy structured arrays (or None when an operator has nothing
to return with a Depleted state).  The helpers below centralize the batch
arithmetic so operators stay small.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import List, Optional

import numpy as np

__all__ = [
    "OpState",
    "Operator",
    "batch_rows",
    "batch_nbytes",
    "concat_batches",
]


class OpState(enum.IntEnum):
    """Return state of a NEXT call."""

    MORE_DATA = 0
    DEPLETED = 1


def batch_rows(batch: Optional[np.ndarray]) -> int:
    """Number of tuples in a batch (0 for None)."""
    return 0 if batch is None else len(batch)


def batch_nbytes(batch: Optional[np.ndarray]) -> int:
    """Payload size of a batch in bytes (0 for None)."""
    return 0 if batch is None else batch.nbytes


@lru_cache(maxsize=64)
def _promotes_to_itself(dtype: np.dtype) -> bool:
    """True when numpy's promotion of ``dtype`` with itself is ``dtype``
    (false for structured dtypes with padding, which promotion packs)."""
    return np.result_type(dtype, dtype) == dtype


def concat_batches(batches: List[np.ndarray]) -> Optional[np.ndarray]:
    """Concatenate batches, tolerating the empty list.

    Batches that share one dtype are joined with that ``dtype=`` named,
    which skips numpy's field-by-field promotion of structured dtypes on
    every call; mixed dtypes take the plain promoting path.
    """
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    dtype = batches[0].dtype
    if all(batch.dtype == dtype for batch in batches) and \
            _promotes_to_itself(dtype):
        return np.concatenate(batches, dtype=dtype)
    return np.concatenate(batches)


class Operator:
    """Base class for all operators.

    Subclasses override :meth:`next`.  The base class stores the cluster
    node the operator runs on (for CPU cost charging) and the child
    operator, forming the usual operator tree.
    """

    def __init__(self, node, child: Optional["Operator"] = None):
        #: the fabric Node this operator executes on.
        self.node = node
        self.sim = node.sim
        self.child = child

    def next(self, tid: int):
        """Process fragment returning ``(OpState, batch)``.

        A Depleted return means this thread will produce nothing further;
        the batch accompanying it may still hold trailing tuples.
        """
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator signature

    def cpu(self, ns: float) -> int:
        """Charge CPU time to the calling worker thread (``yield`` it)."""
        return self.node.cpu_delay(ns)

    def per_tuple_cost(self, rows: int, nbytes: int = 0,
                       ns_per_tuple: float = 0.0,
                       ns_per_byte: float = 0.0) -> int:
        """Charge a vectorized per-batch cost in one int sleep."""
        return self.node.cpu_delay(rows * ns_per_tuple + nbytes * ns_per_byte)
