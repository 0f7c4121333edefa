"""Runtime toggle for flow-level packet trains in the fabric.

With trains enabled (the default), the back-to-back MTU packets of one
message traverse every pipe of the fabric as a single **packet train**:
one serialization charge, one completion event — the flow-level model
that makes mesoscale runs (hundreds to a thousand nodes) affordable.

Set ``REPRO_TRAINS=0`` to select the per-packet oracle: each pipe
schedules one completion tick per MTU packet of the train, with the
train's serialization time distributed over integer packet boundaries
(packet ``i`` of ``n`` lands at ``start + (ser * i) // n``; fixed
per-item overhead rides on the last packet, so the final tick falls
exactly at the pipe's ``busy_until``).  Because pipes are FIFO-serial
and every intermediate tick is a no-op, the two modes produce
bit-identical end times, metrics and critical-path attribution — the
property asserted per endpoint design and per topology preset by
``tests/test_train_determinism.py``.

Consumers read the flag once at construction time
(:class:`~repro.sim.primitives.RatePipe` instances created by the NIC
and the topology), so flipping the variable mid-simulation has no
effect; tests and benchmarks can instead flip
``Fabric.use_packet_oracle()`` on a quiesced fabric.
"""

from __future__ import annotations

import os

__all__ = ["enabled"]

_FALSEY = ("0", "false", "no", "off", "")


def enabled(default: bool = True) -> bool:
    """Are packet trains on?  Honors the ``REPRO_TRAINS`` env var."""
    value = os.environ.get("REPRO_TRAINS")
    if value is None:
        return default
    return value.strip().lower() not in _FALSEY
