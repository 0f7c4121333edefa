"""The probe bus: the one instrumentation mechanism of the stack.

The tracer, the causal link recorder, the runtime sanitizer, the
per-tenant quota arbiter and the service's QP-cache-miss attribution all
subscribe to one :class:`Probes` object created with each
:class:`~repro.fabric.network.Fabric`.  Layer objects keep the reference
they captured when built, so a late subscription reaches them without
walking the object graph.  Every emitting site reads::

    hook = probes.wr_post
    if hook is not None:
        hook(qp, wr, error)

A point is ``None`` while nothing listens, the subscriber's bound method
with one listener, and a fan-out calling listeners in subscription
order with several.  A subscriber's exception propagates to
the site: that is how the quota arbiter vetoes a creation.  The points,
sites and subscribers are tabulated in DESIGN.md ("Probe bus").
"""

from __future__ import annotations

import functools
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    get_type_hints,
)

__all__ = ["POINTS", "Probes", "DETACHED"]

T = TypeVar("T")
Hook = Optional[Callable[..., None]]


def _fan_out(hooks: Tuple[Callable[..., None], ...]) -> Callable[..., None]:
    """Several subscribers of one point, called in subscription order."""
    def fan_out(*args: Any) -> None:
        for hook in hooks:
            hook(*args)
    return fan_out


class Probes:
    """The probe points of one fabric and their subscribers.

    Each annotated attribute below is one point; the comment gives the
    arguments its hook is called with.
    """

    wr_post: Hook         # (qp, wr, error): error is the verbs rejection
    wr_complete: Hook     # (qp, wr, t0): a send-queue WR posted at t0 ended
    cq_push: Hook         # (cq, wc): before the CQ accepts wc
    cq_consume: Hook      # (cq, wc): the application took wc off the CQ
    mr_reg: Hook          # (node_id, tenant, mr): memory registered
    mr_dereg: Hook        # (node_id, tenant, mr): memory deregistered
    mr_error: Hook        # (mr, kind, addr): an access the verbs layer rejects
    buffer_write: Hook    # (buf, op): the application rewrote a buffer
    qp_create: Hook       # (node_id, tenant, qp): QP created
    qp_destroy: Hook      # (node_id, tenant, qp): QP destroyed
    qp_miss: Hook         # (node_id, qpn): NIC QP-context cache miss
    pipe_occupy: Hook     # (kind, owner, busy_until, base_ns, penalty_ns,
                          # extra_ns, flow, nbytes): before a pipe is
                          # occupied (flow None: not a work request)
    credit_issue: Hook    # (conn, value, node_id): receiver advertises credit
    credit_consume: Hook  # (ep, conn): sender spent one credit
    credit_return: Hook   # (buf): receiver returns credit for freed buf
    ring_produce: Hook    # (qp, cursor): value produced into a remote ring
    ring_consume: Hook    # (board, base, key, value): value reached a board
    flow_deliver: Hook    # (flow, buf): received data handed to the inbox
    flow_stall: Hook      # (node_id, ep_id, qpn, kind, start, duration)
    stage_plan: Hook      # (job_name, plan): the service planned a stage

    def __init__(self) -> None:
        for point in POINTS:
            setattr(self, point, None)
        self._hooks: Dict[str, List[Callable[..., None]]] = {}
        self._subscribers: List[Any] = []

    def subscribe(self, point: str, hook: Callable[..., None]) -> None:
        """Call ``hook`` at every emission of ``point``."""
        if point not in POINTS:
            raise ValueError(f"unknown probe point {point!r}; known: "
                             f"{', '.join(POINTS)}")
        if self is DETACHED:
            raise ValueError("cannot subscribe to the bus of an object "
                             "built outside a fabric")
        self._hooks.setdefault(point, []).append(hook)
        self._publish(point)

    def unsubscribe(self, point: str, hook: Callable[..., None]) -> None:
        """Stop calling ``hook`` at ``point`` (ValueError if absent)."""
        self._hooks.get(point, []).remove(hook)
        self._publish(point)

    def _publish(self, point: str) -> None:
        hooks = self._hooks.get(point)
        if not hooks:
            value: Hook = None
        elif len(hooks) == 1:
            value = hooks[0]
        else:
            value = _fan_out(tuple(hooks))
        setattr(self, point, value)

    def attach(self, subscriber: T) -> T:
        """Subscribe every ``on_<point>`` method of ``subscriber``.
        Idempotent for an already attached subscriber."""
        if subscriber not in self._subscribers:
            for point in _points_of(type(subscriber)):
                self.subscribe(point, getattr(subscriber, "on_" + point))
            self._subscribers.append(subscriber)
        return subscriber

    def detach(self, subscriber: Any) -> None:
        """Undo :meth:`attach`."""
        self._subscribers.remove(subscriber)
        for point in _points_of(type(subscriber)):
            self.unsubscribe(point, getattr(subscriber, "on_" + point))

    def attached(self, kind: Type[T]) -> Optional[T]:
        """The first attached subscriber that is a ``kind``, or None."""
        for subscriber in self._subscribers:
            if isinstance(subscriber, kind):
                return subscriber
        return None


#: every probe point, in declaration order.
POINTS: Tuple[str, ...] = tuple(get_type_hints(Probes))

@functools.cache
def _points_of(cls: type) -> Tuple[str, ...]:
    """The points ``cls`` has an ``on_<point>`` method for (cached:
    every cluster set-up attaches)."""
    return tuple(point for point in POINTS if hasattr(cls, "on_" + point))


#: the bus of verbs objects built outside a fabric (bare test doubles);
#: nothing can subscribe to it, so every point stays ``None``.
DETACHED = Probes()
