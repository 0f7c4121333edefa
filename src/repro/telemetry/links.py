"""Causal link records: the raw material of the critical-path analyzer.

The tracer answers "what happened when"; this module answers "what paid
for what".  While a :class:`FlowRecorder` is subscribed to the fabric's
probe bus (see ``Telemetry.enable_links`` / ``Cluster.enable_reporting``
and :mod:`repro.telemetry.probes`), three kinds of record accumulate:

* **flows** — one per posted work request, forming the causal DAG: the
  ``prev`` edge chains WRs on the same QP (FIFO order), the ``trigger``
  edge points from a credit-return WR back to the data flow whose buffer
  release produced it.  Posting and delivery timestamps give per-message
  latencies.
* **pipe intervals** — every resource-occupancy interval of a NIC
  processor, host link, or switch trunk, split into its base
  (serialization / WR processing) and penalty (QP-context-cache miss,
  payload-DMA fetch) components, plus how long the unit waited behind
  the pipe's FIFO backlog.
* **stalls** — endpoint-visible waiting: credit stalls, free-buffer
  waits, receiver data waits, RNR backoff.

Recording is append-only and never touches the event heap, RNG, or any
process state, so enabling it cannot perturb simulated time — the same
guarantee the tracer gives.  All records share one :class:`TraceBudget`;
when it runs dry the recorder degrades by dropping records (flows come
back as id ``0``) instead of raising, and the attribution in
``repro.obs`` simply explains less of the window.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.trace import TraceBudget

__all__ = ["FlowRecord", "PipeInterval", "StallInterval", "FlowRecorder",
           "DEFAULT_LINK_RECORDS"]

#: default budget for link records (flows + intervals + stalls combined).
DEFAULT_LINK_RECORDS = 2_000_000


class FlowRecord:
    """One message lifecycle: WR post through delivery."""

    __slots__ = ("id", "kind", "src", "dst", "size", "posted_ns",
                 "delivered_ns", "prev", "trigger")

    def __init__(self, flow_id: int, kind: str, src: int, dst: int,
                 size: int, posted_ns: int, prev: int, trigger: int):
        self.id = flow_id
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size = size
        self.posted_ns = posted_ns
        self.delivered_ns: Optional[int] = None
        #: previous flow posted on the same QP (FIFO predecessor).
        self.prev = prev
        #: data flow whose buffer release caused this (credit) flow.
        self.trigger = trigger


class PipeInterval:
    """One occupancy interval of a rate pipe, decomposed by cause.

    ``kind`` is one of ``proc`` (NIC WR processor), ``egress`` /
    ``ingress`` (host links), ``trunk`` (switch port).  The interval
    spans ``[start, start + base_ns + penalty_ns + extra_ns)``:
    ``base_ns`` is serialization or baseline WR processing,
    ``penalty_ns`` a QP-context-cache miss, ``extra_ns`` the payload DMA
    fetch of a non-inlined Write.  ``waited_ns`` is how long the unit
    queued behind the pipe's backlog before ``start``.
    """

    __slots__ = ("kind", "owner", "start", "base_ns", "penalty_ns",
                 "extra_ns", "waited_ns", "flow")

    def __init__(self, kind: str, owner, start: int, base_ns: int,
                 penalty_ns: int, extra_ns: int, waited_ns: int, flow: int):
        self.kind = kind
        self.owner = owner
        self.start = start
        self.base_ns = base_ns
        self.penalty_ns = penalty_ns
        self.extra_ns = extra_ns
        self.waited_ns = waited_ns
        self.flow = flow


class StallInterval:
    """One endpoint-visible wait (credit-stall, free-wait, data-wait...)."""

    __slots__ = ("node", "ep", "kind", "start", "duration")

    def __init__(self, node: int, ep: int, kind: str, start: int,
                 duration: int):
        self.node = node
        self.ep = ep
        self.kind = kind
        self.start = start
        self.duration = duration


class FlowRecorder:
    """Accumulates flow/interval/stall records for one cluster run."""

    def __init__(self, sim, budget: Optional[TraceBudget] = None):
        self.sim = sim
        self.budget = budget if budget is not None else TraceBudget(
            DEFAULT_LINK_RECORDS)
        self.flows: Dict[int, FlowRecord] = {}
        self.pipes: List[PipeInterval] = []
        self.stalls: List[StallInterval] = []
        #: set when the budget ran dry and records were dropped.
        self.truncated = False
        #: one-shot trigger edge: set by the ``credit_return`` probe right
        #: before the receiver returns credit; consumed by the next flow
        #: on the same synchronous call chain (release -> post_send).
        self.pending_trigger = 0
        self._next_flow = 1
        #: id(buffer) -> data flow last delivered into that buffer.
        self._buffer_flow: Dict[int, int] = {}
        #: QPN -> last flow posted on it (the FIFO ``prev`` edge; QPNs
        #: are never reused within a cluster).
        self._last_flow: Dict[int, int] = {}

    def _take(self) -> bool:
        """Reserve one record from the budget; False (and truncated)
        when it ran dry."""
        if self.budget.take(1):
            return True
        self.truncated = True
        return False

    # -- probe subscriptions (see repro.telemetry.probes) -----------------

    def on_wr_post(self, qp, wr, error) -> None:
        """Stamp an accepted send WR with a new flow (0 over budget), of
        the kind tagged in a tuple ``wr_id`` ("data", "credit"...), else
        its opcode; both execution paths see identical ids."""
        opcode = getattr(wr, "opcode", None)
        if error is not None or opcode is None:  # rejected, or a Receive
            return
        trigger = self.pending_trigger
        self.pending_trigger = 0
        wr.flow = 0
        if not self._take():
            return
        wid = wr.wr_id
        if type(wid) is tuple and wid and isinstance(wid[0], str):
            kind = wid[0]
        else:
            kind = str(opcode.value)
        peer = qp.peer
        dst = peer.node_id if peer is not None else max(wr.dest.node_id, 0)
        flow = wr.flow = self._next_flow
        self._next_flow += 1
        self.flows[flow] = FlowRecord(
            flow, kind, qp.ctx.node_id, dst, wr.length, self.sim.now,
            self._last_flow.get(qp.qpn, 0), trigger)
        self._last_flow[qp.qpn] = flow

    def on_flow_deliver(self, flow: int, buf) -> None:
        """Stamp delivery time; remember which buffer now holds the flow."""
        if not flow:
            return
        record = self.flows.get(flow)
        if record is not None:
            record.delivered_ns = self.sim.now
        self._buffer_flow[id(buf)] = flow

    def on_credit_return(self, buf) -> None:
        """The next credit flow is triggered by the data flow that
        occupied the freed ``buf``."""
        self.pending_trigger = self._buffer_flow.get(id(buf), 0)

    def on_flow_stall(self, node_id: int, ep_id: int, qpn: int, kind: str,
                      start: int, duration: int) -> None:
        if duration > 0 and self._take():
            self.stalls.append(StallInterval(node_id, ep_id, kind, start,
                                             duration))

    def on_pipe_occupy(self, kind: str, owner, busy_until: int,
                       base_ns: int, penalty_ns: int, extra_ns: int, flow,
                       nbytes: int) -> None:
        if flow is None:  # not a work request (the MPI progress engine)
            return
        if kind == "trunk":
            owner = owner.name
        if self._take():
            now = self.sim.now
            self.pipes.append(PipeInterval(
                kind, owner, max(busy_until, now), base_ns, penalty_ns,
                extra_ns, max(0, busy_until - now), flow))

    # -- accounting --------------------------------------------------------

    @property
    def dropped_records(self) -> int:
        return self.budget.dropped

    @property
    def recorded(self) -> int:
        return len(self.flows) + len(self.pipes) + len(self.stalls)
