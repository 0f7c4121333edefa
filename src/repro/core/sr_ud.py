"""RDMA Send/Receive over Unreliable Datagram (§4.4.2, Figure 6).

A *single* Queue Pair per endpoint communicates with every other node —
the property that keeps the design's footprint at Θ(1) QPs and makes it
scale (Table 1, Figs 10-11).  The price is software error handling:

* Messages are capped at the MTU (4 KiB) and may arrive out of order.
* The same stateless credit protocol as §4.4.1 synchronizes sender and
  receiver, but since UD supports no RDMA Write, credit returns travel as
  small datagrams carrying the absolute credit value.  Because the value
  is absolute, reordered or lost credit messages are superseded by the
  next one (the receiver additionally re-advertises credit on a slow
  keepalive so a lost final credit cannot wedge the sender).
* End of stream is detected by *message counting*: the sender counts
  datagrams per destination and ships the total in a final marker; the
  receiver compares totals with its own counts, waits up to the drain
  timeout for stragglers, and declares a network error (query restart)
  if they never reconcile — the set-oriented insight that lets a database
  use UD without a reorder buffer (§1, §4.4.2).

The credited send/release algorithms live in the shared transport runtime
(:mod:`repro.core.transport.runtime`); this module is the UD posting
policy: one shared QP, address handles per peer, credit datagrams, and
the message-counting end-of-stream machinery.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.endpoint import (
    EndpointConfig,
    Frame,
    FrameCarrier,
    ShuffleNetworkError,
)
from repro.core.transport.connections import PeerConnection
from repro.core.transport.credit import (
    CREDIT_MSG_BYTES,
    CreditDatagramPort,
    grant_credit,
)
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.registry import register_endpoint_kind
from repro.core.transport.runtime import (
    CreditedReceiveEndpoint,
    CreditedSendEndpoint,
    ensure_ud_message_size,
)
from repro.memory import Buffer
from repro.sim import Notify
from repro.verbs.cm import EndpointRegistry, create_ah, setup_ud_qp
from repro.verbs.constants import Opcode, QPType
from repro.verbs.device import VerbsContext
from repro.verbs.wr import SendWR

__all__ = ["SRUDSendEndpoint", "SRUDReceiveEndpoint"]


class SRUDSendEndpoint(CreditedSendEndpoint):
    """SEND endpoint using RDMA Send over Unreliable Datagram."""

    transport = "SQ/SR"

    @classmethod
    def protocol_model(cls, bound):
        """Model-checker hook: credited two-sided flow over the one
        shared UD QP — lossy datagram credits with keepalive, message
        counting against the final's total, and the drain timeout
        (§4.4.2)."""
        from repro.analysis.model.protocols import CreditProtocolModel
        from repro.verbs.qp import fault_actions
        return CreditProtocolModel(
            "SR_UD", bound, credit=CreditDatagramPort.model(),
            faults=fault_actions(QPType.UD))

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int]):
        ensure_ud_message_size(ctx, config)
        super().__init__(ctx, endpoint_id, config, destinations,
                         num_groups, peers)
        #: receiving endpoint id -> connection (credit datagrams carry the
        #: receiver's endpoint id, not the node id).
        self._conn_by_peer: Dict[int, PeerConnection] = {}
        self.qp = None
        self._credit_in: CreditDatagramPort = None

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        # The single shared UD queue aggregates every peer's credit-receive
        # slots, so size it to the device limit rather than the default
        # (8 slots x 1023 peers overflows 4096 at mesoscale).
        self.qp = self.ctx.create_qp(
            QPType.UD, self.cq, self.cq,
            max_recv_wr=self.ctx.config.max_qp_depth,
            tenant=self.config.tenant)
        yield from setup_ud_qp(self.ctx, self.qp)
        for dest in self.destinations:
            conn = self.conns[dest] = PeerConnection(dest)
            conn.notify = Notify(self.sim)
        yield from self.provision_send_pool()
        # Small receive slots for incoming credit datagrams.
        self._credit_in = CreditDatagramPort(self, len(self.destinations))
        self._credit_in.post_recv_slots()
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn": self.qp.qpn,
        })

    def connect(self, registry: EndpointRegistry):
        for dest in self.destinations:
            conn = self.conns[dest]
            info = registry.lookup_endpoint(self.peers[dest])
            conn.ah = yield from create_ah(self.ctx, dest, info["qpn"])
            conn.credit = info["initial_credit"]
            self._conn_by_peer[self.peers[dest]] = conn
        CompletionDispatcher(self) \
            .on(Opcode.SEND, self.data_recycler()) \
            .on(Opcode.RECV, self._on_credit).start()

    def _on_credit(self, wc) -> None:
        """Apply a credit-datagram arrival and recycle its receive slot."""
        buf: Buffer = wc.wr_id
        frame: Frame = buf.payload
        if frame.kind == "credit":
            conn = self._conn_by_peer.get(frame.src_endpoint)
            if conn is not None:
                grant_credit(conn, frame.credit)
        self._credit_in.repost(buf)

    # -- UD posting policy -------------------------------------------------

    def _post_data(self, conn: PeerConnection, buf: Buffer,
                   frame: Frame) -> None:
        self.qp.post_send(SendWR(
            wr_id=("data", buf), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=buf.length, dest=conn.ah,
        ))

    def _post_final(self, conn: PeerConnection, dest: int,
                    frame: Frame) -> None:
        self.qp.post_send(SendWR(
            wr_id=("final", dest), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=0, dest=conn.ah,
            signaled=False,
        ))


class SRUDReceiveEndpoint(CreditedReceiveEndpoint):
    """RECEIVE endpoint using RDMA Receive over Unreliable Datagram."""

    transport = "SQ/SR"

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig,
                 sources: Sequence[Tuple[int, int]]):
        ensure_ud_message_size(ctx, config)
        super().__init__(ctx, endpoint_id, config, sources)
        self.qp = None
        self._credit_out: CreditDatagramPort = None

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        # One shared queue holds every source's posted data buffers; use
        # the device-limit depth so mesoscale source counts fit.
        self.qp = self.ctx.create_qp(
            QPType.UD, self.cq, self.cq,
            max_recv_wr=self.ctx.config.max_qp_depth,
            tenant=self.config.tenant)
        yield from setup_ud_qp(self.ctx, self.qp)
        per_link = self.config.buffers_per_link
        yield from self.provision_recv_pool()
        for buf in self.pool.buffers:
            self.qp.post_recv_buffer(buf, self.config.message_size)
        for src_node, src_ep in self.sources:
            conn = self.conns[src_ep] = PeerConnection(src_node, src_ep)
            conn.posted = per_link
        # Tiny buffers for outgoing credit datagrams; they complete fast,
        # so a small rotation per source suffices.
        self._credit_out = CreditDatagramPort(self, len(self.sources))
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn": self.qp.qpn,
            "initial_credit": per_link,
        })

    def connect(self, registry: EndpointRegistry):
        for src_node, src_ep in self.sources:
            conn = self.conns[src_ep]
            info = registry.lookup_endpoint(src_ep)
            conn.ah = yield from create_ah(self.ctx, src_node, info["qpn"])
        CompletionDispatcher(self).on(Opcode.RECV, self._on_receive).start()
        self.sim.process(
            self._credit_keepalive(), name=f"sr-ud-keepalive-{self.endpoint_id}")

    # -- data path ---------------------------------------------------------------

    def _on_receive(self, wc) -> None:
        buf: Buffer = wc.wr_id
        frame: Frame = buf.payload
        conn = self.conns.get(frame.src_endpoint)
        if conn is None:
            # Stray datagram from an unknown endpoint: drop it.
            buf.reset()
            self.qp.post_recv_buffer(buf, self.config.message_size)
            return
        conn.received += 1
        if frame.kind == "data":
            buf.deposit(frame.payload, frame.length)
            self._deliver(frame.src_endpoint, frame.remote_addr, buf,
                          flow=wc.flow)
        elif frame.kind == "final":
            conn.expected = frame.total
            buf.reset()
            self.qp.post_recv_buffer(buf, self.config.message_size)
        self._check_link_complete(conn)

    def _check_link_complete(self, conn: PeerConnection) -> None:
        if conn.expected is None:
            return
        if conn.received >= conn.expected:
            self._source_depleted(conn.endpoint)
        elif not conn.draining:
            # Out-of-order delivery means stragglers are *common* at end
            # of stream; give them the drain window before declaring loss.
            conn.draining = True
            self.sim.process(
                self._drain_watch(conn),
                name=f"sr-ud-drain-{self.endpoint_id}-{conn.endpoint}")

    def _drain_watch(self, conn: PeerConnection):
        yield int(self.config.drain_timeout_ns)
        if conn.expected is not None and conn.received < conn.expected:
            self._fail(ShuffleNetworkError(
                f"endpoint {self.endpoint_id}: source {conn.endpoint} "
                f"sent {conn.expected} messages but only {conn.received} "
                f"arrived within the drain timeout — restarting the query"
            ))

    def _credit_keepalive(self):
        """Periodically re-advertise absolute credit to active sources.

        Credit datagrams can be lost; because values are absolute this
        retransmission is idempotent and unwedges a starved sender.
        """
        interval = max(1, int(self.config.drain_timeout_ns) // 4)
        while self._active_sources:
            yield interval
            for src_ep in list(self._active_sources):
                self._credit_out.post_credit(self.conns[src_ep])

    # -- UD posting policy -------------------------------------------------

    def _repost(self, conn: PeerConnection, local: Buffer) -> None:
        self.qp.post_recv_buffer(local, self.config.message_size)

    def _return_credit(self, conn: PeerConnection) -> None:
        self._credit_out.post_credit(conn)


register_endpoint_kind(
    "SR_UD", SRUDSendEndpoint, SRUDReceiveEndpoint, uses_ud=True,
    description="Send/Receive over UD, credit datagrams + "
                "message counting (§4.4.2)")
