"""RDMA Send/Receive over Reliable Connection (§4.4.1, Figure 5).

The endpoint keeps one Queue Pair per peer node (RC is connection
oriented), all associated with a single Completion Queue to amortize
polling.  Senders and receivers are synchronized through the paper's
*stateless credit* protocol:

* the receiver issues credit only after posting a Receive request, and
  transmits the **absolute** credit (total Receives posted on the
  connection so far) by an inlined RDMA Write into the sender's memory;
* the write-back is amortized over ``credit_frequency`` Receives (§5.1.1);
* the sender transmits only while ``sent < credit``.

Because credit is issued strictly after the Receive is posted, a Send can
never arrive at a receiver that has nowhere to put it — the condition the
RC transport punishes with receiver-not-ready stalls.

The credited send/release algorithms live in the shared transport runtime
(:mod:`repro.core.transport.runtime`); this module is the RC posting
policy: per-destination RC QPs, Send WRs for data, credit words written
back by inlined RDMA Writes.
"""

from __future__ import annotations

from repro.core.endpoint import Frame, FrameCarrier
from repro.core.transport.connections import (
    PeerConnection,
    rc_connect_receivers,
    rc_connect_senders,
)
from repro.core.transport.credit import (
    CreditWordBoard,
    post_credit_word,
)
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.registry import register_endpoint_kind
from repro.core.transport.runtime import (
    CreditedReceiveEndpoint,
    CreditedSendEndpoint,
)
from repro.memory import Buffer
from repro.sim import Notify
from repro.verbs.cm import EndpointRegistry
from repro.verbs.constants import Opcode, QPType
from repro.verbs.wr import SendWR

__all__ = ["SRRCSendEndpoint", "SRRCReceiveEndpoint"]


class SRRCSendEndpoint(CreditedSendEndpoint):
    """SEND endpoint using RDMA Send over Reliable Connection."""

    transport = "MQ/SR"

    @classmethod
    def protocol_model(cls, bound):
        """Model-checker hook: credited two-sided flow over per-peer RC
        QPs, with the §4.4.1 credit-word scheme."""
        from repro.analysis.model.protocols import CreditProtocolModel
        from repro.verbs.qp import fault_actions
        return CreditProtocolModel(
            "SR_RC", bound, credit=CreditWordBoard.model(),
            faults=fault_actions(QPType.RC))

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        for dest in self.destinations:
            conn = self.conns[dest] = PeerConnection(dest)
            conn.notify = Notify(self.sim)
            conn.qp = self.ctx.create_qp(QPType.RC, self.cq, self.cq,
                                         tenant=self.config.tenant)
        yield from self.provision_send_pool()
        # One credit word per destination, written remotely by receivers.
        addr_by_dest = yield from CreditWordBoard.install(self)
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn_by_dest": {d: c.qp.qpn for d, c in self.conns.items()},
            "credit_addr_by_dest": addr_by_dest,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.credit = info["initial_credit"]

        yield from rc_connect_senders(self, registry, bind)
        CompletionDispatcher(self).on(Opcode.SEND, self.data_recycler()) \
            .start()

    # -- RC posting policy -------------------------------------------------

    def _post_data(self, conn: PeerConnection, buf: Buffer,
                   frame: Frame) -> None:
        conn.qp.post_send(SendWR(
            wr_id=("data", buf), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=buf.length,
        ))

    def _post_final(self, conn: PeerConnection, dest: int,
                    frame: Frame) -> None:
        conn.qp.post_send(SendWR(
            wr_id=("final", dest), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=0, signaled=False,
        ))


class SRRCReceiveEndpoint(CreditedReceiveEndpoint):
    """RECEIVE endpoint using RDMA Receive over Reliable Connection."""

    transport = "MQ/SR"

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        per_link = self.config.buffers_per_link
        yield from self.provision_recv_pool()
        next_buffer = 0
        for src_node, src_ep in self.sources:
            conn = self.conns[src_ep] = PeerConnection(src_node, src_ep)
            conn.qp = self.ctx.create_qp(QPType.RC, self.cq, self.cq,
                                         tenant=self.config.tenant)
            for _ in range(per_link):
                buf = self.pool.buffers[next_buffer]
                next_buffer += 1
                conn.qp.post_recv_buffer(buf, self.config.message_size)
                conn.posted += 1
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn_by_source": {
                src_ep: c.qp.qpn for src_ep, c in self.conns.items()
            },
            "initial_credit": per_link,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.credit_addr = info["credit_addr_by_dest"][self.ctx.node_id]

        yield from rc_connect_receivers(self, registry, bind)
        CompletionDispatcher(self).on(Opcode.RECV, self._on_receive).start()

    def _on_receive(self, wc) -> None:
        """Route one receive completion into the application inbox."""
        buf: Buffer = wc.wr_id
        frame: Frame = buf.payload
        if frame.kind == "data":
            buf.deposit(frame.payload, frame.length)
            self._deliver(frame.src_endpoint, frame.remote_addr, buf,
                          flow=wc.flow)
        elif frame.kind == "final":
            # Repost the consumed Receive, without issuing credit: the
            # stream has ended and the sender needs none.
            conn = self.conns[frame.src_endpoint]
            buf.reset()
            conn.qp.post_recv_buffer(buf, self.config.message_size)
            self._source_depleted(frame.src_endpoint)

    # -- RC posting policy -------------------------------------------------

    def _repost(self, conn: PeerConnection, local: Buffer) -> None:
        conn.qp.post_recv_buffer(local, self.config.message_size)

    def _return_credit(self, conn: PeerConnection) -> None:
        post_credit_word(conn)


register_endpoint_kind(
    "SR_RC", SRRCSendEndpoint, SRRCReceiveEndpoint,
    description="Send/Receive over RC, stateless credit (§4.4.1)")
