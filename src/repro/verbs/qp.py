"""Queue Pairs: the RC and UD transport state machines.

The semantics follow §2.2 of the paper:

* **Reliable Connection** — connected one-to-one, reliable, ordered.
  A Send that arrives before a Receive has been posted stalls the
  connection (receiver-not-ready) until one is posted; the sender's
  completion is generated only after the hardware ack returns.  Messages
  up to 1 GiB; RDMA Read and Write supported.
* **Unreliable Datagram** — connectionless; one QP talks to any other.
  No acks: the send completion fires as soon as the local NIC has drained
  the buffer.  Messages are capped at the MTU, may be delivered out of
  order, a Send with no matching Receive at the destination is *silently
  dropped*, and loss injection can discard packets in flight.

All data movement costs flow through the NIC model (processing engine with
the QP-context cache, egress/ingress serialization) so every design
trade-off in the paper's Figure 2 is exercised by these code paths.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.fabric.packet import Packet, make_train
from repro.sim import Event, Queue
from repro.verbs.constants import (
    MAX_RC_MSG,
    MCAST_NODE,
    AddressHandle,
    Opcode,
    QPState,
    QPType,
    VerbsError,
    WCStatus,
)
from repro.verbs.cq import CompletionQueue, WorkCompletion
from repro.verbs.wr import RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.device import VerbsContext

__all__ = ["QP_FAULT_ACTIONS", "QueuePair", "fault_actions"]

#: fault transitions a transport type exposes to the protocol model
#: checker (repro.analysis.model).  RC retransmits in hardware — the
#: only protocol-visible fault is the whole QP entering ERROR (flushed
#: completions, dead connection).  UD additionally drops individual
#: messages in flight, the loss the §4.4.2 software error handling
#: (absolute credits, keepalive, message counting) exists to absorb.
QP_FAULT_ACTIONS = {
    QPType.RC: ("qp_error",),
    QPType.UD: ("message_loss", "qp_error"),
}


def fault_actions(qp_type: QPType):
    """The fault transitions the model checker explores for ``qp_type``."""
    return QP_FAULT_ACTIONS[qp_type]


class QueuePair:
    """One Queue Pair (send queue + receive queue)."""

    def __init__(self, ctx: "VerbsContext", qp_type: QPType,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 max_send_wr: int = 1024, max_recv_wr: int = 4096):
        config = ctx.config
        if max_send_wr > config.max_qp_depth or max_recv_wr > config.max_qp_depth:
            raise VerbsError(
                f"queue depth exceeds hardware limit {config.max_qp_depth}"
            )
        self.ctx = ctx
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.qpn = ctx._assign_qpn(self)
        self.probes = ctx.probes
        #: owning tenant (service-layer accounting); None outside the
        #: multi-tenant service.
        self.tenant: Optional[str] = None
        self.state = QPState.INIT
        self._peer: Optional[AddressHandle] = None
        # RC receives queue up and Sends block on them (RNR); the FIFO
        # getter order of Queue preserves in-order delivery.
        self._rc_recvs = Queue(ctx.sim)
        # UD receives are matched non-blocking; unmatched Sends drop.
        self._ud_recvs: Deque[RecvWR] = deque()
        self._recv_posted = 0
        self._send_outstanding = 0
        self.sends_posted = 0
        self.recvs_posted = 0
        self.ud_drops = 0
        #: receiver-not-ready events: a Send arrived before any Receive
        #: was posted, stalling the connection (telemetry surfaces these
        #: because the credit protocol exists to keep them at zero).
        self.rnr_events = 0
        self.rnr_stall_ns = 0

    # -- state transitions -------------------------------------------------

    @property
    def peer(self) -> Optional[AddressHandle]:
        return self._peer

    def connect(self, remote: AddressHandle) -> None:
        """Transition an RC QP to ready-to-send, bound to ``remote``.

        Timing for the out-of-band handshake is charged by the connection
        manager (:mod:`repro.verbs.cm`), not here.
        """
        if self.qp_type is not QPType.RC:
            raise VerbsError("connect() applies to Reliable Connection QPs only")
        if self.state is not QPState.INIT:
            raise VerbsError(f"cannot connect QP in state {self.state}")
        self._peer = remote
        self.state = QPState.RTS

    def activate(self) -> None:
        """Transition a UD QP to ready-to-send (no peer binding)."""
        if self.qp_type is not QPType.UD:
            raise VerbsError("activate() applies to Unreliable Datagram QPs only")
        if self.state is not QPState.INIT:
            raise VerbsError(f"cannot activate QP in state {self.state}")
        self.state = QPState.RTS

    def fault_actions(self):
        """Fault transitions the model checker explores for this QP's
        transport type (see :data:`QP_FAULT_ACTIONS`)."""
        return QP_FAULT_ACTIONS[self.qp_type]

    # -- posting -------------------------------------------------------------

    def post_recv(self, wr: RecvWR) -> None:
        """``ibv_post_recv``: queue a receive buffer."""
        error = None
        if self.state not in (QPState.INIT, QPState.RTS):
            error = f"cannot post receive in state {self.state}"
        elif self._recv_posted >= self.max_recv_wr:
            error = f"receive queue full (max_recv_wr={self.max_recv_wr})"
        hook = self.probes.wr_post
        if hook is not None:
            hook(self, wr, error)
        if error is not None:
            raise VerbsError(error)
        self._recv_posted += 1
        self.recvs_posted += 1
        if self.qp_type is QPType.RC:
            self._rc_recvs.put(wr)
        else:
            self._ud_recvs.append(wr)

    def post_recv_buffer(self, buf, length: int) -> None:
        """Post ``buf`` as a Receive identified by the buffer itself —
        the repost idiom of every endpoint's RELEASE path."""
        self.post_recv(RecvWR(wr_id=buf, buffer=buf, length=length))

    def post_send(self, wr: SendWR) -> None:
        """``ibv_post_send``: enqueue a Send / Read / Write work request.

        Returns immediately (the verb is asynchronous); completion is
        reported through the send CQ if ``wr.signaled``.
        """
        error = self._send_error(wr)
        hook = self.probes.wr_post
        if hook is not None:
            hook(self, wr, error)
        if error is not None:
            raise VerbsError(error)
        self._send_outstanding += 1
        self.sends_posted += 1
        # Every verb runs as a flat callback chain: no process per WR.
        if self.qp_type is QPType.UD:
            self._ud_send(wr)
        elif wr.opcode is Opcode.SEND:
            self._rc_send(wr)
        elif wr.opcode is Opcode.READ:
            self._rc_read(wr)
        else:
            self._rc_write(wr)

    def _send_error(self, wr: SendWR) -> Optional[str]:
        """Why ``ibv_post_send`` must reject ``wr``, or None."""
        if self.state is not QPState.RTS:
            return f"cannot post send in state {self.state}"
        if self._send_outstanding >= self.max_send_wr:
            return f"send queue full (max_send_wr={self.max_send_wr})"
        if self.qp_type is QPType.UD:
            if wr.opcode is not Opcode.SEND:
                return "Unreliable Datagram supports only Send/Receive (§2.2.2)"
            if wr.dest is None:
                return "UD Send requires a destination address handle"
            if wr.length > self.ctx.config.mtu:
                return (f"UD message of {wr.length} B exceeds MTU "
                        f"{self.ctx.config.mtu}")
        elif self._peer is None:
            return "RC QP is not connected"
        elif wr.length > MAX_RC_MSG:
            return f"RC message of {wr.length} B exceeds 1 GiB"
        elif wr.opcode is Opcode.READ and wr.length > wr.buffer.capacity:
            return (f"RDMA Read of {wr.length} B exceeds the local buffer "
                    f"capacity {wr.buffer.capacity}")
        return None

    # -- completion helpers ----------------------------------------------------

    def _complete_send(self, wr: SendWR, t0: int) -> None:
        """Retire ``wr``, posted at ``t0``: free its send-queue slot and
        push its completion if signaled."""
        self._send_outstanding -= 1
        if wr.signaled:
            self.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id, opcode=wr.opcode, byte_len=wr.length,
                qpn=self.qpn, flow=wr.flow,
            ))
        hook = self.probes.wr_complete
        if hook is not None:
            hook(self, wr, t0)

    def _deposit(self, rwr: RecvWR, packet: Packet) -> None:
        """Copy an arriving message into the posted receive buffer."""
        if rwr.length < packet.length:
            raise VerbsError(
                f"receive buffer of {rwr.length} B too small for "
                f"{packet.length} B message"
            )
        if rwr.buffer is not None:
            rwr.buffer.deposit(packet.payload, packet.length)
        self.recv_cq.push(WorkCompletion(
            wr_id=rwr.wr_id, opcode=Opcode.RECV, byte_len=packet.length,
            qpn=self.qpn, src_node=packet.src_node, src_qpn=packet.src_qpn,
            imm=packet.meta.get("imm"), flow=packet.flow,
        ))

    # -- Reliable Connection data paths -----------------------------------------

    def _rc_accept(self, wr: SendWR, remote_qp: "QueuePair", rwr: RecvWR,
                   packet: Packet, rnr_t0: int) -> Packet:
        """Deposit an arrived RC Send into the Receive it waited for since
        ``rnr_t0`` (a receiver-not-ready stall if time passed); returns
        the ack train."""
        ctx = self.ctx
        peer = self._peer
        assert peer is not None  # post_send validated the connection
        stalled = ctx.sim.now - rnr_t0
        if stalled:
            remote_qp.rnr_events += 1
            remote_qp.rnr_stall_ns += stalled
            hook = self.probes.flow_stall
            if hook is not None:
                hook(peer.node_id, -1, peer.qpn, "rnr-stall", rnr_t0,
                     stalled)
        remote_qp._recv_posted -= 1
        remote_qp._deposit(rwr, packet)
        return self._ack_train(wr)

    def _ack_train(self, wr: SendWR) -> Packet:
        """The peer's hardware ack of an RC work request."""
        peer = self._peer
        assert peer is not None  # post_send validated the connection
        return make_train(
            self.ctx.config, src_node=peer.node_id, dst_node=self.ctx.node_id,
            src_qpn=peer.qpn, dst_qpn=self.qpn, kind="ACK",
            length=0, wire_bytes=self.ctx.config.rc_ack_bytes, flow=wr.flow,
        )

    def _send_train(self, wr: SendWR, dst_node: int, dst_qpn: int,
                    transport: str) -> Packet:
        """The wire train carrying a Send work request."""
        return make_train(
            self.ctx.config, src_node=self.ctx.node_id, dst_node=dst_node,
            src_qpn=self.qpn, dst_qpn=dst_qpn, kind="SEND",
            length=wr.length, transport=transport,
            payload=None if wr.buffer is None else wr.buffer.payload,
            meta={"imm": wr.imm}, flow=wr.flow,
        )

    def _rc_send(self, wr: SendWR) -> None:
        """An RC Send as a flat callback chain: NIC processing, the route
        to the peer, a wait for a posted Receive (receiver-not-ready if
        none is there yet), the deposit, and the hardware ack back."""
        ctx = self.ctx
        sim = ctx.sim
        peer = self._peer
        assert peer is not None  # post_send validated the connection
        t0 = sim.now

        def start() -> None:
            ctx.nic.submit_wr(self.qpn, after_wr, flow=wr.flow)

        def after_wr() -> None:
            ctx.fabric.route(
                self._send_train(wr, peer.node_id, peer.qpn, "RC"),
            ).add_callback(arrived)

        def arrived(arrival: Event) -> None:
            packet = arrival.value
            remote = ctx.peer_context(peer.node_id)
            remote_qp = remote.qp(peer.qpn)
            # Receiver-not-ready: stall until a Receive is posted.  (The
            # paper's credit protocol exists precisely so this never
            # happens.)
            rnr_t0 = sim.now

            def got_recv(evt: Event) -> None:
                ctx.fabric.route(self._rc_accept(
                    wr, remote_qp, evt.value, packet, rnr_t0,
                )).add_callback(acked)

            remote_qp._rc_recvs.get().add_callback(got_recv)

        def acked(_evt: Event) -> None:
            self._complete_send(wr, t0)

        sim.call_soon(start)

    def _rc_read(self, wr: SendWR) -> None:
        """An RDMA Read as a flat callback chain: NIC processing, the
        request to the peer, the remote NIC serving it (the remote CPU
        stays passive), and the response deposited locally."""
        ctx = self.ctx
        sim = ctx.sim
        config = ctx.config
        peer = self._peer
        assert peer is not None  # post_send validated the connection
        t0 = sim.now

        def start() -> None:
            ctx.nic.submit_wr(self.qpn, after_wr, flow=wr.flow)

        def after_wr() -> None:
            ctx.fabric.route(make_train(
                config, src_node=ctx.node_id, dst_node=peer.node_id,
                src_qpn=self.qpn, dst_qpn=peer.qpn, kind="READ_REQ",
                length=0, wire_bytes=config.rc_header_bytes, flow=wr.flow,
            )).add_callback(requested)

        def requested(_evt: Event) -> None:
            ctx.peer_context(peer.node_id).nic.submit_wr(
                peer.qpn, served, flow=wr.flow)

        def served() -> None:
            remote = ctx.peer_context(peer.node_id)
            mr = remote.memory.resolve(wr.remote_addr)
            payload = mr.get_object(wr.remote_addr, max(1, wr.length))
            ctx.fabric.route(make_train(
                config, src_node=peer.node_id, dst_node=ctx.node_id,
                src_qpn=peer.qpn, dst_qpn=self.qpn, kind="READ_RESP",
                length=wr.length, transport="RC", payload=payload,
                flow=wr.flow,
            )).add_callback(responded)

        def responded(arrival: Event) -> None:
            wr.buffer.deposit(arrival.value.payload, wr.length)
            self._complete_send(wr, t0)

        sim.call_soon(start)

    def _rc_write(self, wr: SendWR) -> None:
        """An RDMA Write as a flat callback chain: NIC processing, the
        route to the peer, the store into its memory region, and the
        hardware ack back."""
        ctx = self.ctx
        sim = ctx.sim
        config = ctx.config
        peer = self._peer
        assert peer is not None  # post_send validated the connection
        t0 = sim.now
        # Inlined payloads skip the extra DMA fetch of the payload [16].
        extra = 0 if wr.inline else config.nic_wr_ns

        def start() -> None:
            ctx.nic.submit_wr(self.qpn, after_wr, extra_ns=extra,
                              flow=wr.flow)

        def after_wr() -> None:
            ctx.fabric.route(make_train(
                config, src_node=ctx.node_id, dst_node=peer.node_id,
                src_qpn=self.qpn, dst_qpn=peer.qpn, kind="WRITE",
                length=max(wr.length, 8 if wr.value is not None else 0),
                transport="RC",
                payload=None if wr.buffer is None else wr.buffer.payload,
                flow=wr.flow,
            )).add_callback(arrived)

        def arrived(arrival: Event) -> None:
            remote = ctx.peer_context(peer.node_id)
            mr = remote.memory.resolve(wr.remote_addr)
            if wr.value is not None:
                mr.write_u64(wr.remote_addr, wr.value)
            else:
                mr.set_object(wr.remote_addr, arrival.value.payload,
                              max(1, wr.length))
            ctx.fabric.route(self._ack_train(wr)).add_callback(acked)

        def acked(_evt: Event) -> None:
            self._complete_send(wr, t0)

        sim.call_soon(start)

    # -- Unreliable Datagram data path ---------------------------------------

    def _ud_send(self, wr: SendWR) -> None:
        """A UD Send as a flat callback chain: NIC processing, then a
        unicast route or a multicast fan-out with :meth:`_ud_deliver` on
        every arrival; the send completes once the egress port drained.
        """
        ctx = self.ctx
        sim = ctx.sim
        dest = wr.dest
        assert dest is not None  # post_send validated the destination
        t0 = sim.now

        def start() -> None:
            ctx.nic.submit_wr(self.qpn, after_wr, flow=wr.flow)

        def after_wr() -> None:
            packet = self._send_train(wr, max(dest.node_id, 0), dest.qpn,
                                      "UD")
            egress_done = Event(sim)
            if dest.node_id == MCAST_NODE:
                # InfiniBand multicast: the switch replicates the datagram
                # to every attached QP; the sender's port is charged once.
                fanout = ctx.fabric.route_mcast(
                    packet, mgid=dest.qpn, egress_event=egress_done)
                fanout.add_callback(fan_out)
            else:
                arrival = ctx.fabric.route(
                    packet, unordered=True, lossy=True,
                    egress_event=egress_done)
                arrival.add_callback(self._ud_deliver)
            # No ack in UD: local completion once the NIC drained the
            # buffer.
            egress_done.add_callback(complete)

        def fan_out(fanout: Event) -> None:
            for leg in fanout.value:
                leg.add_callback(self._ud_deliver)

        def complete(_evt: Event) -> None:
            self._complete_send(wr, t0)

        sim.call_soon(start)

    def _ud_deliver(self, arrival: Event) -> None:
        packet = arrival.value
        if packet.dropped:
            return
        remote = self.ctx.peer_context(packet.dst_node)
        try:
            remote_qp = remote.qp(packet.dst_qpn)
        except VerbsError:
            return  # destination QP vanished; datagram evaporates
        if remote_qp.qp_type is not QPType.UD:
            return
        if not remote_qp._ud_recvs:
            # No Receive posted: the datagram is silently dropped (§2.2.1).
            remote_qp.ud_drops += 1
            return
        rwr = remote_qp._ud_recvs.popleft()
        remote_qp._recv_posted -= 1
        remote_qp._deposit(rwr, packet)
