"""MESQ/SR with native InfiniBand multicast — future work #3 (§7).

    "Third, we plan to specialize the MESQ/SR algorithm to use the native
    InfiniBand multicast primitive for broadcasting data.  We hypothesize
    that this will reduce the CPU cost during analytical query
    processing."

The send endpoint posts *one* Send work request per buffer for any
transmission group with more than one member: the datagram is addressed
to a multicast group the receivers' QPs joined at connection time, and
the fabric performs the replication at the last switch common to every
member's path (on the paper's single-switch platform, that one switch;
on a leaf-spine fabric, a shared trunk is crossed once before the
replication point — see ``repro.fabric.topology``).  The sender thus
pays one
``ibv_post_send`` and one egress serialization instead of ``|G|`` of
them — exactly the CPU and port-bandwidth saving the paper hypothesizes.

Flow control still operates per member (credit must be available on
*every* member before the single Send is posted), and the per-member
message counting of §4.4.2 is unchanged, so loss handling and
end-of-stream detection work exactly as in the base design.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.endpoint import DataState, Frame, FrameCarrier
from repro.core.sr_ud import SRUDReceiveEndpoint, SRUDSendEndpoint
from repro.core.transport.registry import register_endpoint_kind
from repro.memory import Buffer
from repro.verbs.cm import EndpointRegistry
from repro.verbs.constants import Opcode, mcast_ah
from repro.verbs.wr import SendWR

__all__ = ["McastSRUDSendEndpoint", "McastSRUDReceiveEndpoint"]


class McastSRUDSendEndpoint(SRUDSendEndpoint):
    """SRUD send endpoint using hardware multicast for group sends."""

    transport = "SQ/SR+MC"

    @classmethod
    def protocol_model(cls, bound):
        """Model-checker hook: like SR_UD, but a group send serves every
        member with one datagram — paying one credit and one Receive on
        each member (§4.5)."""
        from repro.analysis.model.protocols import CreditProtocolModel
        from repro.core.transport.credit import CreditDatagramPort
        from repro.verbs.constants import QPType
        from repro.verbs.qp import fault_actions
        return CreditProtocolModel(
            "SR_UD_MC", bound, credit=CreditDatagramPort.model(),
            faults=fault_actions(QPType.UD), multicast=True)

    def setup(self, registry: EndpointRegistry):
        yield from super().setup(registry)
        # The endpoint id doubles as the MGID; receivers join it.
        info = registry.lookup_endpoint(self.endpoint_id)
        info["mgid"] = self.endpoint_id

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        # The HCA does not loop a multicast datagram back to its sender,
        # so a group containing this node needs one explicit self copy.
        me = self.ctx.node_id
        others = [d for d in dests if d != me]
        if len(others) < 2:
            yield from super().send(buf, dests, state)
            return
        yield from self.lock.critical_section(self._endpoint_send_ns)
        self._pending.add(buf, 1 + (1 if me in dests else 0))
        # Per-member flow control: every destination must have credit.
        for dest in dests:
            yield from self._wait_credit(self.conns[dest])
        for dest in dests:
            self._consume_credit(self.conns[dest])
        frame = Frame(
            kind="data", state=state, src_endpoint=self.endpoint_id,
            seq=0, payload=buf.payload, length=buf.length,
            remote_addr=buf.addr,
        )
        yield self._post_wr_ns
        self.qp.post_send(SendWR(
            wr_id=("data", buf), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=buf.length,
            dest=mcast_ah(self.endpoint_id),
        ))
        # One multicast packet serves every remote member; attribute the
        # bytes to each destination for the skew telemetry.
        self.messages_sent += 1
        self.bytes_sent += buf.length
        for dest in others:
            self.bytes_by_dest[dest] = \
                self.bytes_by_dest.get(dest, 0) + buf.length
        if me in dests:
            yield self._post_wr_ns
            self.qp.post_send(SendWR(
                wr_id=("data", buf), opcode=Opcode.SEND,
                buffer=FrameCarrier(frame), length=buf.length,
                dest=self.conns[me].ah,
            ))
            self.record_send(me, buf.length)

    def _send_finals(self):
        # Finals carry per-destination totals, so they go point-to-point.
        yield from super()._send_finals()


class McastSRUDReceiveEndpoint(SRUDReceiveEndpoint):
    """SRUD receive endpoint that joins its sources' multicast groups."""

    transport = "SQ/SR+MC"

    def connect(self, registry: EndpointRegistry):
        yield from super().connect(registry)
        for _src_node, src_ep in self.sources:
            info = registry.lookup_endpoint(src_ep)
            mgid = info.get("mgid")
            if mgid is not None:
                self.ctx.mcast_attach(mgid, self.qp)


register_endpoint_kind(
    "SR_UD_MC", McastSRUDSendEndpoint, McastSRUDReceiveEndpoint,
    uses_ud=True,
    description="MESQ/SR with native InfiniBand multicast (§7 future work)")
