"""Per-peer connection state and the RC connect loops.

Every endpoint design keeps one record per peer — the Queue Pair (or UD
address handle) plus whatever its flow-control scheme tracks.  The four
designs used to declare four private ``_SendConnection``/``_RecvLink``
classes each; :class:`PeerConnection` is the single shared record, held
in the endpoint's plain ``conns`` dict (SEND endpoints key it by
destination *node* id, RECEIVE endpoints by source *endpoint* id: UD
credit frames and one-sided queue updates carry endpoint ids).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.verbs.cm import EndpointRegistry, connect_rc_pair
from repro.verbs.constants import AddressHandle
from repro.verbs.qp import QueuePair

__all__ = [
    "PeerConnection",
    "rc_connect_receivers",
    "rc_connect_senders",
]


class PeerConnection:
    """Transport state for one peer of an endpoint.

    The runtime wires ``qp``/``ah``; each credit scheme attaches the
    fields it needs (sender credit window, receiver posted count,
    FreeArr/ValidArr cursors, UD message counting).  Unused fields stay
    at their zero values.
    """

    __slots__ = (
        # wiring
        "node", "endpoint", "qp", "ah",
        # sender-side credit window (§4.4.1)
        "sent", "credit", "credit_addr", "notify",
        # receiver-side credit issue (posted Receives)
        "posted",
        # one-sided circular queues (§4.4.3): producer cursors and state
        "valid", "free", "local_arr", "pending_remote", "remote_free",
        # UD message counting (§4.4.2)
        "received", "expected", "draining",
    )

    def __init__(self, node: int, endpoint: int = -1):
        #: peer node id, and (where known) peer endpoint id.
        self.node = node
        self.endpoint = endpoint
        self.qp: Optional[QueuePair] = None
        self.ah: Optional[AddressHandle] = None
        self.sent = 0
        self.credit = 0
        self.credit_addr = 0
        self.notify = None
        self.posted = 0
        self.valid = None
        self.free = None
        self.local_arr = None
        self.pending_remote = None
        self.remote_free = None
        self.received = 0
        self.expected: Optional[int] = None
        self.draining = False


def rc_connect_senders(ep, registry: EndpointRegistry,
                       bind: Optional[Callable] = None):
    """Process fragment: run the RC handshake for every sender-side
    connection of ``ep``.

    For each destination the peer RECEIVE endpoint's bootstrap info is
    looked up, the local QP connected to the peer's per-source QP, and
    ``bind(conn, info)`` invoked so the design can capture its wiring
    (initial credit, circular-queue bases, remote free buffers).
    """
    for dest in ep.destinations:
        conn = ep.conns[dest]
        info = registry.lookup_endpoint(ep.peers[dest])
        remote_qpn = info["qpn_by_source"][ep.endpoint_id]
        yield from connect_rc_pair(
            ep.ctx, conn.qp, AddressHandle(dest, remote_qpn))
        if bind is not None:
            bind(conn, info)


def rc_connect_receivers(ep, registry: EndpointRegistry,
                         bind: Optional[Callable] = None):
    """Process fragment: run the RC handshake for every receiver-side
    connection of ``ep`` (the mirror of :func:`rc_connect_senders`)."""
    for src_node, src_ep in ep.sources:
        conn = ep.conns[src_ep]
        info = registry.lookup_endpoint(src_ep)
        remote_qpn = info["qpn_by_dest"][ep.ctx.node_id]
        yield from connect_rc_pair(
            ep.ctx, conn.qp, AddressHandle(src_node, remote_qpn))
        if bind is not None:
            bind(conn, info)
