"""The paper's credit schemes as pluggable policy objects.

Three flow-control mechanisms appear in §4.4, all built on the same
primitive — a peer deposits an absolute value into registered memory (or
a datagram) and a host-side hook reacts:

* **Inlined-value credits** (§4.4.1, SR over RC): the receiver RDMA-
  Writes the absolute credit (total Receives posted) into a per-
  destination *credit word* at the sender — :class:`CreditWordBoard` on
  the sender, :func:`post_credit_word` on the receiver.
* **Credit datagrams** (§4.4.2, SR over UD): UD supports no RDMA Write,
  so the absolute credit travels as a small datagram —
  :class:`CreditDatagramPort` holds the small rotating buffer pools on
  both sides; the sender applies arrivals with :func:`grant_credit`.
* **FreeArr/ValidArr circular queues** (§4.4.3, RD/WR over RC): buffer
  addresses are produced into per-peer circular queues by inlined RDMA
  Writes — :class:`RingBoard` is the consumer side (registered region,
  per-peer slot ranges, write hook); :class:`~.rings.RingCursor` the
  producer side.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.memory import BufferPool
from repro.verbs.constants import Opcode
from repro.verbs.wr import RecvWR, SendWR

from repro.core.transport.connections import PeerConnection
from repro.core.transport.modeling import CreditModel, RingModel

__all__ = [
    "CREDIT_MSG_BYTES",
    "CREDIT_RECV_SLOTS",
    "CREDIT_SLOT_CAP",
    "CreditDatagramPort",
    "CreditWordBoard",
    "RingBoard",
    "grant_credit",
    "post_credit_word",
]

#: wire size of a credit-return datagram (header-only message).
CREDIT_MSG_BYTES = 16
#: credit slots provisioned per peer for credit datagrams.
CREDIT_RECV_SLOTS = 8
#: total credit-slot cap per endpoint: the slots rotate through a shared
#: pool, so mesoscale peer counts do not need 8x slots each — two per
#: peer covers the worst incast burst (each peer has at most one credit
#: plus one keepalive in flight), and credit datagrams tolerate loss by
#: design (absolute values + keepalive), so an overflow degrades, never
#: wedges.
CREDIT_SLOT_CAP = 2048


def grant_credit(conn: PeerConnection, value: int) -> None:
    """Apply an absolute credit value to a sender-side connection.

    Stale (reordered or duplicated) values are superseded by construction
    — the property that keeps the protocol stateless (§4.4.1-2).
    """
    if value > conn.credit:
        conn.credit = value
        conn.notify.notify_all()


def post_credit_word(conn: PeerConnection, value: Optional[int] = None) -> None:
    """Receiver half of the §4.4.1 scheme: write the absolute credit
    (Receives posted so far) into the sender's credit word, inlined into
    the WQE to save the payload DMA fetch [16].

    ``value`` defaults to ``conn.posted`` — the only value a correct
    receiver may advertise.  The parameter exists so the sanitizer can
    observe (and flag) endpoints that overgrant credit they have no
    Receives behind.
    """
    if value is None:
        value = conn.posted
    hook = conn.qp.probes.credit_issue
    if hook is not None:
        hook(conn, value, conn.qp.ctx.node_id)
    conn.qp.post_send(SendWR(
        wr_id=("credit", conn.endpoint), opcode=Opcode.WRITE,
        remote_addr=conn.credit_addr, value=value,
        inline=True, signaled=False,
    ))


class CreditWordBoard:
    """Sender half of the §4.4.1 scheme: one credit word per destination,
    written remotely by receivers; arrivals grant credit."""

    __slots__ = ("mr",)

    @classmethod
    def model(cls) -> CreditModel:
        """Protocol semantics for the model checker: credit words ride
        inlined RDMA Writes on the data RC QP — lossless and ordered, so
        no keepalive is needed (§4.4.1)."""
        return CreditModel(scheme="credit-word", lossy=False,
                           ordered=True, keepalive=False)

    @classmethod
    def install(cls, ep):
        """Process fragment: register the credit words of ``ep`` (one per
        destination), wire the write hook, and return the per-destination
        address map for the bootstrap exchange."""
        board = cls()
        board.mr = yield from ep.ctx.reg_mr_timed(
            8 * len(ep.destinations), tenant=ep.config.tenant)
        addr_by_dest = {}
        conns = []
        for i, dest in enumerate(ep.destinations):
            conn = ep.conns[dest]
            conn.credit_addr = board.mr.addr + 8 * i
            addr_by_dest[dest] = conn.credit_addr
            conns.append(conn)

        def on_write(addr: int, value: int) -> None:
            grant_credit(conns[(addr - board.mr.addr) // 8], value)

        board.mr.on_write.append(on_write)
        ep.aux_mrs.append(board.mr)
        return addr_by_dest


class RingBoard:
    """Consumer side of per-peer circular message queues (FreeArr or
    ValidArr): one registered region carved into ``cap``-slot rings, one
    per peer, updated by inlined remote Writes.  Every write of a
    non-zero value is routed to ``on_value(key, value)``."""

    __slots__ = ("mr", "cap", "base_by_key", "_keys", "_on_value",
                 "name", "validator")

    @classmethod
    def model(cls, name: str, cap: int) -> RingModel:
        """Protocol semantics for the model checker: one circular queue
        of ``cap`` slots whose producer cursor wraps modulo ``cap``
        (§4.4.3) — more in-flight values than slots is an overrun."""
        return RingModel(name=name, cap=cap)

    @classmethod
    def install(cls, ep, keys: Sequence[Any], cap: int,
                on_value: Callable[[Any, int], None],
                min_one: bool = False, name: str = "ring",
                validator: Optional[Callable[[Any, int], bool]] = None):
        """Process fragment: register ``8 * cap`` bytes per key (at least
        one ring when ``min_one``), wire the write hook, and return the
        board (``base_by_key`` feeds the bootstrap exchange).

        ``validator(key, value)`` — optional semantic check consulted by
        the sanitizer on every consumed value (e.g. "this FreeArr address
        names a buffer we actually have in flight"); return ``False`` to
        flag a board inconsistency.
        """
        board = cls()
        board.cap = cap
        board._on_value = on_value
        board.name = name
        board.validator = validator
        count = max(1, len(keys)) if min_one else len(keys)
        # Test doubles install boards on bare namespaces with no config.
        tenant = getattr(getattr(ep, "config", None), "tenant", None)
        board.mr = yield from ep.ctx.reg_mr_timed(
            8 * cap * count, tenant=tenant)
        # Rings are carved contiguously: key i owns the ``8 * cap``
        # bytes from ``mr.addr + 8 * cap * i``.
        board._keys = list(keys)
        board.base_by_key = {
            key: board.mr.addr + 8 * cap * i for i, key in enumerate(keys)
        }
        board.mr.on_write.append(board._route)
        ep.aux_mrs.append(board.mr)
        return board

    def _route(self, addr: int, value: int) -> None:
        if value == 0:
            return
        ring_bytes = 8 * self.cap
        index = (addr - self.mr.addr) // ring_bytes
        if index >= len(self._keys):
            return  # the spare ring of a ``min_one`` board with no keys
        key = self._keys[index]
        hook = self.mr.probes.ring_consume
        if hook is not None:
            hook(self, self.mr.addr + ring_bytes * index, key, value)
        self._on_value(key, value)


class CreditDatagramPort:
    """Both halves of the §4.4.2 scheme's buffering: a small rotating
    pool of header-sized buffers — receive slots for incoming credit on
    the sender, send slots for outgoing credit on the receiver (credit
    datagrams complete fast, so a short rotation per peer suffices)."""

    __slots__ = ("ep", "pool", "_cursor")

    @classmethod
    def model(cls) -> CreditModel:
        """Protocol semantics for the model checker: credit datagrams
        ride UD — lossy and unordered, which the absolute values
        tolerate by construction, backed by the receiver's keepalive
        re-advertisement (§4.4.2)."""
        return CreditModel(scheme="credit-datagram", lossy=True,
                           ordered=False, keepalive=True)

    def __init__(self, ep, peer_count: int):
        self.ep = ep
        slots = min(CREDIT_RECV_SLOTS * max(1, peer_count), CREDIT_SLOT_CAP)
        self.pool = BufferPool(ep.ctx, slots, CREDIT_MSG_BYTES,
                               tenant=ep.config.tenant)
        self._cursor = 0
        ep.aux_pools.append(self.pool)

    def post_recv_slots(self) -> None:
        """Post every slot as a Receive for incoming credit datagrams."""
        for buf in self.pool.buffers:
            self.ep.qp.post_recv(RecvWR(wr_id=buf, buffer=buf,
                                        length=CREDIT_MSG_BYTES))

    def repost(self, buf) -> None:
        """Recycle a consumed credit-receive slot."""
        buf.reset()
        self.ep.qp.post_recv(RecvWR(wr_id=buf, buffer=buf,
                                    length=CREDIT_MSG_BYTES))

    def post_credit(self, conn: PeerConnection,
                    value: Optional[int] = None) -> None:
        """Send ``conn.posted`` (or an explicit ``value``, which the
        sanitizer checks against it) as an absolute-credit datagram."""
        # Imported here: this module loads while repro.core.endpoint is
        # still initialising (endpoint -> transport.rings -> package).
        from repro.core.endpoint import Frame, FrameCarrier
        if value is None:
            value = conn.posted
        hook = self.ep.ctx.probes.credit_issue
        if hook is not None:
            hook(conn, value, self.ep.ctx.node_id)
        self._cursor += 1
        frame = Frame(kind="credit", src_endpoint=self.ep.endpoint_id,
                      credit=value)
        self.ep.qp.post_send(SendWR(
            wr_id=("credit", conn.endpoint), opcode=Opcode.SEND,
            buffer=FrameCarrier(frame), length=CREDIT_MSG_BYTES,
            dest=conn.ah, signaled=False,
        ))
