"""TCP/IP over InfiniBand (the "IPoIB" baseline, §5.1).

Represents upgrading the network with no software changes: the database
keeps using sockets, and the kernel stack's per-byte CPU cost dominates.
The paper's profiling found the IPoIB shuffle spends about two thirds of
its cycles inside ``send()`` and ``recv()`` — the model charges exactly
those cycles to the communicating threads, plus:

* a per-node kernel-stack pipe capped at ``ipoib_efficiency`` of the link
  rate (IPoIB cannot drive InfiniBand at line rate),
* per-call syscall overhead (``send``/``recv``/``select``),
* a bounded socket window providing flow control,
* segmentation into 64 KiB writes with TCP/IP header overhead.

Delivery is reliable and ordered per connection (TCP), so end-of-stream
uses simple final markers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.endpoint import (
    DataState,
    EndpointConfig,
    Frame,
    ReceiveEndpoint,
    SendEndpoint,
)
from repro.fabric.packet import Packet, make_train
from repro.memory import Buffer, BufferPool
from repro.sim import Notify, RatePipe
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

__all__ = ["IPoIBSendEndpoint", "IPoIBReceiveEndpoint", "TcpStack"]

#: TCP segment size used by the socket layer (one send() chunk).
SEGMENT_BYTES = 64 * 1024
#: per-segment TCP/IP/IPoIB header overhead on the wire.
HEADER_BYTES = 80
#: socket window: in-flight bytes per connection before send() blocks.
WINDOW_BYTES = 1 << 20


class TcpStack:
    """Per-node kernel TCP state: the rate-capped softirq path."""

    _CACHE_ATTR = "_tcp_stacks"

    @classmethod
    def get(cls, ctx: VerbsContext) -> "TcpStack":
        cache = getattr(ctx.fabric, cls._CACHE_ATTR, None)
        if cache is None:
            cache = {}
            setattr(ctx.fabric, cls._CACHE_ATTR, cache)
        stack = cache.get(ctx.node_id)
        if stack is None:
            stack = cls(ctx)
            cache[ctx.node_id] = stack
        return stack

    def __init__(self, ctx: VerbsContext):
        self.ctx = ctx
        rate = ctx.config.link_bytes_per_ns * ctx.config.ipoib_efficiency
        self.tx = RatePipe(ctx.sim, rate, f"ipoib-tx[{ctx.node_id}]")
        self.rx = RatePipe(ctx.sim, rate, f"ipoib-rx[{ctx.node_id}]")
        #: (dst_node, conn_key) -> receiver-side delivery queue hook.
        self.listeners: Dict[Any, "TcpConnection"] = {}


class TcpConnection:
    """One TCP connection between a send and a receive endpoint."""

    def __init__(self, ctx: VerbsContext, dst_node: int, key: Any):
        self.ctx = ctx
        self.sim = ctx.sim
        self.net = ctx.config
        self.dst_node = dst_node
        self.key = key
        self.stack = TcpStack.get(ctx)
        self._in_flight = 0
        self._window_open = Notify(ctx.sim)
        #: receiver side sets this to receive delivered segments.
        self.deliveries: Optional[Any] = None
        self.segments_sent = 0

    def send(self, payload: Any, length: int, meta: dict):
        """Process fragment: blocking socket send of one message.

        Charges the kernel copy to the calling thread, segments the
        message, and respects the socket window.
        """
        yield self.ctx.node.cpu_delay(
            self.net.tcp_syscall_ns + length * self.net.tcp_ns_per_byte)
        remaining = length
        first = True
        while remaining > 0 or first:
            seg = min(SEGMENT_BYTES, remaining) if remaining else 0
            first = False
            while self._in_flight + seg > WINDOW_BYTES:
                yield self._window_open.wait()
            self._in_flight += seg
            self._transmit_segment(seg, payload, meta,
                                   last=(remaining - seg <= 0))
            remaining -= seg
            if seg == 0:
                break

    def _transmit_segment(self, seg: int, payload: Any, meta: dict,
                          last: bool) -> None:
        # One TCP segment is one wire unit: the stack's own
        # segmentation already runs at MTU-or-smaller granularity, so
        # these are single-packet trains by construction.
        packet = make_train(
            self.net, src_node=self.ctx.node_id, dst_node=self.dst_node,
            src_qpn=0, dst_qpn=0, kind="TCP",
            length=seg, wire_bytes=seg + HEADER_BYTES,
            payload=payload if last else None,
            meta=dict(meta, last=last, conn=self.key),
        )
        sim = self.sim

        def proc():
            yield self.stack.tx.transmit(packet.wire_bytes)
            arrived = yield self.ctx.fabric.route(packet)
            remote = TcpStack.get(self.ctx.peer_context(self.dst_node))
            yield remote.rx.transmit(packet.wire_bytes)
            self._in_flight -= seg
            self._window_open.notify_all()
            listener = remote.listeners.get(self.key)
            if listener is not None:
                listener(arrived)

        sim.process(proc(), name="tcp-seg")


class IPoIBSendEndpoint(SendEndpoint):
    """Socket-based SEND endpoint (one connection per destination)."""

    transport = "IPoIB"

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int]):
        super().__init__(ctx, endpoint_id, config, destinations, num_groups)
        self.peers = dict(peers)
        self._conns: Dict[int, TcpConnection] = {}
        self.pool: BufferPool = None

    def setup(self, registry: EndpointRegistry):
        pool_buffers = (self.config.buffers_per_connection * self.num_groups *
                        self.config.threads_per_endpoint)
        # Plain malloc'd buffers: no registration cost for sockets.
        self.pool = BufferPool(self.ctx, pool_buffers, self.config.message_size)
        for buf in self.pool.buffers:
            self._free.put(buf)
        registry.publish_endpoint(self.endpoint_id, {"node": self.ctx.node_id})
        return
        yield  # pragma: no cover - setup is immediate for sockets

    def connect(self, registry: EndpointRegistry):
        for dest in self.destinations:
            # TCP three-way handshake: about one round trip.
            yield int(2 * self.net.switch_latency_ns)
            key = (self.endpoint_id, self.peers[dest])
            self._conns[dest] = TcpConnection(self.ctx, dest, key)

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        frame = Frame(kind="data", state=state, src_endpoint=self.endpoint_id,
                      payload=buf.payload, length=buf.length,
                      remote_addr=buf.addr)
        for dest in dests:
            yield from self._conns[dest].send(frame, buf.length, {})
            self.messages_sent += 1
            self.bytes_sent += buf.length
        buf.reset()
        self._free.put(buf)

    def _send_finals(self):
        for dest in self.destinations:
            frame = Frame(kind="final", state=DataState.DEPLETED,
                          src_endpoint=self.endpoint_id)
            yield from self._conns[dest].send(frame, 0, {})


class IPoIBReceiveEndpoint(ReceiveEndpoint):
    """Socket-based RECEIVE endpoint: select() over per-source sockets."""

    transport = "IPoIB"

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig,
                 sources: Sequence[Tuple[int, int]]):
        super().__init__(ctx, endpoint_id, config, sources)
        self.pool: BufferPool = None
        self._avail: List[Buffer] = []

    def setup(self, registry: EndpointRegistry):
        per_link = self.config.buffers_per_link
        total = per_link * max(1, len(self.sources))
        self.pool = BufferPool(self.ctx, total, self.config.message_size)
        self._avail = list(self.pool.buffers)
        registry.publish_endpoint(self.endpoint_id, {"node": self.ctx.node_id})
        return
        yield  # pragma: no cover - setup is immediate for sockets

    def connect(self, registry: EndpointRegistry):
        stack = TcpStack.get(self.ctx)
        for _src_node, src_ep in self.sources:
            key = (src_ep, self.endpoint_id)
            stack.listeners[key] = self._on_segment
        return
        yield  # pragma: no cover - accept() side is passive

    def _on_segment(self, packet: Packet) -> None:
        if not packet.meta.get("last"):
            return  # only the final segment completes a message
        frame: Frame = packet.payload
        if frame.kind == "final":
            self._source_depleted(frame.src_endpoint)
            return
        # The Frame doubles as the delivered "buffer": it carries .length.
        self._deliver(frame.src_endpoint, frame.remote_addr, frame)

    def get_data(self):
        t0 = self.sim.now
        item = yield self._inbox.get()
        self.data_wait_ns += self.sim.now - t0
        # select() wakeup + recv() copy out of the kernel buffer.
        state, src, remote, frame = item
        if frame is None:
            return item
        yield self.ctx.node.cpu_delay(
            self.net.tcp_syscall_ns
            + frame.length * self.net.tcp_ns_per_byte)
        local = self._avail.pop() if self._avail else Buffer(
            self.pool.mr, self.pool.mr.addr, self.config.message_size)
        local.deposit(frame.payload, frame.length)
        return (state, src, remote, local)

    def release(self, remote_addr: int, local: Buffer, src: int):
        local.reset()
        self._avail.append(local)
        return
        yield  # pragma: no cover - nothing to repost for sockets
