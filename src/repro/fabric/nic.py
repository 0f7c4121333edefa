"""The simulated network adapter.

A NIC has three serialized resources:

* an **egress pipe** draining outbound bytes at the link rate,
* an **ingress pipe** draining inbound bytes at the link rate,
* a **processing engine** that executes work requests (doorbell handling,
  WQE fetch, DMA setup) one at a time.

It also owns the **Queue Pair context cache**: Mellanox NICs keep QP state
in a small on-chip cache backed by host memory over PCIe; touching a QP
that fell out of the cache stalls the processing engine for a PCIe round
trip.  This is the documented mechanism ([8, 16, 17] in the paper) behind
the degradation of the many-Queue-Pair designs on FDR hardware at 16 nodes
(Figs 10 and 11), so it is modeled explicitly.

Trains: the tx/rx entry points take the message's MTU packet count and
charge their pipes per *train* (one event per message, see
:mod:`repro.sim.trains`).  The QP-context cache and the PCIe miss
penalty are charged once per train in **both** modes — real NICs hold
the QP context across a message's back-to-back packets, so per-packet
touching would both be wrong and break the per-packet oracle's
bit-identical cache-counter equivalence.

Instrumentation goes through the fabric's probe bus (``self.probes``,
see :mod:`repro.telemetry.probes`): ``pipe_occupy`` fires before every
occupancy of the three pipes with the pipe's pre-submit backlog end and
the interval's base / cache-penalty / DMA-extra decomposition (the link
recorder and the tracer subscribe), and ``qp_miss`` on every QP-context
cache miss (the service's per-job miss attribution subscribes).  The
probes fire before the pipe is charged and schedule nothing, so they
cannot perturb event order.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

from repro.sim import Event, RatePipe, Simulator
from repro.telemetry.probes import DETACHED

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.config import NetworkConfig

__all__ = ["QPContextCache", "NIC"]


class QPContextCache:
    """LRU cache of Queue Pair contexts held on the NIC.

    ``touch`` records an access and reports whether it hit.  The miss
    penalty is charged by the NIC's processing engine, not here, so the
    cache itself stays a pure bookkeeping structure that tests can probe.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def touch(self, qpn: int) -> bool:
        """Access QP ``qpn``; returns True on hit, False on miss."""
        if qpn in self._entries:
            self._entries.move_to_end(qpn)
            self.hits += 1
            return True
        self.misses += 1
        self._entries[qpn] = None
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return False

    def evict(self, qpn: int) -> None:
        """Drop a QP context (e.g. when the QP is destroyed)."""
        self._entries.pop(qpn, None)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class NIC:
    """One node's network adapter."""

    def __init__(self, sim: Simulator, node_id: int, config: "NetworkConfig",
                 disable_qp_cache: bool = False):
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.egress = RatePipe(sim, config.link_bytes_per_ns, f"egress[{node_id}]")
        self.ingress = RatePipe(sim, config.link_bytes_per_ns, f"ingress[{node_id}]")
        # The processing engine is a unit-rate pipe used via occupy():
        # each work element holds it for its processing time.
        self.processor = RatePipe(sim, 1.0, f"nicproc[{node_id}]")
        self.qp_cache = QPContextCache(config.qp_cache_entries)
        #: set True to model an adapter with effectively unlimited context
        #: cache (used by the QP-cache ablation benchmark).
        self.disable_qp_cache = disable_qp_cache
        self.tx_messages = 0
        self.rx_messages = 0
        #: MTU packets carried (mode-invariant train accounting; kept
        #: out of telemetry snapshots, which stay per-message).
        self.tx_packets = 0
        self.rx_packets = 0
        #: cumulative processing-engine stall waiting on PCIe round trips
        #: for cold QP contexts (the Fig 10/11 degradation mechanism).
        self.pcie_stall_ns = 0
        #: the fabric's probe bus (assigned by the owning Fabric).
        self.probes = DETACHED

    def _qp_touch_penalty(self, qpn: int) -> int:
        if self.disable_qp_cache:
            return 0
        if self.qp_cache.touch(qpn):
            return 0
        hook = self.probes.qp_miss
        if hook is not None:
            hook(self.node_id, qpn)
        self.pcie_stall_ns += self.config.qp_cache_miss_ns
        return self.config.qp_cache_miss_ns

    def _start_wr(self, qpn: int, extra_ns: int, flow: int) -> int:
        """Touch ``qpn``'s context; returns the WR's processor time."""
        penalty = self._qp_touch_penalty(qpn)
        hook = self.probes.pipe_occupy
        if hook is not None:
            hook("proc", self.node_id, self.processor.busy_until,
                 self.config.nic_wr_ns, penalty, extra_ns, flow, 0)
        return self.config.nic_wr_ns + penalty + extra_ns

    def occupy_engine(self, duration_ns: int) -> Event:
        """Occupy the processing engine outside any QP (MPI doorbells);
        not a work request, so ``pipe_occupy`` carries flow ``None``."""
        hook = self.probes.pipe_occupy
        if hook is not None:
            hook("proc", self.node_id, self.processor.busy_until,
                 duration_ns, 0, 0, None, 0)
        return self.processor.occupy(duration_ns)

    def submit_wr(self, qpn: int, func: "Callable[[], None]",
                  extra_ns: int = 0, flow: int = 0) -> None:
        """Occupy the processing engine for one work request on ``qpn``;
        runs ``func()`` once the NIC has finished processing it (the
        point at which the message starts serializing onto the wire)."""
        self.processor.submit_occupy(self._start_wr(qpn, extra_ns, flow),
                                     func)

    def submit_tx(self, wire_bytes: int, func: "Callable[[], None]",
                  flow: int = 0, n_packets: int = 1) -> None:
        """Serialize a train of ``wire_bytes`` onto the outbound link;
        runs ``func()`` once it has left the NIC."""
        self.tx_messages += 1
        self.tx_packets += n_packets
        hook = self.probes.pipe_occupy
        if hook is not None:
            hook("egress", self.node_id, self.egress.busy_until,
                 self.egress._serialization_ns(wire_bytes), 0, 0, flow,
                 wire_bytes)
        self.egress.submit_train(wire_bytes, n_packets, func)

    def submit_rx(self, wire_bytes: int, qpn: int,
                  func: "Callable[[], None]", flow: int = 0,
                  n_packets: int = 1) -> None:
        """Serialize a train of ``wire_bytes`` off the inbound link into
        ``qpn``; runs ``func()`` once it has arrived.

        The receive path also touches the destination QP context, so a
        node being bombarded across many cold QPs slows down symmetrically
        with the send path.  The context is touched once per train (the
        NIC holds it across the message's back-to-back packets), so the
        miss penalty rides on the train as a whole.
        """
        self.rx_messages += 1
        self.rx_packets += n_packets
        penalty = self._qp_touch_penalty(qpn)
        hook = self.probes.pipe_occupy
        if hook is not None:
            hook("ingress", self.node_id, self.ingress.busy_until,
                 self.ingress._serialization_ns(wire_bytes), penalty, 0,
                 flow, wire_bytes)
        self.ingress.submit_train(wire_bytes, n_packets, func,
                                  extra_ns=penalty)
