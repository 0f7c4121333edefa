"""Nodes and the switched fabric connecting them.

The fabric is now three collaborating pieces:

* :mod:`repro.fabric.topology` — the explicit switch graph: ports,
  links, precomputed per-pair routes (built from the cluster's
  :class:`~repro.fabric.config.TopologySpec`);
* :mod:`repro.fabric.routing` — the generic flat-callback path-walker
  executing a route's hop sequence;
* this module — NIC attachment, delivery accounting, and the loss and
  jitter policy (what *unordered*/*lossy* mean).

Each fabric owns the cluster's instrumentation bus
(:class:`~repro.telemetry.probes.Probes`), shared by its NICs, verbs
contexts and everything they create.

The default ``SINGLE_SWITCH`` topology mirrors the paper's clusters:
every node has one adapter plugged into a full-bisection switch, so
contention only occurs at the sender's egress port and the receiver's
ingress port.  Multi-switch presets add contention at trunk ports.  The
fabric is lossless under congestion (InfiniBand link-level flow
control) but — for the Unreliable Datagram service — may deliver
messages out of order, which is modeled with a bounded random
forwarding jitter.  Loss injection (bit errors, §4.4.2) is available
for failure testing and defaults to off.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.fabric import routing
from repro.fabric.config import ClusterConfig, NetworkConfig
from repro.fabric.nic import NIC
from repro.fabric.packet import Packet, clone_for_member
from repro.fabric.topology import Hop, Topology
from repro.sim import Event, Simulator, trains
from repro.telemetry.core import Telemetry
from repro.telemetry.probes import Probes

__all__ = ["Node", "Fabric"]


class Node:
    """One cluster machine: an adapter plus CPU cost helpers."""

    def __init__(self, sim: Simulator, node_id: int, config: NetworkConfig):
        self.sim = sim
        self.id = node_id
        self.config = config
        self.nic = NIC(sim, node_id, config)

    def cpu_delay(self, ns: float) -> int:
        """A CPU charge scaled by this node's CPU speed, as int ns.

        A process charges it with ``yield node.cpu_delay(ns)``.  ``ns``
        may be fractional (per-tuple cost models multiply);
        :meth:`NetworkConfig.cpu` rounds to integer nanoseconds exactly
        once, here at the simulation boundary.
        """
        return self.config.cpu(ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id} ({self.config.name})>"


class Fabric:
    """The switched network connecting all nodes of a cluster."""

    def __init__(self, sim: Simulator, cluster: ClusterConfig,
                 telemetry: Optional[Telemetry] = None):
        self.sim = sim
        self.cluster = cluster
        self.config = cluster.network
        #: the instrumentation bus every layer of this fabric emits on.
        self.probes = Probes()
        self.nodes: List[Node] = [
            Node(sim, i, cluster.network) for i in range(cluster.num_nodes)
        ]
        for node in self.nodes:
            node.nic.probes = self.probes
        #: the live switch graph; owns trunk-port pipes and routes.
        self.topology = Topology(sim, cluster.topology, cluster.network,
                                 cluster.num_nodes)
        self._rng = random.Random(cluster.seed)
        self.delivered_messages = 0
        #: MTU packets delivered (mode-invariant train accounting; the
        #: message counter above is what telemetry snapshots report).
        self.delivered_packets = 0
        self.dropped_messages = 0
        #: wire bytes carried per directed (src, dst) pair, including
        #: loopback traffic; feeds the link-contention telemetry.
        self.link_bytes: Dict[Tuple[int, int], int] = {}
        self.telemetry = telemetry if telemetry is not None else \
            Telemetry(sim, cluster.num_nodes)
        self.telemetry.attach_fabric(self)
        #: verbs contexts register themselves here (node_id -> VerbsContext)
        #: so Queue Pairs can resolve their peers.
        self.verbs_contexts: dict = {}
        #: InfiniBand multicast groups: mgid -> set of (node_id, qpn)
        #: attached UD QPs.  The fabric replicates a single sender packet
        #: to every member at the last common switch, so the sender's
        #: port (and any shared trunk) is charged only once.
        self.mcast_members: dict = {}
        #: charge each message's MTU packets as one train per pipe (the
        #: default) instead of ticking every MTU boundary; both modes
        #: produce bit-identical end times and metrics — see
        #: repro.sim.trains.  The live switches live on the pipes
        #: (RatePipe.split_packets), read once at construction.
        self.train_routing = trains.enabled()

    def use_packet_oracle(self, split: bool = True) -> None:
        """Flip every fabric pipe between train charging and the
        per-packet oracle, for in-process A/B runs (tests, the event
        -reduction benchmark).  Only meaningful on a quiesced fabric —
        mid-flight trains keep the mode they were submitted under."""
        self.train_routing = not split
        for node in self.nodes:
            node.nic.egress.split_packets = split
            node.nic.ingress.split_packets = split
        for port in self.topology.ports():
            port.pipe.split_packets = split

    def dispose(self) -> None:
        """Release the fabric's node and context tables on teardown.

        Breaks the fabric<->context hub edges so a finished cluster can
        be reclaimed by reference counting (see :meth:`Cluster.dispose`);
        the fabric is unusable afterwards.
        """
        self.verbs_contexts.clear()
        self.mcast_members.clear()
        self.link_bytes.clear()
        self.nodes.clear()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def route(self, packet: Packet, unordered: bool = False,
              lossy: bool = False,
              egress_event: Optional[Event] = None) -> Event:
        """Carry ``packet`` from source to destination.

        Returns an event that fires with the packet once it has fully
        arrived at the destination NIC (or, for a dropped packet, once the
        fabric has discarded it; ``packet.dropped`` is then True).

        ``unordered`` adds random forwarding jitter so that messages can
        overtake each other — the Unreliable Datagram behaviour.
        ``lossy`` enables loss injection at the configured probability.
        ``egress_event``, if given, fires once the packet has fully left
        the sender's NIC (the point at which an unacknowledged transport
        considers the send complete).

        Loopback (``src == dst``) turns around inside the HCA: PCIe DMA
        out and back in, so both port pipes are charged, but the route
        has no hops — no switch latency, no jitter, no loss.
        """
        key = (packet.src_node, packet.dst_node)
        self.link_bytes[key] = self.link_bytes.get(key, 0) + packet.wire_bytes
        if packet.src_node == packet.dst_node:  # loopback
            unordered = lossy = False
        hops = self.topology.route_hops(packet.src_node, packet.dst_node)
        done = Event(self.sim)
        routing.route(self, packet, hops, unordered, lossy, done,
                      egress_event)
        return done

    def mcast_attach(self, mgid: int, node_id: int, qpn: int) -> None:
        """Attach a UD QP to a multicast group."""
        self.mcast_members.setdefault(mgid, set()).add((node_id, qpn))

    def mcast_detach(self, mgid: int, node_id: int, qpn: int) -> None:
        self.mcast_members.get(mgid, set()).discard((node_id, qpn))

    def route_mcast(self, packet: Packet, mgid: int,
                    egress_event: Optional[Event] = None) -> Event:
        """Replicate one datagram to every group member.

        The sender's egress port serializes the packet *once*; the
        topology splits the member paths into a shared trunk (walked
        once) and per-member legs that start at the last common switch,
        where replication happens.  Each member's ingress port is
        charged individually.  Returns an event firing with the list of
        per-member delivery events.  The sender, if attached, does not
        hear its own packet (IB loopback suppression is the common HCA
        default).
        """
        members = [
            m for m in self.mcast_members.get(mgid, ())
            if m[0] != packet.src_node
        ]
        trunk, leg_hops = self.topology.mcast_route(
            packet.src_node, tuple(m[0] for m in members))
        done = Event(self.sim)

        def fan_out() -> None:
            deliveries = []
            for node_id, qpn in members:
                deliveries.append(
                    self._mcast_leg(packet, node_id, qpn,
                                    leg_hops[node_id]))
            done.succeed(deliveries)

        routing.route(self, packet, trunk, False, False, done,
                      egress_event, terminal=fan_out)
        return done

    def _mcast_leg(self, packet: Packet, node_id: int, qpn: int,
                   hops: Tuple[Hop, ...]) -> Event:
        """One member's copy: its leg of the distribution tree, then its
        ingress.  Legs are datagrams (jitter and loss both apply)."""
        key = (packet.src_node, node_id)
        self.link_bytes[key] = self.link_bytes.get(key, 0) + packet.wire_bytes
        leg = Event(self.sim)
        routing.leg(self, clone_for_member(packet, node_id, qpn), hops, leg)
        return leg
