"""The per-cluster telemetry object: harvested counters + tracer.

Design notes
------------

Every layer (the kernel, the NIC work-request loop, the QP state
machines, the endpoint send loop) keeps plain integer attributes
(``nic.tx_messages += 1``): one add per event, always on, no registry
and no off mode.  :meth:`Telemetry.snapshot` harvests those attributes
lazily, plus whatever zero-argument callbacks a control-path owner
registered (the service's policy-decision count and tenant rollup).

Endpoints register at construction and retire at stage dispose; a
retired endpoint's counters are folded into per-node totals so the
snapshot keeps them while the endpoint itself can be collected.

To avoid import cycles this module never imports the fabric/verbs/core
layers — harvesting is duck-typed over the objects handed to
:meth:`attach_fabric` / :meth:`register_endpoint`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.telemetry.links import FlowRecorder
from repro.telemetry.trace import TraceBudget, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

__all__ = [
    "Telemetry",
    "nic_cache_stats",
]


class Telemetry:
    """Harvested metrics and a tracer for one simulated cluster.

    Owned by :class:`~repro.cluster.Cluster` and threaded through the
    fabric so every layer can reach it as ``ctx.telemetry`` /
    ``fabric.telemetry``.
    """

    def __init__(self, sim: "Simulator", num_nodes: int):
        self.sim = sim
        self.num_nodes = num_nodes
        #: the live tracer; None until enable_tracing().
        self.tracer: Optional[Tracer] = None
        self._fabric = None
        #: live endpoints by id(), in registration order.
        self._endpoints: Dict[int, Any] = {}
        #: node id -> ``ep.*`` totals of that node's retired endpoints.
        self._retired: Dict[int, Dict[str, Any]] = {}
        #: fabric-wide metrics polled at snapshot time, in registration
        #: order.
        self._callbacks: Dict[str, Callable[[], Any]] = {}
        #: causal link recorder (repro.obs substrate); None until
        #: enable_links().
        self.links: Optional[FlowRecorder] = None

    @property
    def credit_wait_ns(self) -> int:
        """Time every endpoint, live or retired, spent blocked for
        credit (the policy layer's stall signal)."""
        retired = sum(totals.get("ep.credit_wait_ns", 0)
                      for totals in self._retired.values())
        return retired + sum(getattr(ep, "credit_wait_ns", 0)
                             for ep in self._endpoints.values())

    # -- wiring ------------------------------------------------------------

    def attach_fabric(self, fabric) -> None:
        """Bind to ``fabric``; subscribe what is enabled so far."""
        self._fabric = fabric
        if self.tracer is not None:
            self._subscribe_tracer(self.tracer)
        if self.links is not None:
            fabric.probes.attach(self.links)

    def register_endpoint(self, endpoint) -> None:
        """Called by endpoint constructors so stalls/skew can be harvested."""
        self._endpoints[id(endpoint)] = endpoint

    def retire_endpoint(self, endpoint) -> None:
        """Fold a disposed endpoint's counters into its node's totals and
        drop the reference (idempotent)."""
        if self._endpoints.pop(id(endpoint), None) is None:
            return
        self._fold(self._retired.setdefault(endpoint.ctx.node_id, {}),
                   self._endpoint_counters(endpoint))

    def register_callback(self, name: str, fn: Callable[[], Any]) -> None:
        """Poll ``fn()`` at snapshot time as the fabric-wide metric
        ``name`` (a later registration under one name replaces it)."""
        self._callbacks[name] = fn

    def enable_tracing(self, max_events: int = 500_000,
                       budget: Optional[TraceBudget] = None,
                       pid_base: int = 0, label: str = "") -> Tracer:
        """Start recording trace events; returns the live tracer (a
        fresh one replaces any earlier tracer)."""
        old = self.tracer
        tracer = self.tracer = Tracer(
            self.sim,
            budget=budget if budget is not None else TraceBudget(max_events),
            pid_base=pid_base, label=label)
        if self._fabric is not None:
            if old is not None:
                self._fabric.probes.detach(old)
            self._subscribe_tracer(tracer)
        return tracer

    def enable_links(self, budget: Optional[TraceBudget] = None
                     ) -> FlowRecorder:
        """Start recording causal link records (flows, pipe intervals,
        stalls) — the input of the ``repro.obs`` critical-path analyzer.

        Like tracing, recording is append-only and cannot perturb the
        simulation; the shared ``budget`` caps memory across a session.
        """
        if self.links is None:
            self.links = FlowRecorder(self.sim, budget=budget)
            if self._fabric is not None:
                self._fabric.probes.attach(self.links)
        return self.links

    def _subscribe_tracer(self, tracer: Tracer) -> None:
        # Switches trace as pseudo-nodes after the real ones: one pid
        # per switch, one thread per trunk port.
        tracer.switch_base = self.num_nodes
        for switch in self._fabric.topology.switches:
            if switch.ports:
                tracer.name_process(self.num_nodes + switch.index,
                                    switch.name)
        self._fabric.probes.attach(tracer)

    # -- harvesting --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready snapshot: fabric-wide plus per-node metrics."""
        sim = self.sim
        fabric: Dict[str, Any] = {
            "sim.now_ns": sim.now,
            "sim.events_dispatched": sim.events_dispatched,
            "sim.process_wakeups": sim.process_wakeups,
            "sim.processes_started": sim.processes_started,
            "sim.max_queue_depth": sim.max_queue_depth,
        }
        nodes: Dict[str, Dict[str, Any]] = {}
        fb = self._fabric
        if fb is not None:
            fabric["fabric.delivered_messages"] = fb.delivered_messages
            fabric["fabric.dropped_messages"] = fb.dropped_messages
            fabric["fabric.link_bytes"] = {
                f"{s}->{d}": v
                for (s, d), v in sorted(fb.link_bytes.items())
            }
            topology = getattr(fb, "topology", None)
            if topology is not None:
                fabric["topology.kind"] = topology.spec.kind
                elapsed = max(1, sim.now)
                ports: Dict[str, Any] = {}
                for port in topology.ports():
                    ports[port.name] = {
                        "bytes": int(port.pipe.total_units),
                        "busy_ns": port.pipe.busy_ns,
                        "utilization": round(
                            min(1.0, port.pipe.busy_ns / elapsed), 4),
                    }
                if ports:
                    fabric["topology.ports"] = ports
            for node in fb.nodes:
                nodes[str(node.id)] = self._node_snapshot(node)
        for node_id, totals in self._retired.items():
            self._fold(nodes.setdefault(str(node_id), {}), totals)
        for ep in self._endpoints.values():
            self._fold(nodes.setdefault(str(ep.ctx.node_id), {}),
                       self._endpoint_counters(ep))
        for metrics in nodes.values():
            self._finish_skew(metrics)
        for name, fn in self._callbacks.items():
            fabric[name] = fn()
        return {"fabric": fabric, "nodes": nodes}

    def _node_snapshot(self, node) -> Dict[str, Any]:
        nic = node.nic
        elapsed = max(1, self.sim.now)
        out: Dict[str, Any] = {
            "nic.tx_messages": nic.tx_messages,
            "nic.rx_messages": nic.rx_messages,
            "nic.tx_bytes": int(nic.egress.total_units),
            "nic.rx_bytes": int(nic.ingress.total_units),
            "nic.qp_cache.hits": nic.qp_cache.hits,
            "nic.qp_cache.misses": nic.qp_cache.misses,
            "nic.qp_cache.evictions": nic.qp_cache.evictions,
            "nic.qp_cache.occupancy": nic.qp_cache.occupancy,
            "nic.qp_cache.miss_rate": round(nic.qp_cache.miss_rate, 6),
            "nic.pcie_stall_ns": nic.pcie_stall_ns,
            "nic.processor_busy_ns": nic.processor.busy_ns,
            "link.egress_busy_ns": nic.egress.busy_ns,
            "link.ingress_busy_ns": nic.ingress.busy_ns,
            "link.egress_utilization": round(
                min(1.0, nic.egress.busy_ns / elapsed), 4),
            "link.ingress_utilization": round(
                min(1.0, nic.ingress.busy_ns / elapsed), 4),
        }
        ctx = self._fabric.verbs_contexts.get(node.id)
        if ctx is not None:
            qps = list(ctx._qps.values())
            out.update({
                "verbs.qps_created": ctx.qps_created,
                "verbs.sends_posted": sum(q.sends_posted for q in qps),
                "verbs.recvs_posted": sum(q.recvs_posted for q in qps),
                "verbs.send_wrs_in_flight": sum(
                    q._send_outstanding for q in qps),
                "verbs.ud_drops": sum(q.ud_drops for q in qps),
                "verbs.rnr_events": sum(q.rnr_events for q in qps),
                "verbs.rnr_stall_ns": sum(q.rnr_stall_ns for q in qps),
                "verbs.cqes_pushed": sum(cq.pushed for cq in ctx._cqs),
                "verbs.cqes_polled": sum(cq.polled for cq in ctx._cqs),
                "verbs.registered_bytes": ctx.registered_bytes,
                "verbs.peak_registered_bytes": ctx.peak_registered_bytes,
                "verbs.mr_register_ns": ctx.mr_register_ns,
            })
        return out

    @staticmethod
    def _endpoint_counters(ep) -> Dict[str, Any]:
        """The ``ep.*`` counters of one endpoint."""
        out: Dict[str, Any] = {}
        if hasattr(ep, "messages_sent"):  # send side
            out["ep.messages_sent"] = ep.messages_sent
            out["ep.bytes_sent"] = ep.bytes_sent
            out["ep.credit_wait_ns"] = getattr(ep, "credit_wait_ns", 0)
            out["ep.credit_stalls"] = getattr(ep, "credit_stalls", 0)
            out["ep.free_wait_ns"] = getattr(ep, "free_wait_ns", 0)
            by_dest = getattr(ep, "bytes_by_dest", None)
            if by_dest:
                out["ep.bytes_by_dest"] = {
                    str(dest): nbytes for dest, nbytes in by_dest.items()}
        if hasattr(ep, "messages_received"):  # receive side
            out["ep.messages_received"] = ep.messages_received
            out["ep.bytes_received"] = ep.bytes_received
            out["ep.data_wait_ns"] = getattr(ep, "data_wait_ns", 0)
        return out

    @staticmethod
    def _fold(metrics: Dict[str, Any], counters: Dict[str, Any]) -> None:
        """Add ``counters`` into ``metrics`` (per-key for dict values)."""
        for key, value in counters.items():
            if isinstance(value, dict):
                merged = metrics.setdefault(key, {})
                for sub, v in value.items():
                    merged[sub] = merged.get(sub, 0) + v
            else:
                metrics[key] = metrics.get(key, 0) + value

    @staticmethod
    def _finish_skew(metrics: Dict[str, Any]) -> None:
        """Per-destination skew: max over mean of this node's sent bytes."""
        by_dest = metrics.get("ep.bytes_by_dest")
        if not by_dest:
            return
        values = list(by_dest.values())
        mean = sum(values) / len(values)
        metrics["ep.dest_skew"] = round(max(values) / mean, 4) if mean else 0.0


def nic_cache_stats(cluster_or_fabric) -> Dict[str, Any]:
    """Aggregate QP-context-cache counters across all NICs of a cluster."""
    fabric = getattr(cluster_or_fabric, "fabric", cluster_or_fabric)
    hits = sum(n.nic.qp_cache.hits for n in fabric.nodes)
    misses = sum(n.nic.qp_cache.misses for n in fabric.nodes)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": sum(n.nic.qp_cache.evictions for n in fabric.nodes),
        "miss_rate": misses / total if total else 0.0,
        "pcie_stall_ns": sum(n.nic.pcie_stall_ns for n in fabric.nodes),
    }
