"""The benchmark's three workloads, driven only through public entry points.

Every workload builds a fresh :class:`~repro.cluster.Cluster` per
repetition and exposes the same three operations:

* ``setup_once``: host time from ``Cluster(...)`` to ready-to-shuffle;
* ``run_once``: one repetition, returning a :class:`Rep` with the host
  time of the shuffle, the simulated GiB delivered, the simulated digest,
  the deterministic per-layer counts and the failed output checks;
* both record spans (cluster build, stage setup, shuffle run, dispose)
  on the :class:`Spans` they are given.

The streaming workloads use the striped partitioner, so their simulated
results do not depend on the seed; ``svc-tenants`` depends on it through
its open-loop arrival gaps.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import EDR, FDR, LEAF_SPINE, Cluster, ClusterConfig
from repro import TransmissionGroups, TopologySpec
from repro.bench.workloads import R_DTYPE, ShuffleRunResult, run_repartition
from repro.fabric.config import NetworkConfig
from repro.service import (
    FairSharePolicy,
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
    estimate_footprint,
)

MIB = 1 << 20
GIB = float(1 << 30)
#: rows of the synthetic table R are two int64s (repro.bench.workloads).
ROW_BYTES = R_DTYPE.itemsize
#: run_repartition and the service ship at least one template batch per
#: thread, so volumes at or above threads x this ship exactly what they ask.
TEMPLATE_BYTES = 16 * 1024 * ROW_BYTES


class Spans:
    """Host-time spans the benchmark records around its own calls.

    A span is ``(name, parent, start_s, end_s)``; spans are kept in
    memory and printed when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Optional[str], float, float]] = []
        self._open: List[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((name, parent, start, time.perf_counter()))

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (count, summed seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for name, _parent, start, end in self.spans:
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + end - start)
        return out


@dataclass
class Rep:
    """One repetition of a workload."""

    #: host seconds of the shuffle run (run_repartition / ShuffleService.run).
    wall_s: float
    #: simulated GiB delivered to receivers.
    gib: float
    #: elapsed_ns, sim.events, fabric.messages, QP-cache misses (+ the
    #: completion order for the service); equal across repetitions.
    digest: Tuple[Any, ...]
    #: simulated end-to-end metrics (deterministic for one seed).
    sim: Dict[str, float]
    #: deterministic per-layer counts, keyed by per-layer metric name.
    counts: Dict[str, float]
    #: operations attempted / failed (runs, or jobs for the service).
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)


def _node_total(snap: Dict[str, Any], key: str) -> int:
    return sum(node.get(key, 0) for node in snap["nodes"].values())


def _layer_counts(snap: Dict[str, Any], packets: int,
                  elapsed_ns: int) -> Dict[str, float]:
    """Per-layer counts every workload reports from a metrics snapshot."""
    fab = snap["fabric"]
    nodes = snap["nodes"].values()
    hits = _node_total(snap, "nic.qp_cache.hits")
    misses = _node_total(snap, "nic.qp_cache.misses")
    busy = [n[k] for n in nodes
            for k in ("link.egress_busy_ns", "link.ingress_busy_ns")]
    busy += [p["busy_ns"] for p in fab.get("topology.ports", {}).values()]
    return {
        "sim.events": fab["sim.events_dispatched"],
        "sim.wakeups": fab["sim.process_wakeups"],
        "core.messages_sent": _node_total(snap, "ep.messages_sent"),
        "core.credit_stalls": _node_total(snap, "ep.credit_stalls"),
        "core.credit_wait_ms": _node_total(snap, "ep.credit_wait_ns") / 1e6,
        "core.data_wait_ms": _node_total(snap, "ep.data_wait_ns") / 1e6,
        "verbs.sends_posted": _node_total(snap, "verbs.sends_posted"),
        "verbs.cqes_polled": _node_total(snap, "verbs.cqes_polled"),
        "verbs.ud_drops": _node_total(snap, "verbs.ud_drops"),
        "verbs.rnr_events": _node_total(snap, "verbs.rnr_events"),
        "verbs.qps_created": _node_total(snap, "verbs.qps_created"),
        "verbs.peak_registered_mb": max(
            n.get("verbs.peak_registered_bytes", 0) for n in nodes) / MIB,
        "fabric.messages": fab["fabric.delivered_messages"],
        "fabric.packets": packets,
        "topology.peak_port_util": min(1.0, max(busy) / max(1, elapsed_ns)),
        "nic.qp_cache_hit_ratio": hits / max(1, hits + misses),
        "nic.pcie_stall_ms": _node_total(snap, "nic.pcie_stall_ns") / 1e6,
    }


def _digest(elapsed_ns: int, snap: Dict[str, Any], *extra) -> Tuple:
    return (elapsed_ns, snap["fabric"]["sim.events_dispatched"],
            snap["fabric"]["fabric.delivered_messages"],
            _node_total(snap, "nic.qp_cache.misses")) + extra


def _send_totals_errors(snap: Dict[str, Any], received: int) -> List[str]:
    sent = _node_total(snap, "ep.bytes_sent")
    got = _node_total(snap, "ep.bytes_received")
    if not sent == got == received:
        return [f"senders sent {sent} B, receive endpoints got {got} B, "
                f"sinks counted {received} B"]
    return []


@dataclass(frozen=True)
class StreamingWorkload:
    """One uniform repartition per repetition through ``run_repartition``."""

    name: str
    network: NetworkConfig
    nodes: int
    threads: int
    design: str
    bytes_per_node: int
    topology: Optional[TopologySpec] = None

    @property
    def smallest_bytes_per_node(self) -> int:
        return self.threads * TEMPLATE_BYTES

    def config(self, seed: int) -> ClusterConfig:
        config = ClusterConfig(network=self.network, num_nodes=self.nodes,
                               threads_per_node=self.threads, seed=seed)
        if self.topology is not None:
            config = config.with_topology(self.topology)
        return config

    def setup_once(self, seed: int, spans: Spans) -> Tuple[float, int]:
        """Host seconds of cluster build plus the stage-setup call that
        ``run_repartition`` makes; also the simulated setup ns."""
        start = time.perf_counter()
        with spans.span("cluster_build"):
            cluster = Cluster(self.config(seed))
        with spans.span("stage_setup"):
            stage = cluster.shuffle_stage(
                self.design, TransmissionGroups.repartition(self.nodes))
            cluster.run_process(stage.setup(), name="stage-setup")
        elapsed = time.perf_counter() - start
        with spans.span("dispose"):
            stage.dispose()
            cluster.dispose()
        return elapsed, stage.max_setup_ns

    def run_once(self, seed: int, spans: Spans, small: bool = False,
                 sanitize: bool = False) -> Rep:
        volume = self.smallest_bytes_per_node if small else self.bytes_per_node
        with spans.span("cluster_build"):
            cluster = Cluster(self.config(seed))
        if sanitize:
            cluster.enable_sanitizer(strict=True)
        try:
            with spans.span("shuffle_run"):
                start = time.perf_counter()
                result = run_repartition(cluster, self.design,
                                         bytes_per_node=volume)
                wall = time.perf_counter() - start
            snap = cluster.metrics_snapshot()
            packets = cluster.fabric.delivered_packets
        finally:
            with spans.span("dispose"):
                cluster.dispose()
        return self._rep(result, snap, packets, wall, volume)

    def _rep(self, result: ShuffleRunResult, snap: Dict[str, Any],
             packets: int, wall: float, volume: int) -> Rep:
        errors = _send_totals_errors(snap, result.total_received_bytes)
        expected = self.nodes * self.threads * max(
            TEMPLATE_BYTES, volume // self.threads)
        if result.total_received_bytes != expected:
            errors.append(f"received {result.total_received_bytes} B, "
                          f"expected {expected} B")
        if result.total_received_rows * ROW_BYTES != \
                result.total_received_bytes:
            errors.append(f"received {result.total_received_rows} rows for "
                          f"{result.total_received_bytes} B")
        counts = _layer_counts(snap, packets, result.elapsed_ns)
        counts.update({
            "core.sim_setup_ms": result.setup_ns / 1e6,
            "engine.rows": result.total_received_rows,
            "service.jobs": 0,
            "service.admit_ratio": 0.0,
            "service.queue_wait_ms": 0.0,
            "service.victim_p50_ms": 0.0,
        })
        return Rep(
            wall_s=wall,
            gib=result.total_received_bytes / GIB,
            digest=_digest(result.elapsed_ns, snap),
            sim={
                "sim_recv_gib_s": result.receive_throughput_gib_per_node(),
                "sim_job_p50_ms": (result.setup_ns + result.elapsed_ns) / 1e6,
                "jobs": 1,
            },
            counts=counts,
            attempted=1,
            failed=1 if errors else 0,
            errors=errors,
        )


@dataclass(frozen=True)
class ServiceWorkload:
    """One ``ShuffleService`` run of the svc-tenants quota shape per
    repetition: a MESQ/SR victim and MEMQ/SR aggressors held to a
    single-endpoint QP quota, fair-share admission, seeded arrivals."""

    name: str
    network: NetworkConfig
    nodes: int
    threads: int
    qp_cache_entries: int
    bytes_per_job: int
    jobs_per_tenant: int
    mean_interarrival_ns: int
    victim: Tuple[str, str] = ("tenant-a", "MESQ/SR")
    aggressors: Tuple[Tuple[str, str], ...] = (
        ("tenant-b", "MEMQ/SR"), ("tenant-c", "MEMQ/SR"))

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            network=self.network, num_nodes=self.nodes,
            threads_per_node=self.threads, seed=seed,
        ).with_network(qp_cache_entries=self.qp_cache_entries)

    def tenants(self, small: bool) -> List[TenantSpec]:
        volume = self.threads * TEMPLATE_BYTES if small else self.bytes_per_job
        return [TenantSpec(name=name, design=design, bytes_per_job=volume,
                           mean_interarrival_ns=self.mean_interarrival_ns,
                           jobs=1 if small else self.jobs_per_tenant)
                for name, design in (self.victim,) + self.aggressors]

    def service(self, cluster: Cluster, seed: int,
                small: bool = False) -> ShuffleService:
        quotas = QuotaManager()
        cap = estimate_footprint(self.aggressors[0][1], self.nodes,
                                 self.threads, num_endpoints=1).qps
        for name, _design in self.aggressors:
            quotas.set_quota(name, max_qps=cap)
        specs = self.tenants(small)
        return ShuffleService(
            cluster, specs, policy=FairSharePolicy(), quotas=quotas,
            config=ServiceConfig(max_concurrent=len(specs) + 1, seed=seed))

    def setup_once(self, seed: int, spans: Spans) -> Tuple[float, None]:
        """Host seconds of cluster plus service construction (no stage
        is set up before the first job is admitted)."""
        start = time.perf_counter()
        with spans.span("cluster_build"):
            cluster = Cluster(self.config(seed))
            self.service(cluster, seed)
        elapsed = time.perf_counter() - start
        with spans.span("dispose"):
            cluster.dispose()
        return elapsed, None

    def run_once(self, seed: int, spans: Spans, small: bool = False,
                 sanitize: bool = False) -> Rep:
        with spans.span("cluster_build"):
            cluster = Cluster(self.config(seed))
            if sanitize:
                cluster.enable_sanitizer(strict=True)
            service = self.service(cluster, seed, small)
        try:
            with spans.span("service_run"):
                start = time.perf_counter()
                report = service.run()
                wall = time.perf_counter() - start
            snap = cluster.metrics_snapshot()
            packets = cluster.fabric.delivered_packets
        finally:
            with spans.span("dispose"):
                cluster.dispose()
        return self._rep(service, report, snap, packets, wall)

    def _rep(self, service: ShuffleService, report: Dict[str, Any],
             snap: Dict[str, Any], packets: int, wall: float) -> Rep:
        jobs = service.completed
        attempted = sum(spec.jobs for spec in service.tenants)
        # A job's own check fails that job; a run-wide check fails all.
        errors = [f"job {name} failed" for name in report["failed"]]
        bad = set(report["failed"])
        for job in jobs:
            per_thread = max(TEMPLATE_BYTES,
                             job.tenant.bytes_per_job // self.threads)
            expected = self.nodes * self.threads * per_thread
            if job.bytes_received != expected:
                errors.append(f"job {job.name} received "
                              f"{job.bytes_received} B, expected {expected}")
                bad.add(job.name)
        received = sum(job.bytes_received for job in jobs)
        run_errors = _send_totals_errors(snap, received)
        if len(jobs) + len(report["failed"]) != attempted:
            run_errors.append(f"{len(jobs)} jobs completed and "
                              f"{len(report['failed'])} failed of {attempted}")
        errors += run_errors
        failed = attempted if run_errors else len(bad)

        makespan = snap["fabric"]["sim.now_ns"]
        service_ns = sum(job.meta["service_ns"] for job in jobs)
        setup_ns = [job.finished_ns - job.admitted_ns - job.meta["service_ns"]
                    for job in jobs]
        deferrals = sum(job.deferrals for job in jobs)
        victim = report["tenants"][self.victim[0]]["latency_ns"]
        counts = _layer_counts(snap, packets, makespan)
        counts.update({
            "core.sim_setup_ms": statistics.median(setup_ns) / 1e6,
            "engine.rows": received // ROW_BYTES,
            "service.jobs": len(jobs),
            "service.admit_ratio": len(jobs) / max(1, len(jobs) + deferrals),
            "service.queue_wait_ms": sum(
                job.queue_wait_ns for job in jobs) / 1e6,
            "service.victim_p50_ms": victim["p50"] / 1e6,
        })
        return Rep(
            wall_s=wall,
            gib=received / GIB,
            digest=_digest(makespan, snap, tuple(report["completion_order"])),
            sim={
                "sim_recv_gib_s": (received / GIB / self.nodes) /
                                  (max(1, service_ns) / 1e9),
                "sim_job_p50_ms": statistics.median(
                    job.latency_ns for job in jobs) / 1e6,
                "jobs": len(jobs),
            },
            counts=counts,
            attempted=attempted,
            failed=failed,
            errors=errors,
        )


WORKLOADS = {
    w.name: w for w in (
        StreamingWorkload(
            name="ud-mtu-repartition", network=EDR, nodes=8, threads=8,
            design="MESQ/SR", bytes_per_node=2 * MIB),
        StreamingWorkload(
            name="rd-leafspine", network=EDR, nodes=16, threads=8,
            design="SEMQ/RD", bytes_per_node=8 * MIB,
            topology=LEAF_SPINE(oversubscription=2, nodes_per_leaf=8)),
        ServiceWorkload(
            name="svc-tenants", network=FDR, nodes=8, threads=4,
            qp_cache_entries=64, bytes_per_job=2 * MIB, jobs_per_tenant=2,
            mean_interarrival_ns=60_000_000),
    )
}
