"""Per-node verbs device context.

One :class:`VerbsContext` exists per node — the equivalent of an opened
``ibv_context`` plus its protection domain.  It creates Queue Pairs and
Completion Queues, registers memory with pinning-time accounting, and
resolves remote contexts for the transport state machines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.fabric.network import Fabric
from repro.sim import Simulator
from repro.verbs.constants import QPType, VerbsError
from repro.verbs.cq import CompletionQueue
from repro.verbs.memory import AddressSpace, MemoryRegion
from repro.verbs.qp import QueuePair

__all__ = ["VerbsContext"]


class VerbsContext:
    """The verbs interface of one node's adapter."""

    def __init__(self, sim: Simulator, fabric: Fabric, node_id: int):
        if node_id in fabric.verbs_contexts:
            raise VerbsError(f"node {node_id} already has a verbs context")
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.node = fabric.node(node_id)
        self.nic = self.node.nic
        self.config = fabric.config
        #: the fabric's probe bus, shared with every QP, CQ and memory
        #: region this context creates.
        self.probes = fabric.probes
        self.memory = AddressSpace(node_id)
        self.memory.probes = self.probes
        self._qps: Dict[int, QueuePair] = {}
        self._cqs: List[CompletionQueue] = []
        self._qpn_counter = 0
        self.qps_created = 0
        #: cumulative simulated time spent pinning/registering memory.
        self.mr_register_ns = 0
        fabric.verbs_contexts[node_id] = self

    @property
    def telemetry(self):
        """The cluster's telemetry bundle."""
        return self.fabric.telemetry

    def dispose(self) -> None:
        """Break this context's QP<->CQ<->endpoint reference cycles.

        Called on end-of-query teardown (see :meth:`Cluster.dispose`);
        the context is unusable afterwards.
        """
        for qp in self._qps.values():
            qp.send_cq = None
            qp.recv_cq = None
        for cq in self._cqs:
            cq.dispose()
        self._qps.clear()
        self._cqs.clear()

    # -- object creation ---------------------------------------------------

    def _assign_qpn(self, qp: QueuePair) -> int:
        # Node-unique QPNs offset by node id make cross-node logs readable.
        self._qpn_counter += 1
        qpn = self.node_id * 1_000_000 + self._qpn_counter
        self._qps[qpn] = qp
        self.qps_created += 1
        return qpn

    def create_cq(self, depth: int = 4096) -> CompletionQueue:
        cq = CompletionQueue(self.sim, depth)
        cq.node_id = self.node_id
        cq.probes = self.probes
        self._cqs.append(cq)
        return cq

    def create_qp(self, qp_type: QPType, send_cq: CompletionQueue,
                  recv_cq: CompletionQueue, max_send_wr: int = 1024,
                  max_recv_wr: int = 4096,
                  tenant: Optional[str] = None) -> QueuePair:
        """``ibv_create_qp``.  Control-path time is charged by the caller
        (see :mod:`repro.verbs.cm`), keeping this immediate for tests.

        ``tenant`` tags the QP for service-layer accounting; a
        ``qp_create`` subscriber (the quota arbiter) may veto it by
        raising, and the QP is rolled back before propagating.
        """
        qp = QueuePair(self, qp_type, send_cq, recv_cq,
                       max_send_wr, max_recv_wr)
        qp.tenant = tenant
        hook = self.probes.qp_create
        if hook is not None:
            try:
                hook(self.node_id, tenant, qp)
            except Exception:
                del self._qps[qp.qpn]
                self.qps_created -= 1
                raise
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """``ibv_destroy_qp``: drop the QP and its cached NIC context.

        Used by end-of-job teardown in the multi-tenant service; the QP
        must be quiesced (no completions in flight).
        """
        self._qps.pop(qp.qpn, None)
        qp.send_cq = None
        qp.recv_cq = None
        self.nic.qp_cache.evict(qp.qpn)
        hook = self.probes.qp_destroy
        if hook is not None:
            hook(self.node_id, qp.tenant, qp)

    def release_cq(self, cq: CompletionQueue) -> None:
        """Drop a completion queue created by :meth:`create_cq`."""
        if cq in self._cqs:
            self._cqs.remove(cq)
            cq.dispose()

    def qp(self, qpn: int) -> QueuePair:
        try:
            return self._qps[qpn]
        except KeyError:
            raise VerbsError(f"no QP {qpn} on node {self.node_id}") from None

    def mcast_attach(self, mgid: int, qp: QueuePair) -> None:
        """``ibv_attach_mcast``: join a UD QP to a multicast group."""
        if qp.qp_type is not QPType.UD:
            raise VerbsError("only UD QPs can join multicast groups")
        self.fabric.mcast_attach(mgid, self.node_id, qp.qpn)

    def mcast_detach(self, mgid: int, qp: QueuePair) -> None:
        self.fabric.mcast_detach(mgid, self.node_id, qp.qpn)

    def peer_context(self, node_id: int) -> "VerbsContext":
        try:
            return self.fabric.verbs_contexts[node_id]
        except KeyError:
            raise VerbsError(f"node {node_id} has no verbs context") from None

    # -- memory registration -------------------------------------------------

    def reg_mr(self, length: int,
               tenant: Optional[str] = None) -> MemoryRegion:
        """Register ``length`` bytes (immediate; no time charged).

        ``tenant`` tags the region for service-layer accounting; an
        ``mr_reg`` subscriber (the quota arbiter) may veto it by raising,
        and the region is rolled back before propagating.
        """
        mr = self.memory.register(length)
        mr.tenant = tenant
        hook = self.probes.mr_reg
        if hook is not None:
            try:
                hook(self.node_id, tenant, mr)
            except Exception:
                self.memory.deregister(mr)
                raise
        return mr

    def reg_mr_timed(self, length: int, tenant: Optional[str] = None):
        """Process fragment: register memory, charging pin time.

        Usage: ``mr = yield from ctx.reg_mr_timed(nbytes)``.
        """
        config = self.config
        pages = max(1, -(-length // config.page_size))
        cost = config.mr_register_base_ns + pages * config.mr_register_ns_per_page
        self.mr_register_ns += cost
        yield int(cost)
        return self.reg_mr(length, tenant=tenant)

    def dereg_mr(self, mr: MemoryRegion) -> None:
        self.memory.deregister(mr)
        hook = self.probes.mr_dereg
        if hook is not None:
            hook(self.node_id, mr.tenant, mr)

    def dereg_mr_timed(self, mr: MemoryRegion):
        """Process fragment: deregister memory, charging unpin time."""
        pages = max(1, -(-mr.length // self.config.page_size))
        yield int(pages * self.config.mr_deregister_ns_per_page)
        self.dereg_mr(mr)

    # -- accounting ------------------------------------------------------------

    @property
    def registered_bytes(self) -> int:
        return self.memory.registered_bytes

    @property
    def peak_registered_bytes(self) -> int:
        return self.memory.peak_registered_bytes
