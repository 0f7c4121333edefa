"""Wiring a shuffle stage across a cluster.

A :class:`ShuffleStage` instantiates, for one producer/consumer operator
pair of a query plan, the SEND and RECEIVE endpoints on every node, wires
the connections (send endpoint *j* on node *s* pairs with receive
endpoint ``j % k_recv`` on each destination node), runs the two-phase
setup (create + publish, then resolve + connect) with per-node timing —
which is exactly what the connection-cost experiment (Fig 12) measures —
and exposes the endpoints for building SHUFFLE / RECEIVE operators.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, \
    Union

from repro.core.designs import Design, resolve_design
from repro.core.endpoint import EndpointConfig, ReceiveEndpoint, SendEndpoint
from repro.core.groups import TransmissionGroups
from repro.fabric.network import Fabric
from repro.sim import AllOf
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policy import StagePlan

__all__ = ["ShuffleStage", "get_context"]

_endpoint_ids = itertools.count(1)


def get_context(fabric: Fabric, node_id: int) -> VerbsContext:
    """Fetch (or lazily create) the verbs context of a node."""
    ctx = fabric.verbs_contexts.get(node_id)
    if ctx is None:
        ctx = VerbsContext(fabric.sim, fabric, node_id)
    return ctx


class ShuffleStage:
    """All endpoints of one shuffle operator pair across the cluster."""

    def __init__(
        self,
        fabric: Fabric,
        design: Union[str, Design, "StagePlan"],
        groups: Union[TransmissionGroups,
                      Callable[[int], TransmissionGroups]],
        config: Optional[EndpointConfig] = None,
        sender_nodes: Optional[Sequence[int]] = None,
        num_endpoints: Optional[int] = None,
        threads: Optional[int] = None,
        registry: Optional[EndpointRegistry] = None,
    ):
        self.fabric = fabric
        #: the plan this stage executes, when one was supplied (a flat
        #: :class:`~repro.core.policy.StagePlan`); its design resolves
        #: through the same eager path as a plain name.
        self.plan: Optional["StagePlan"] = None
        if hasattr(design, "apply"):  # a StagePlan (duck-typed: no cycle)
            plan = design
            if plan.hierarchical:
                raise ValueError(
                    f"plan {plan.describe()!r} is hierarchical; a single "
                    f"ShuffleStage runs flat plans only — use the "
                    f"two-phase runner in repro.bench.workloads")
            self.plan = plan
            num_endpoints = num_endpoints or plan.num_endpoints
            config = plan.apply(config)
            design = plan.design
        # Eager validation: an unknown design name or unregistered
        # endpoint kind fails here with the known-design/kind lists.
        self.design = resolve_design(design)
        self.threads = threads or fabric.cluster.threads_per_node
        self.k = num_endpoints or self.design.num_endpoints(self.threads)
        if self.k > self.threads:
            raise ValueError(
                f"more endpoints ({self.k}) than threads ({self.threads})")
        self.registry = registry if registry is not None else EndpointRegistry()

        if callable(groups):
            self.groups_for: Dict[int, TransmissionGroups] = {}
            group_fn = groups
        else:
            self.groups_for = {}
            group_fn = lambda _node: groups  # noqa: E731 - tiny adapter

        self.sender_nodes = tuple(
            sender_nodes if sender_nodes is not None
            else range(fabric.num_nodes))
        for s in self.sender_nodes:
            self.groups_for[s] = group_fn(s)

        # UD caps the message size at the MTU (§2.2.2) and widens the
        # buffer window to keep comparable in-flight bytes per connection.
        base = config or EndpointConfig()
        threads_per_ep = -(-self.threads // self.k)
        message_size = base.message_size
        buffers = base.buffers_per_connection
        if self.design.uses_ud:
            message_size = min(message_size, fabric.config.mtu)
            buffers = buffers * base.ud_window_factor
        self.config = EndpointConfig(
            message_size=message_size,
            buffers_per_connection=buffers,
            credit_frequency=base.credit_frequency,
            threads_per_endpoint=threads_per_ep,
            drain_timeout_ns=base.drain_timeout_ns,
            ud_window_factor=base.ud_window_factor,
            tenant=base.tenant,
        )

        self.receiver_nodes = tuple(sorted({
            dest
            for s in self.sender_nodes
            for dest in self.groups_for[s].all_destinations
        }))

        # Allocate globally-unique endpoint ids first, then build objects.
        send_ids = {
            (s, j): next(_endpoint_ids)
            for s in self.sender_nodes for j in range(self.k)
        }
        recv_ids = {
            (d, r): next(_endpoint_ids)
            for d in self.receiver_nodes for r in range(self.k)
        }

        #: node -> list of SEND endpoints (index = endpoint slot).
        self.send_endpoints: Dict[int, List[SendEndpoint]] = {}
        #: node -> list of RECEIVE endpoints.
        self.recv_endpoints: Dict[int, List[ReceiveEndpoint]] = {}
        sources: Dict[int, List] = {eid: [] for eid in recv_ids.values()}

        for s in self.sender_nodes:
            ctx = get_context(fabric, s)
            destinations = self.groups_for[s].all_destinations
            endpoints = []
            for j in range(self.k):
                peers = {d: recv_ids[(d, j % self.k)] for d in destinations}
                ep = self.design.send_cls(
                    ctx, send_ids[(s, j)], self.config, destinations,
                    self.groups_for[s].num_groups, peers)
                endpoints.append(ep)
                for d in destinations:
                    sources[peers[d]].append((s, ep.endpoint_id))
            self.send_endpoints[s] = endpoints

        for d in self.receiver_nodes:
            ctx = get_context(fabric, d)
            self.recv_endpoints[d] = [
                self.design.recv_cls(
                    ctx, recv_ids[(d, r)], self.config, sources[recv_ids[(d, r)]])
                for r in range(self.k)
            ]

        #: per-node connection build time, filled in by :meth:`setup`.
        self.setup_ns: Dict[int, int] = {}
        self._disposed = False

    # -- lifecycle ------------------------------------------------------------

    def _node_endpoints(self, node: int) -> List:
        return (self.send_endpoints.get(node, []) +
                self.recv_endpoints.get(node, []))

    def setup(self):
        """Process fragment: run two-phase setup, recording per-node time.

        Endpoints on one node set up sequentially (one control thread per
        node, as in the real system); nodes proceed in parallel.
        """
        sim = self.fabric.sim
        nodes = sorted(set(self.sender_nodes) | set(self.receiver_nodes))
        start = sim.now

        def phase1(node):
            for ep in self._node_endpoints(node):
                yield from ep.setup(self.registry)
            return sim.now - start

        procs = [sim.process(phase1(n), name=f"stage-setup-{n}") for n in nodes]
        phase1_ns = yield AllOf(sim, procs)

        def phase2(node):
            for ep in self._node_endpoints(node):
                yield from ep.connect(self.registry)
            return sim.now

        mid = sim.now
        procs = [sim.process(phase2(n), name=f"stage-connect-{n}") for n in nodes]
        ends = yield AllOf(sim, procs)
        for node, p1, end in zip(nodes, phase1_ns, ends):
            self.setup_ns[node] = p1 + (end - mid)
        return self.setup_ns

    def dispose(self) -> None:
        """Tear down this stage's transport resources (idempotent).

        Destroys every Queue Pair (evicting its NIC-cached context),
        deregisters the stage's pinned memory, releases completion
        queues, unpublishes the endpoints from the registry, and folds
        their counters into the telemetry's per-node totals — the
        per-job teardown the multi-tenant service relies on to reuse one
        cluster for a stream of jobs.  The stage must be quiesced: call
        only after the job's fragments have completed (plus a drain
        grace if other jobs keep the simulation running).
        """
        if self._disposed:
            return
        self._disposed = True
        telemetry = self.fabric.telemetry
        nodes = sorted(set(self.sender_nodes) | set(self.receiver_nodes))
        for node in nodes:
            for ep in self._node_endpoints(node):
                telemetry.retire_endpoint(ep)
            ctx = self.fabric.verbs_contexts.get(node)
            if ctx is None:
                continue
            for ep in self._node_endpoints(node):
                for qp in {qp.qpn: qp for qp in ep.qps()}.values():
                    ctx.destroy_qp(qp)
                for mr in ep.registered_regions():
                    if not mr.deregistered:
                        ctx.dereg_mr(mr)
                cq = getattr(ep, "cq", None)
                if cq is not None:
                    ctx.release_cq(cq)
                self.registry.unpublish_endpoint(ep.endpoint_id)

    @property
    def max_setup_ns(self) -> int:
        return max(self.setup_ns.values()) if self.setup_ns else 0

    # -- introspection -----------------------------------------------------------

    def qps_created(self, node: int) -> int:
        """Queue Pairs this stage created on ``node``."""
        return sum(len(ep.qps()) for ep in self._node_endpoints(node))

    def registered_bytes(self, node: int) -> int:
        """Registered memory currently pinned on ``node`` by this stage."""
        return sum(mr.length
                   for ep in self._node_endpoints(node)
                   for mr in ep.registered_regions())
