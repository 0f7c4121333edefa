"""Per-stage shuffle policies: choosing an endpoint design from context.

The paper's central result is that *no single endpoint design wins
everywhere* (§5, Table 1): the MQ designs dominate while their Queue
Pair working set fits the NIC's context cache and collapse beyond it
(Fig 10/11), RC needs large messages to amortize round trips (Fig 9),
and a single UD Queue Pair serializes under thread contention.  The
bench drivers and the multi-tenant service used to hard-wire a design
*string* through ``Cluster.shuffle_stage`` / ``ShuffleStage`` /
``service.scheduler``; this module turns that choice into a first-class
object:

* :class:`StageContext` — everything known about a stage before it
  runs: cluster shape, message-size estimate, topology and
  oversubscription, tenant quota caps, and a live
  :class:`TelemetrySnapshot`.
* :class:`StagePlan` — what a policy decides: the design (endpoint
  kind + endpoint count) plus optional credit/window parameter
  overrides, and, for two-phase leaf-spine shuffles, a nested
  inter-leaf plan.
* :class:`ShufflePolicy` — ``plan(ctx) -> StagePlan``, with an
  :meth:`~ShufflePolicy.observe` hook the service scheduler feeds
  measured telemetry between jobs so a policy can re-plan mid-run.

Three built-in policies: :class:`StaticPolicy` reproduces the legacy
fixed-design paths bit-for-bit, :class:`AdaptivePolicy` encodes the
fig8–fig11 measurement grid as a rule table plus observed-telemetry
overrides, and :class:`HierarchicalPolicy` decomposes a repartition on
an oversubscribed leaf-spine fabric into an intra-leaf exchange plus
coordinated inter-leaf streams (one active stream per leaf pair).

This module (with :mod:`repro.core.designs`) is the *only* place that
may dispatch on raw design strings — lint rule VS110 enforces that the
rest of the tree goes through :func:`resolve_design` / plans.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.designs import DESIGNS, Design, resolve_design
from repro.core.endpoint import EndpointConfig

__all__ = [
    "TelemetrySnapshot",
    "StageContext",
    "StagePlan",
    "ShufflePolicy",
    "StaticPolicy",
    "AdaptivePolicy",
    "HierarchicalPolicy",
    "SHUFFLE_POLICIES",
    "parse_policy",
    "plan_footprint",
]


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TelemetrySnapshot:
    """The three live signals a policy may react to.

    All values are cumulative-to-now ratios, so repeated runs with one
    seed produce identical snapshots at identical simulated times.
    """

    #: aggregate NIC QP-context-cache miss rate (0..1) — the Fig 10/11
    #: collapse signal.
    qp_cache_miss_rate: float = 0.0
    #: share of total worker-thread time spent stalled for flow-control
    #: credit (0..1) — the §5.1.1 starvation signal.
    credit_stall_share: float = 0.0
    #: peak switch-trunk utilization (0..1); 0 on single-switch fabrics.
    trunk_utilization: float = 0.0

    @classmethod
    def from_cluster(cls, cluster: Any) -> "TelemetrySnapshot":
        """Harvest the cumulative counters of a live cluster."""
        from repro.telemetry.core import nic_cache_stats
        miss_rate = nic_cache_stats(cluster)["miss_rate"]
        sim = cluster.sim
        stall_share = 0.0
        budget = sim.now * cluster.threads_per_node * cluster.num_nodes
        if budget > 0:
            stall_share = min(
                1.0, cluster.telemetry.credit_wait_ns / budget)
        trunk = 0.0
        topology = getattr(cluster.fabric, "topology", None)
        if topology is not None and sim.now > 0:
            trunk = max(
                (min(1.0, port.pipe.busy_ns / sim.now)
                 for port in topology.ports()),
                default=0.0)
        return cls(qp_cache_miss_rate=miss_rate,
                   credit_stall_share=stall_share,
                   trunk_utilization=trunk)


@dataclass(frozen=True)
class StageContext:
    """Everything a policy may consult when planning one stage."""

    num_nodes: int
    threads: int
    #: expected transfer message size (the workload's EndpointConfig).
    message_size: int = 64 * 1024
    #: per-node shuffle volume estimate (0: unknown).
    bytes_per_node: int = 0
    #: "repartition" or "broadcast" (Fig 3 traffic patterns).
    pattern: str = "repartition"
    #: network parameters the rule table keys on.
    mtu: int = 4096
    qp_cache_entries: int = 1024
    network: str = ""
    #: switch wiring (matches :class:`repro.fabric.config.TopologySpec`).
    topology_kind: str = "single-switch"
    oversubscription: int = 1
    nodes_per_leaf: int = 4
    #: tenant quota caps (None: unlimited) — the clamping inputs that
    #: used to live in ``service/scheduler.py``.
    max_qps: Optional[int] = None
    max_registered_bytes: Optional[int] = None
    #: caller's endpoint-count override (None: the design's natural k).
    num_endpoints: Optional[int] = None
    #: caller's base endpoint configuration (None: defaults).
    base_config: Optional[EndpointConfig] = None
    #: whether the runner can execute a two-phase (hierarchical) plan;
    #: only the workload runners can, the service scheduler cannot.
    allow_hierarchical: bool = False
    #: live cluster telemetry at planning time.
    telemetry: Optional[TelemetrySnapshot] = None

    @classmethod
    def from_cluster(cls, cluster: Any, *,
                     message_size: Optional[int] = None,
                     bytes_per_node: int = 0,
                     pattern: str = "repartition",
                     config: Optional[EndpointConfig] = None,
                     num_endpoints: Optional[int] = None,
                     max_qps: Optional[int] = None,
                     max_registered_bytes: Optional[int] = None,
                     allow_hierarchical: bool = False,
                     telemetry: Optional[TelemetrySnapshot] = None,
                     ) -> "StageContext":
        """Build a context from a live :class:`~repro.cluster.Cluster`."""
        net = cluster.config.network
        spec = cluster.config.topology
        if message_size is None:
            message_size = (config or EndpointConfig()).message_size
        return cls(
            num_nodes=cluster.num_nodes,
            threads=cluster.threads_per_node,
            message_size=message_size,
            bytes_per_node=bytes_per_node,
            pattern=pattern,
            mtu=net.mtu,
            qp_cache_entries=net.qp_cache_entries,
            network=net.name,
            topology_kind=spec.kind,
            oversubscription=spec.oversubscription,
            nodes_per_leaf=spec.nodes_per_leaf,
            max_qps=max_qps,
            max_registered_bytes=max_registered_bytes,
            num_endpoints=num_endpoints,
            base_config=config,
            allow_hierarchical=allow_hierarchical,
            telemetry=telemetry,
        )

    @property
    def num_leaves(self) -> int:
        if self.topology_kind != "leaf-spine":
            return 1
        return -(-self.num_nodes // self.nodes_per_leaf)

    @property
    def capped(self) -> bool:
        return self.max_qps is not None or \
            self.max_registered_bytes is not None


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagePlan:
    """A policy's decision for one stage.

    ``design`` names a registered :class:`~repro.core.designs.Design`
    (the endpoint kind + endpoint-multiplicity pair); the optional
    fields override the workload's base :class:`EndpointConfig` only
    where set, so an all-``None`` plan runs exactly like the legacy
    design-string path.
    """

    design: str
    #: endpoint count (None: the design's natural count).
    num_endpoints: Optional[int] = None
    #: credit/window parameter overrides (None: keep the caller's).
    credit_frequency: Optional[int] = None
    buffers_per_connection: Optional[int] = None
    message_size: Optional[int] = None
    #: two-phase leaf-spine decomposition: when set, the stage runs as
    #: an intra-leaf exchange (this plan's design) plus coordinated
    #: inter-leaf streams described by this nested flat plan.
    inter: Optional["StagePlan"] = None
    #: concurrently active inter-leaf senders per source leaf (matches
    #: the trunk rate: ~nodes_per_leaf / oversubscription).
    inter_concurrency: int = 1
    #: False: even a single-endpoint stage exceeds the tenant's caps.
    runnable: bool = True
    #: True: ``num_endpoints`` was clamped below the natural count to
    #: fit the tenant's quota (the svc-tenants isolation lever).
    clamped: bool = False
    #: human-readable why (trace events, job metadata, reports).
    reason: str = ""

    def __post_init__(self):
        resolve_design(self.design)
        if self.inter is not None and self.inter.inter is not None:
            raise ValueError("inter-leaf plans cannot nest further")

    @property
    def hierarchical(self) -> bool:
        return self.inter is not None

    @property
    def endpoint_kind(self) -> str:
        """The transport kind this plan resolves to (registry lookup)."""
        return resolve_design(self.design).endpoint_kind

    def resolve(self) -> Design:
        return resolve_design(self.design)

    def apply(self, base: Optional[EndpointConfig] = None) -> EndpointConfig:
        """Overlay this plan's parameter overrides on ``base``.

        Returns ``base`` unchanged (identity) when the plan overrides
        nothing — the bit-compatibility guarantee of StaticPolicy.
        """
        config = base if base is not None else EndpointConfig()
        changes: Dict[str, Any] = {}
        if self.credit_frequency is not None:
            changes["credit_frequency"] = self.credit_frequency
        if self.buffers_per_connection is not None:
            changes["buffers_per_connection"] = self.buffers_per_connection
        if self.message_size is not None:
            changes["message_size"] = self.message_size
        if not changes:
            return config
        return dataclasses.replace(config, **changes)

    def describe(self) -> str:
        if self.hierarchical:
            assert self.inter is not None
            return (f"{self.design}+{self.inter.design}/hier"
                    f"(x{self.inter_concurrency})")
        return self.design


# ---------------------------------------------------------------------------
# footprint estimation (moved here from service/quota.py so admission,
# clamping, and planning share one formula)
# ---------------------------------------------------------------------------


def plan_footprint(design: Any, nodes: int, threads: int,
                   num_endpoints: Optional[int] = None,
                   config: Optional[EndpointConfig] = None
                   ) -> Tuple[int, int]:
    """Generous cluster-wide ``(qps, registered_bytes)`` estimate.

    Mirrors the stage's config derivation (UD MTU cap and window
    factor, per-endpoint thread split), then applies a 2x safety margin
    so admission — which compares this estimate against a tenant's
    remaining headroom — over-rejects rather than admitting a job the
    hard verbs-layer cap would kill halfway through setup.  The
    conformance test asserts estimate >= actual for every design.
    """
    d = resolve_design(design)
    k = num_endpoints or d.num_endpoints(threads)
    base = config or EndpointConfig()
    threads_per_ep = -(-threads // k)
    message_size = base.message_size
    buffers = base.buffers_per_connection
    if d.uses_ud:
        buffers *= base.ud_window_factor
    # message_size is capped at the MTU for UD, but keeping the uncapped
    # value only makes the estimate more generous.
    per_ep_qps = 1 if d.uses_ud else nodes
    qps = 2 * nodes * k * per_ep_qps
    window = buffers * threads_per_ep * message_size
    # send pool (window x groups) + recv pool (window x sources) per
    # node, plus aux pools/boards absorbed by the margin.
    registered = 2 * nodes * k * nodes * window
    return 2 * qps, 2 * registered


def _clamp_plan(plan: StagePlan, ctx: StageContext) -> StagePlan:
    """Clamp a flat plan's endpoint count to fit the tenant's caps.

    The isolation lever of the svc-tenants ablation, moved here from
    ``ShuffleService._effective_endpoints``: under a quota the count is
    walked down toward single-endpoint until the estimated footprint of
    one job fits the cap *alone* (an MQ tenant degrades toward SQ
    instead of monopolizing the NIC context cache).  Marks the plan
    ``runnable=False`` when even a single-endpoint job cannot fit.
    """
    if not ctx.capped or plan.hierarchical:
        return plan
    design = resolve_design(plan.design)
    natural = plan.num_endpoints or design.num_endpoints(ctx.threads)
    config = plan.apply(ctx.base_config)
    for candidate in range(natural, 0, -1):
        qps, registered = plan_footprint(
            design, ctx.num_nodes, ctx.threads,
            num_endpoints=candidate, config=config)
        if ctx.max_qps is not None and qps > ctx.max_qps:
            continue
        if ctx.max_registered_bytes is not None and \
                registered > ctx.max_registered_bytes:
            continue
        if candidate == natural and plan.num_endpoints is None:
            return plan
        return dataclasses.replace(
            plan, num_endpoints=candidate,
            clamped=candidate < natural,
            reason=(f"{plan.reason}; clamped to k={candidate} under "
                    f"tenant caps" if candidate < natural else plan.reason))
    return dataclasses.replace(
        plan, num_endpoints=1, runnable=False,
        reason=f"{plan.reason}; unrunnable: single-endpoint footprint "
               f"exceeds tenant caps")


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class ShufflePolicy:
    """Base class: map a :class:`StageContext` to a :class:`StagePlan`.

    ``plan`` must be deterministic in its inputs (context plus any state
    accumulated through :meth:`observe`) — repeated runs with one seed
    must produce identical plans, which the policy-determinism tests
    assert.
    """

    name = "policy"

    def plan(self, ctx: StageContext) -> StagePlan:
        raise NotImplementedError

    def observe(self, observed: TelemetrySnapshot) -> None:
        """Feed measured telemetry back (between service jobs)."""

    def describe(self) -> str:
        return self.name


class StaticPolicy(ShufflePolicy):
    """The legacy fixed-design path, as a policy object.

    Plans are bit-identical to passing the design string directly: no
    parameter overrides, the same quota clamp the scheduler used to
    apply inline.
    """

    name = "static"

    def __init__(self, design: Any, num_endpoints: Optional[int] = None):
        self.design = resolve_design(design)
        self.num_endpoints = num_endpoints

    def plan(self, ctx: StageContext) -> StagePlan:
        plan = StagePlan(
            design=self.design.name,
            num_endpoints=self.num_endpoints or ctx.num_endpoints,
            reason=f"static: fixed design {self.design.name}")
        return _clamp_plan(plan, ctx)

    def describe(self) -> str:
        return f"static:{self.design.name}"


class AdaptivePolicy(ShufflePolicy):
    """Rule-table design selection from the fig8–fig11 measurement grid.

    The predictive rules (applied in order; EXPERIMENTS.md records the
    measurements they are fitted to):

    1. *Datagram-sized messages* → ``MESQ/SR``.  At or below the MTU,
       RC pays a round trip per message with nothing to amortize it
       (fig9: the RC designs lose 25–40% of their 64 KiB throughput at
       4 KiB), while UD is built for exactly this message size.
    2. *Starved message windows* → ``MESQ/SR``.  When the per
       thread-destination flow (``bytes_per_node / (threads * nodes)``)
       cannot fill even one configured message, an RC design's deep
       message buffers drain as serialized partial flushes at EOS; UD
       clamps to the MTU and never starves.
    3. *QP-cache pressure* → ``MESQ/SR``.  An MQ design activates about
       ``2·n·t`` Queue Pair contexts per NIC (send + receive operator);
       once that working set reaches a quarter of the context cache,
       eviction churn sets in well before the cache nominally fills
       (aux QPs, both stages resident) and MQ throughput collapses —
       fig10's FDR n=16 cliff (MEMQ/SR 2.9 vs MESQ/SR 5.2 GiB/s) and
       fig11's EDR n=16 dip.  UD keeps one context per endpoint and is
       immune.
    4. otherwise → ``SEMQ/SR``: the cache-resident RC regime, where
       hardware flow control and big messages win (fig8/fig10 at EDR
       n≤8: 10.5–11.0 GiB/s, ahead of or tied with every alternative)
       at moderate resource cost (Table 1).

    Two observed-telemetry overrides re-plan between service jobs:
    a measured QP-cache miss rate above ``miss_threshold`` forces the
    UD design even where the rules predicted a cache fit (neighbours'
    QPs share the cache; the tenant cannot see them at plan time), and
    a credit-stall share above ``stall_threshold`` deepens the buffer
    window (fig8's starvation mechanism).

    On an oversubscribed leaf-spine fabric (and a runner that supports
    two-phase plans) it delegates to :class:`HierarchicalPolicy`.
    """

    name = "adaptive"

    #: fraction of the QP context cache an MQ working set may use
    #: before the rules predict thrash.
    cache_pressure = 0.25
    #: observed miss rate that forces the UD design on the next plan.
    miss_threshold = 0.15
    #: observed credit-stall share that deepens the window.
    stall_threshold = 0.20
    deep_buffers = 16

    def __init__(self,
                 miss_threshold: Optional[float] = None,
                 stall_threshold: Optional[float] = None,
                 hierarchical: Optional["HierarchicalPolicy"] = None):
        if miss_threshold is not None:
            self.miss_threshold = miss_threshold
        if stall_threshold is not None:
            self.stall_threshold = stall_threshold
        self._hierarchical = hierarchical or HierarchicalPolicy()
        self._observed: Optional[TelemetrySnapshot] = None

    # -- the rule table ----------------------------------------------------

    def _rule_pick(self, ctx: StageContext) -> Tuple[str, str]:
        if ctx.message_size <= ctx.mtu:
            return "MESQ/SR", (
                f"rule: {ctx.message_size} B messages fit a UD datagram "
                f"(MTU {ctx.mtu}); RC round trips have nothing to amortize")
        if ctx.bytes_per_node:
            per_flow = ctx.bytes_per_node // (ctx.threads * ctx.num_nodes)
            if ctx.message_size > per_flow:
                return "MESQ/SR", (
                    f"rule: configured {ctx.message_size} B messages never "
                    f"fill (~{per_flow} B per thread-destination flow); an "
                    f"RC window this deep drains as serialized partial "
                    f"flushes while UD clamps to the MTU")
        working_set = 2 * ctx.num_nodes * ctx.threads
        budget = ctx.qp_cache_entries * self.cache_pressure
        if working_set >= budget:
            return "MESQ/SR", (
                f"rule: MQ working set ~{working_set} QPs >= "
                f"{self.cache_pressure:.0%} of the {ctx.qp_cache_entries}-"
                f"entry QP context cache; UD is immune to the thrash")
        return "SEMQ/SR", (
            f"rule: cache-resident RC regime ({working_set} QPs < "
            f"{budget:.0f}); hardware flow control at moderate cost")

    def plan(self, ctx: StageContext) -> StagePlan:
        if ctx.allow_hierarchical and ctx.topology_kind == "leaf-spine" \
                and ctx.oversubscription > 1 and ctx.num_leaves > 1:
            return self._hierarchical.plan(ctx)
        design, reason = self._rule_pick(ctx)
        buffers: Optional[int] = None
        observed = self._observed
        if observed is not None:
            if observed.qp_cache_miss_rate >= self.miss_threshold:
                design = "MESQ/SR"
                reason = (f"observed: QP-cache miss rate "
                          f"{observed.qp_cache_miss_rate:.2f} >= "
                          f"{self.miss_threshold} (shared cache under "
                          f"pressure); switching to UD")
            elif observed.credit_stall_share >= self.stall_threshold:
                buffers = self.deep_buffers
                reason = (f"{reason}; observed credit-stall share "
                          f"{observed.credit_stall_share:.2f} >= "
                          f"{self.stall_threshold}: deepening window to "
                          f"{buffers} buffers")
        plan = StagePlan(design=design, num_endpoints=ctx.num_endpoints,
                         buffers_per_connection=buffers, reason=reason)
        return _clamp_plan(plan, ctx)

    def observe(self, observed: TelemetrySnapshot) -> None:
        self._observed = observed


class HierarchicalPolicy(ShufflePolicy):
    """Two-phase leaf-spine shuffle: intra-leaf exchange + coordinated
    inter-leaf streams.

    The abl-oversub ablation shows MESQ/SR losing ~40% of its
    repartition throughput at 4:1 trunk oversubscription with the
    trunks only ~70% utilized — the collapse is not pure bandwidth
    starvation but *interference*: m uncoordinated senders per leaf,
    each spraying shallow UD windows across every remote node, leave
    the constrained trunk idle between bursts.  The two-phase plan
    splits the repartition by destination locality:

    * **intra-leaf** traffic (never crosses a trunk) runs the UD design
      at full parallelism;
    * **inter-leaf** traffic runs a deep-window RC design at 64 KiB+
      messages (the Fig 9 sweet spot), with roughly
      ``nodes_per_leaf / oversubscription`` senders per source leaf
      active at a time — matching the senders' aggregate link rate to
      the trunk rate so each active stream can fill the trunk instead
      of queueing against its leaf-mates.  A floor of two concurrent
      streams per leaf keeps the trunk fed through any single stream's
      per-destination stalls (measured: one stream leaves ~8% of the
      trunk idle).

    On a non-leaf-spine fabric (or a runner that cannot execute
    two-phase plans) it degrades to a flat plan of the intra design.
    """

    name = "hierarchical"

    def __init__(self, intra: str = "MESQ/SR", inter: str = "SEMQ/SR",
                 inter_buffers: int = 16):
        self.intra = resolve_design(intra)
        self.inter = resolve_design(inter)
        self.inter_buffers = inter_buffers

    def plan(self, ctx: StageContext) -> StagePlan:
        if not ctx.allow_hierarchical or ctx.topology_kind != "leaf-spine" \
                or ctx.num_leaves < 2 or ctx.pattern != "repartition":
            plan = StagePlan(
                design=self.intra.name, num_endpoints=ctx.num_endpoints,
                reason="hierarchical: flat fallback (no leaf-spine "
                       "locality to exploit here)")
            return _clamp_plan(plan, ctx)
        concurrency = min(
            ctx.nodes_per_leaf,
            max(2, ctx.nodes_per_leaf // ctx.oversubscription))
        inter = StagePlan(
            design=self.inter.name,
            buffers_per_connection=self.inter_buffers,
            message_size=max(ctx.message_size, 64 * 1024),
            reason=f"inter-leaf: deep-window {self.inter.name}")
        plan = StagePlan(
            design=self.intra.name,
            num_endpoints=ctx.num_endpoints,
            inter=inter,
            inter_concurrency=concurrency,
            reason=(f"hierarchical: intra-leaf {self.intra.name} + "
                    f"{concurrency} concurrent inter-leaf "
                    f"{self.inter.name} stream(s) per leaf on the "
                    f"{ctx.oversubscription}:1 fabric"))
        return _clamp_plan(plan, ctx)

    def describe(self) -> str:
        return f"hierarchical:{self.intra.name}+{self.inter.name}"


# ---------------------------------------------------------------------------
# registry / CLI parsing
# ---------------------------------------------------------------------------

SHUFFLE_POLICIES = {
    "adaptive": AdaptivePolicy,
    "hierarchical": HierarchicalPolicy,
}


def parse_policy(spec: Any) -> ShufflePolicy:
    """Turn a ``--policy`` argument into a policy instance.

    Accepts a policy object (returned unchanged), a registered policy
    name (``adaptive``, ``hierarchical``), ``static:<DESIGN>``, or a
    bare design name (shorthand for the static policy).
    """
    if isinstance(spec, ShufflePolicy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"cannot parse policy from {spec!r}")
    factory = SHUFFLE_POLICIES.get(spec)
    if factory is not None:
        return factory()
    name = spec[len("static:"):] if spec.startswith("static:") else spec
    if name in DESIGNS:
        return StaticPolicy(name)
    known: List[str] = sorted(SHUFFLE_POLICIES) + ["static:<DESIGN>"]
    raise ValueError(
        f"unknown policy {spec!r}; expected one of {', '.join(known)} "
        f"or a design name ({', '.join(sorted(DESIGNS))})")
