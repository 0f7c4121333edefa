"""The shuffle service: open-loop job streams on one shared fabric.

The paper evaluates one shuffle at a time on a dedicated cluster; a
parallel database *service* runs many concurrent queries from several
tenants on one fabric.  :class:`ShuffleService` closes that gap:

* per-tenant arrival processes push :class:`~repro.service.jobs.Job`\\ s
  onto a :class:`~repro.service.jobs.JobQueue` (open loop, seeded
  exponential gaps — deterministic across runs);
* a scheduler sim-process admits jobs under a pluggable admission
  policy (:class:`FifoPolicy` / :class:`FairSharePolicy`) and a
  concurrency limit, optionally arbitrated by a
  :class:`~repro.service.quota.QuotaManager` (defer while a tenant's
  headroom is exhausted);
* each job is *planned* by its tenant's
  :class:`~repro.core.policy.ShufflePolicy` (a StaticPolicy of the
  tenant's fixed design unless the spec carries one): the policy picks
  the design, clamps the endpoint count under the tenant's caps (an MQ
  tenant degrades toward SQ rather than monopolizing the NIC's context
  cache), and — fed measured telemetry between jobs via
  :meth:`~repro.core.policy.ShufflePolicy.observe` — may switch designs
  mid-run when QP-cache misses or credit stalls cross its thresholds;
* each admitted job builds a tenant-tagged
  :class:`~repro.core.stage.ShuffleStage` from its plan, runs the §5.1
  repartition fragments, harvests per-tenant transport stats (bytes,
  credit stalls, QP-cache misses), and tears the stage down (PR 7
  dispose discipline) so the next job starts from clean NIC state.

Everything is simulated time; repeated runs with one seed reproduce the
same completion order and metrics bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.cluster import Cluster
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.receive import ReceiveOperator
from repro.core.policy import (
    StageContext,
    StagePlan,
    StaticPolicy,
    TelemetrySnapshot,
)
from repro.core.shuffle import ShuffleOperator, striped_partitioner
from repro.engine.fragment import CountSink, QueryFragment, run_fragments
from repro.engine.scan import RepeatedSourceOperator
from repro.sim import AllOf
from repro.telemetry.metrics import latency_summary

from repro.service.jobs import Job, JobQueue, TenantSpec
from repro.service.quota import (
    Footprint,
    QuotaExceededError,
    QuotaManager,
    estimate_footprint,
)

__all__ = [
    "ServiceConfig",
    "FifoPolicy",
    "FairSharePolicy",
    "POLICIES",
    "ShuffleService",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduler tunables."""

    #: jobs allowed in flight simultaneously (placement slots).
    max_concurrent: int = 2
    #: seed for the per-tenant arrival processes.
    seed: int = 1
    #: quiesce window between a job's last fragment completing and its
    #: stage teardown: trailing completions (RC acks, credit write-backs)
    #: must land while the job's QPs and MRs still exist.
    teardown_grace_ns: int = 2_000_000


class FifoPolicy:
    """Strict arrival order; a blocked head of line blocks everyone."""

    name = "fifo"

    def pick(self, service: "ShuffleService",
             pending: List[Job]) -> Optional[Job]:
        if not pending:
            return None
        head = pending[0]
        return head if service.headroom_ok(head) else None


class FairSharePolicy:
    """Least-served tenant first, skipping quota-blocked jobs.

    "Served" counts admitted jobs; ties break on tenant name, then
    arrival order — fully deterministic.
    """

    name = "fair"

    def pick(self, service: "ShuffleService",
             pending: List[Job]) -> Optional[Job]:
        candidates = [job for job in pending if service.headroom_ok(job)]
        if not candidates:
            return None
        return min(candidates, key=lambda job: (
            service.started_by_tenant.get(job.tenant.name, 0),
            job.tenant.name,
            job.arrival_ns,
            job.index,
        ))


POLICIES = {"fifo": FifoPolicy, "fair": FairSharePolicy}


class ShuffleService:
    """Run N tenants' open-loop shuffle streams on one shared cluster."""

    def __init__(self, cluster: Cluster, tenants: List[TenantSpec],
                 policy: Optional[Any] = None,
                 quotas: Optional[QuotaManager] = None,
                 config: Optional[ServiceConfig] = None):
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.tenants = list(tenants)
        self.policy = policy if policy is not None else FifoPolicy()
        self.config = config or ServiceConfig()
        self.quotas = quotas
        if quotas is not None:
            cluster.enable_quotas(quotas)
        self.queue = JobQueue(self.sim)
        #: jobs in completion order (the determinism-regression surface).
        self.completed: List[Job] = []
        self.completion_order: List[str] = []
        self.failed: List[Job] = []
        self.started_by_tenant: Dict[str, int] = {}
        self.running = 0
        #: per-tenant shuffle policies: the tenant's own, or a
        #: StaticPolicy of its fixed design (bit-identical to the
        #: historical inline design/clamp logic).
        self._policies = {
            t.name: (t.policy if t.policy is not None
                     else StaticPolicy(t.design,
                                       num_endpoints=t.num_endpoints))
            for t in tenants
        }
        #: the plan each admitted job was reserved under, so admission
        #: accounting and execution cannot diverge for adaptive tenants.
        self._plans: Dict[str, StagePlan] = {}
        #: stage plans made so far (the ``service.policy_decisions``
        #: metric).
        self.policy_decisions = 0
        #: footprints reserved by admitted-but-unfinished jobs, so two
        #: concurrent admissions of one tenant cannot overshoot its cap.
        self._reserved: Dict[str, List[Footprint]] = {}
        #: every QPN a tenant's jobs ever created (QPNs are not reused,
        #: so per-job cache-miss attribution is exact after the fact).
        self._job_qpns: Dict[str, set] = {}
        #: QP-context cache misses per QPN on every NIC, counted by the
        #: ``qp_miss`` probe (QPNs are unique across the cluster).
        self._misses_by_qpn: Dict[int, int] = {}
        cluster.fabric.probes.subscribe("qp_miss", self._count_miss)
        telemetry = cluster.telemetry
        telemetry.register_callback("service.policy_decisions",
                                    lambda: self.policy_decisions)
        telemetry.register_callback("service_tenants",
                                    self._telemetry_callback)

    # -- planning & quota headroom ------------------------------------------

    def stage_context(self, tenant: TenantSpec) -> StageContext:
        """The :class:`StageContext` a job of ``tenant`` plans against:
        cluster shape, the tenant's quota caps (the clamping inputs),
        and a live telemetry snapshot for adaptive policies."""
        quota = self.quotas.quota(tenant.name) \
            if self.quotas is not None else None
        return StageContext.from_cluster(
            self.cluster,
            message_size=(tenant.config or EndpointConfig()).message_size,
            bytes_per_node=tenant.bytes_per_job,
            config=tenant.config,
            num_endpoints=tenant.num_endpoints,
            max_qps=quota.max_qps if quota is not None else None,
            max_registered_bytes=(quota.max_registered_bytes
                                  if quota is not None else None),
            telemetry=TelemetrySnapshot.from_cluster(self.cluster),
        )

    def plan_for(self, tenant: TenantSpec) -> StagePlan:
        """Plan one job of ``tenant`` right now (clamping included).

        The per-design endpoint-count/clamping logic that used to be
        duplicated here and in ``service/quota.py`` now lives once, in
        the policy layer (:func:`repro.core.policy.plan_footprint` and
        the policies' quota clamp).
        """
        return self._policies[tenant.name].plan(self.stage_context(tenant))

    def job_footprint(self, job: Job,
                      plan: Optional[StagePlan] = None) -> Footprint:
        if plan is None:
            plan = self._plans.get(job.name) or self.plan_for(job.tenant)
        return estimate_footprint(
            plan.design, self.cluster.num_nodes,
            self.cluster.threads_per_node,
            num_endpoints=plan.num_endpoints,
            config=plan.apply(job.tenant.config))

    def headroom_ok(self, job: Job) -> bool:
        """May ``job`` be admitted right now under its tenant's caps?"""
        if self.quotas is None:
            return True
        tenant = job.tenant.name
        plan = self.plan_for(job.tenant)
        if not plan.runnable:
            return False
        fp = self.job_footprint(job, plan=plan)
        reserved = self._reserved.get(tenant, [])
        combined = Footprint(
            qps=fp.qps + sum(r.qps for r in reserved),
            registered_bytes=(fp.registered_bytes +
                              sum(r.registered_bytes for r in reserved)),
        )
        ok = self.quotas.can_admit(tenant, combined)
        if not ok:
            job.deferrals += 1
        return ok

    # -- the sim processes --------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Drive the whole service run to completion; returns the report."""
        return self.cluster.run_process(self._main(), name="service")

    def _main(self):
        sim = self.sim
        arrivals = [
            sim.process(self._arrivals(idx, tenant),
                        name=f"arrivals-{tenant.name}")
            for idx, tenant in enumerate(self.tenants)
        ]
        scheduler = sim.process(self._scheduler(), name="scheduler")
        yield AllOf(sim, arrivals)
        self.queue.close()
        yield scheduler
        return self.report()

    def _arrivals(self, index: int, tenant: TenantSpec):
        # Seeded by tenant *index*, never by name hashes: str hashes vary
        # with PYTHONHASHSEED and would break run-to-run determinism.
        rng = random.Random(self.config.seed * 1_000_003 + index)
        for i in range(tenant.jobs):
            gap = max(1, int(rng.expovariate(
                1.0 / tenant.mean_interarrival_ns)))
            yield gap
            self.queue.push(Job(tenant=tenant, index=i))

    def _scheduler(self):
        cfg = self.config
        while True:
            while self.running < cfg.max_concurrent:
                job = self.policy.pick(self, self.queue.peek_all())
                if job is None:
                    break
                self.queue.remove(job)
                self._admit(job)
            if self.queue.closed and self.running == 0:
                if not len(self.queue):
                    return
                # Nothing running, nothing admissible, no more arrivals:
                # the remaining jobs can never run (caps below even a
                # clamped single-endpoint footprint).  Fail them loudly
                # rather than hanging the simulation.
                for job in self.queue.peek_all():
                    self.queue.remove(job)
                    job.meta["failed"] = 1
                    self.failed.append(job)
                return
            yield self.queue.wait()

    def _admit(self, job: Job) -> None:
        tenant = job.tenant.name
        job.admitted_ns = self.sim.now
        self.started_by_tenant[tenant] = \
            self.started_by_tenant.get(tenant, 0) + 1
        # Plan once at admission: the same plan backs the reservation,
        # the decision trace, and the stage the job runs.
        plan = self.plan_for(job.tenant)
        self._plans[job.name] = plan
        self._record_decision(job, plan)
        if self.quotas is not None:
            self._reserved.setdefault(tenant, []).append(
                self.job_footprint(job, plan=plan))
        self.running += 1
        self.sim.process(self._run_job(job), name=f"job-{job.name}")

    def _record_decision(self, job: Job, plan: StagePlan) -> None:
        """Policy-decision telemetry: a counter, job metadata, and the
        ``stage_plan`` probe (a trace instant on the scheduler track
        while tracing)."""
        self.policy_decisions += 1
        job.meta["design"] = plan.design
        job.meta["policy"] = self._policies[job.tenant.name].describe()
        hook = self.cluster.fabric.probes.stage_plan
        if hook is not None:
            hook(job.name, plan)

    def _run_job(self, job: Job):
        cluster = self.cluster
        tenant = job.tenant
        stage = None
        try:
            plan = self._plans.pop(job.name, None)
            if plan is None:
                plan = self.plan_for(tenant)
            if not plan.runnable:
                raise QuotaExceededError(
                    f"tenant {tenant.name!r} cannot fit any job under "
                    "its caps")
            base = plan.apply(tenant.config or EndpointConfig())
            config = dataclasses.replace(base, tenant=tenant.name)
            if plan.clamped:
                job.meta["clamped_endpoints"] = plan.num_endpoints
            groups = TransmissionGroups.repartition(cluster.num_nodes)
            stage = cluster.shuffle_stage(plan, groups, config=config)
            yield from stage.setup()
            qpns = {qp.qpn
                    for node in range(cluster.num_nodes)
                    for ep in stage._node_endpoints(node)
                    for qp in ep.qps()}
            self._job_qpns.setdefault(tenant.name, set()).update(qpns)
            job.qps_created = len(qpns)
            elapsed, sinks = yield from self._run_fragments(stage)
            job.finished_ns = self.sim.now
            job.meta["service_ns"] = elapsed
            job.bytes_received = sum(s.nbytes for s in sinks)
            job.credit_wait_ns = sum(
                ep.credit_wait_ns
                for eps in stage.send_endpoints.values() for ep in eps)
            job.credit_stalls = sum(
                ep.credit_stalls
                for eps in stage.send_endpoints.values() for ep in eps)
            job.qp_cache_misses = self._misses_for(qpns)
            self._observe(job, elapsed)
            self.completed.append(job)
            self.completion_order.append(job.name)
            # Let trailing completions (acks, credit write-backs) land
            # before destroying the QPs and MRs they reference.
            yield int(self.config.teardown_grace_ns)
        except QuotaExceededError:
            # Admission underestimated (should not happen: the estimator
            # is deliberately generous).  Record and release the job.
            job.meta["failed"] = 1
            job.meta["quota_error"] = 1
            self.failed.append(job)
        finally:
            if stage is not None:
                stage.dispose()
            if self.quotas is not None:
                reserved = self._reserved.get(tenant.name)
                if reserved:
                    reserved.pop()
            self.running -= 1
            self.queue.kick()

    def _observe(self, job: Job, elapsed_ns: int) -> None:
        """Feed measured telemetry back to the tenant's policy — the
        mid-run re-plan hook.  The cache miss rate is cluster-wide and
        cumulative (the cache is shared: a tenant suffers its
        neighbours' thrash, which its plan-time context cannot
        predict); the credit-stall share is the job's own.
        """
        cluster = self.cluster
        base = TelemetrySnapshot.from_cluster(cluster)
        budget = max(1, elapsed_ns * cluster.threads_per_node *
                     cluster.num_nodes)
        observed = dataclasses.replace(
            base,
            credit_stall_share=min(1.0, job.credit_wait_ns / budget))
        self._policies[job.tenant.name].observe(observed)

    def _run_fragments(self, stage):
        """Build and run the §5.1 repartition fragments on ``stage``."""
        cluster = self.cluster
        threads = cluster.threads_per_node
        # Imported lazily: the template generator lives with the bench
        # workloads but has no dependency back on the service.
        from repro.bench.workloads import make_template_batch
        template = make_template_batch()
        fragments: List[QueryFragment] = []
        sinks: List[CountSink] = []
        bytes_per_node = self._bytes_per_node(stage)
        per_thread = max(template.nbytes, bytes_per_node // threads)
        for node_id in range(cluster.num_nodes):
            node = cluster.nodes[node_id]
            groups = stage.groups_for[node_id]
            source = RepeatedSourceOperator(node, template, threads,
                                            per_thread)
            shuffle = ShuffleOperator(
                node, source, stage.send_endpoints[node_id], groups,
                striped_partitioner(groups.num_groups), threads)
            fragments.append(QueryFragment(
                node, shuffle, threads, name=f"svc-shuffle-{node_id}"))
            receive = ReceiveOperator(node, stage.recv_endpoints[node_id],
                                      threads)
            sink = CountSink()
            sinks.append(sink)
            fragments.append(QueryFragment(
                node, receive, threads, sink=sink,
                name=f"svc-receive-{node_id}"))
        elapsed = yield from run_fragments(self.sim, fragments)
        return elapsed, sinks

    def _bytes_per_node(self, stage) -> int:
        tenant = stage.config.tenant
        for spec in self.tenants:
            if spec.name == tenant:
                return spec.bytes_per_job
        return 2 << 20

    def _count_miss(self, node_id: int, qpn: int) -> None:
        self._misses_by_qpn[qpn] = self._misses_by_qpn.get(qpn, 0) + 1

    def _misses_for(self, qpns) -> int:
        return sum(count for qpn, count in self._misses_by_qpn.items()
                   if qpn in qpns)

    # -- reporting ----------------------------------------------------------

    def _telemetry_callback(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "completed": {
                t.name: sum(1 for j in self.completed
                            if j.tenant.name == t.name)
                for t in self.tenants
            },
            "pending": self.queue.pending_by_tenant(),
            "running": self.running,
        }
        if self.quotas is not None:
            out["usage"] = self.quotas.snapshot()
        return out

    def tenant_rollup(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant service metrics: p50/p99 job latency, bytes,
        credit stalls, QP-cache misses, quota counters."""
        rollup: Dict[str, Dict[str, Any]] = {}
        for spec in self.tenants:
            jobs = [j for j in self.completed if j.tenant.name == spec.name]
            latencies = [float(j.latency_ns) for j in jobs]
            entry: Dict[str, Any] = {
                "design": spec.design,
                "jobs_submitted": spec.jobs,
                "jobs_completed": len(jobs),
                "jobs_failed": sum(1 for j in self.failed
                                   if j.tenant.name == spec.name),
                "bytes_received": sum(j.bytes_received for j in jobs),
                "credit_wait_ns": sum(j.credit_wait_ns for j in jobs),
                "credit_stalls": sum(j.credit_stalls for j in jobs),
                "qp_cache_misses": sum(j.qp_cache_misses for j in jobs),
                "deferrals": sum(j.deferrals for j in jobs),
                "queue_wait_ns": sum(j.queue_wait_ns for j in jobs),
                "latency_ns": latency_summary(latencies,
                                              quantiles=(0.5, 0.9, 0.99)),
            }
            if self.quotas is not None:
                entry["usage"] = self.quotas.snapshot().get(spec.name, {})
            rollup[spec.name] = entry
        return rollup

    def report(self) -> Dict[str, Any]:
        return {
            "policy": getattr(self.policy, "name", "custom"),
            "quotas": self.quotas is not None,
            "completion_order": list(self.completion_order),
            "tenants": self.tenant_rollup(),
            "failed": [j.name for j in self.failed],
        }
