"""Tests for the multi-tenant shuffle service: quotas, admission
policies, clamping, telemetry, and scheduler determinism."""

import gc
import hashlib
import json
import weakref

import pytest

from repro import Cluster, ClusterConfig, FDR, TransmissionGroups
from repro.core.designs import DESIGNS
from repro.core.endpoint import EndpointConfig
from repro.core.policy import AdaptivePolicy
from repro.service import (
    FairSharePolicy,
    FifoPolicy,
    POLICIES,
    QuotaExceededError,
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
    estimate_footprint,
)
from repro.verbs import QPType
from tests.comparable import comparable


def make_cluster(nodes=4, threads=2, qp_cache_entries=None, network=FDR):
    config = ClusterConfig(network=network, num_nodes=nodes,
                           threads_per_node=threads)
    if qp_cache_entries is not None:
        config = config.with_network(qp_cache_entries=qp_cache_entries)
    return Cluster(config)


def run_service(cluster, tenants, policy=None, quotas=None, **cfg):
    service = ShuffleService(
        cluster, tenants, policy=policy, quotas=quotas,
        config=ServiceConfig(**cfg) if cfg else None)
    report = service.run()
    return service, report


FAST = dict(bytes_per_job=256 << 10, mean_interarrival_ns=1_000_000, jobs=2)


class TestQuotaHooks:
    """The verbs-layer backstop: hard caps raise at creation time."""

    def test_qp_cap_enforced_at_verbs_layer(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        quotas.set_quota("t", max_qps=1)
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        with pytest.raises(QuotaExceededError, match="QP cap"):
            ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        usage = quotas.usage("t")
        assert usage.qps == 1
        assert usage.qp_denials == 1
        # The refused QP must not leak into the context.
        assert len(ctx._qps) == 1

    def test_mr_cap_enforced_at_verbs_layer(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        quotas.set_quota("t", max_registered_bytes=4096)
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        ctx.reg_mr(4096, tenant="t")
        with pytest.raises(QuotaExceededError, match="registered-memory"):
            ctx.reg_mr(1, tenant="t")
        usage = quotas.usage("t")
        assert usage.registered_bytes == 4096
        assert usage.mr_denials == 1

    def test_untagged_resources_are_never_charged(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        quotas.set_quota("t", max_qps=0, max_registered_bytes=0)
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        ctx.create_qp(QPType.RC, cq, cq)
        ctx.reg_mr(1 << 20)
        assert quotas.usage("t").qps == 0
        assert quotas.usage("t").registered_bytes == 0

    def test_destroy_and_dereg_release_usage(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        mr = ctx.reg_mr(4096, tenant="t")
        assert quotas.usage("t").qps == 1
        assert quotas.usage("t").registered_bytes == 4096
        ctx.destroy_qp(qp)
        ctx.dereg_mr(mr)
        assert quotas.usage("t").qps == 0
        assert quotas.usage("t").registered_bytes == 0
        assert quotas.usage("t").peak_qps == 1

    def test_swapping_arbiter_under_live_tenant_resources_raises(self):
        cluster = make_cluster(nodes=2)
        first, second = QuotaManager(), QuotaManager()
        cluster.enable_quotas(first)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        mr = ctx.reg_mr(4096, tenant="u")
        assert cluster.enable_quotas(first) is first  # same: idempotent
        with pytest.raises(ValueError, match="'t', 'u'"):
            cluster.enable_quotas(second)
        # The refused swap left the first manager in charge, so the
        # release is charged where the creation was.
        ctx.destroy_qp(qp)
        ctx.dereg_mr(mr)
        assert first.usage("t").qps == 0
        assert first.usage("u").registered_bytes == 0
        assert second.snapshot() == {}
        # With nothing held the swap goes through.
        assert cluster.enable_quotas(second) is second
        ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        assert (first.usage("t").qps, second.usage("t").qps) == (0, 1)


class TestFootprintConformance:
    """estimate_footprint must over-approximate every design's real
    usage, or admission could admit a job the hard cap then kills."""

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_estimate_covers_actual_peak(self, design):
        nodes, threads = 3, 2
        cluster = make_cluster(nodes=nodes, threads=threads)
        quotas = QuotaManager()
        cluster.enable_quotas(quotas)
        config = EndpointConfig(tenant="t")
        stage = cluster.shuffle_stage(
            design, TransmissionGroups.repartition(nodes), config=config)
        cluster.run_process(stage.setup(), name="setup")
        usage = quotas.usage("t")
        estimate = estimate_footprint(design, nodes, threads)
        assert usage.peak_qps <= estimate.qps, design
        assert usage.peak_registered_bytes <= estimate.registered_bytes, \
            design
        # Teardown returns the tenant's account to exactly zero.
        stage.dispose()
        assert usage.qps == 0
        assert usage.registered_bytes == 0


class TestServiceRuns:
    def test_two_tenant_run_completes_all_jobs(self):
        cluster = make_cluster()
        tenants = [TenantSpec(name="a", design="MESQ/SR", **FAST),
                   TenantSpec(name="b", design="MEMQ/SR", **FAST)]
        service, report = run_service(cluster, tenants,
                                      policy=FairSharePolicy())
        assert report["policy"] == "fair"
        assert report["failed"] == []
        assert len(report["completion_order"]) == 4
        for name in ("a", "b"):
            rollup = report["tenants"][name]
            assert rollup["jobs_completed"] == 2
            assert rollup["bytes_received"] > 0
            assert rollup["latency_ns"]["count"] == 2
            assert rollup["latency_ns"]["p99"] >= rollup["latency_ns"]["p50"]

    def test_quota_clamps_mq_tenant_to_single_endpoint(self):
        nodes, threads = 4, 2
        cluster = make_cluster(nodes=nodes, threads=threads)
        quotas = QuotaManager()
        cap = estimate_footprint("MEMQ/SR", nodes, threads,
                                 num_endpoints=1).qps
        quotas.set_quota("mq", max_qps=cap)
        tenants = [TenantSpec(name="mq", design="MEMQ/SR", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        assert report["failed"] == []
        assert report["tenants"]["mq"]["jobs_completed"] == 2
        for job in service.completed:
            assert job.meta.get("clamped_endpoints") == 1
        assert quotas.usage("mq").peak_qps <= cap

    def test_unrunnable_tenant_fails_loudly_instead_of_hanging(self):
        cluster = make_cluster()
        quotas = QuotaManager()
        quotas.set_quota("starved", max_qps=1)
        tenants = [TenantSpec(name="starved", design="MESQ/SR", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        assert report["tenants"]["starved"]["jobs_completed"] == 0
        assert report["tenants"]["starved"]["jobs_failed"] == 2
        assert sorted(report["failed"]) == ["starved/0", "starved/1"]

    def test_duplicate_tenant_names_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="duplicate tenant"):
            ShuffleService(cluster, [TenantSpec(name="a"),
                                     TenantSpec(name="a")])

    def test_tenant_metrics_in_telemetry_snapshot(self):
        cluster = make_cluster()
        quotas = QuotaManager()
        tenants = [TenantSpec(name="a", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        snapshot = cluster.telemetry.snapshot()
        svc = snapshot["fabric"]["service_tenants"]
        assert svc["completed"] == {"a": 2}
        assert svc["pending"] == {}
        assert svc["running"] == 0
        assert svc["usage"]["a"]["qps"] == 0
        assert svc["usage"]["a"]["peak_qps"] > 0


class TestPolicies:
    """FIFO serves in arrival order; fair-share serves the least-served
    tenant first even while another tenant floods the queue."""

    def _flood_and_latecomer(self, policy):
        cluster = make_cluster()
        tenants = [
            TenantSpec(name="flood", design="MESQ/SR",
                       bytes_per_job=256 << 10,
                       mean_interarrival_ns=1_000, jobs=6),
            TenantSpec(name="late", design="MESQ/SR",
                       bytes_per_job=256 << 10,
                       mean_interarrival_ns=8_000_000, jobs=2),
        ]
        service, report = run_service(cluster, tenants, policy=policy,
                                      max_concurrent=1, seed=1)
        assert report["failed"] == []
        return report["completion_order"]

    def test_fair_share_serves_latecomer_before_flood_drains(self):
        fifo = self._flood_and_latecomer(FifoPolicy())
        fair = self._flood_and_latecomer(FairSharePolicy())
        assert fifo != fair
        assert fair.index("late/0") < fifo.index("late/0")

    def test_fifo_respects_arrival_order(self):
        order = self._flood_and_latecomer(FifoPolicy())
        flood = [name for name in order if name.startswith("flood")]
        assert flood == [f"flood/{i}" for i in range(6)]

    def test_policy_registry(self):
        assert POLICIES["fifo"] is FifoPolicy
        assert POLICIES["fair"] is FairSharePolicy


class TestDeterminism:
    """Identical seeds must reproduce identical completion order and
    per-tenant metrics, for every admission policy."""

    def _run_once(self, policy_name):
        cluster = make_cluster(qp_cache_entries=64)
        quotas = QuotaManager()
        cap = estimate_footprint("MEMQ/SR", 4, 2, num_endpoints=1).qps
        quotas.set_quota("b", max_qps=cap)
        tenants = [TenantSpec(name="a", design="MESQ/SR", **FAST),
                   TenantSpec(name="b", design="MEMQ/SR", **FAST)]
        service, report = run_service(
            cluster, tenants, policy=POLICIES[policy_name](),
            quotas=quotas, max_concurrent=2, seed=7)
        return report

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_repeated_runs_are_identical(self, policy_name):
        first = self._run_once(policy_name)
        second = self._run_once(policy_name)
        assert first["completion_order"] == second["completion_order"]
        assert json.dumps(first["tenants"], sort_keys=True) == \
            json.dumps(second["tenants"], sort_keys=True)


#: endpoint counter attribute -> the per-node snapshot key it sums into.
EP_COUNTERS = {
    "messages_sent": "ep.messages_sent",
    "bytes_sent": "ep.bytes_sent",
    "credit_wait_ns": "ep.credit_wait_ns",
    "credit_stalls": "ep.credit_stalls",
    "free_wait_ns": "ep.free_wait_ns",
    "messages_received": "ep.messages_received",
    "bytes_received": "ep.bytes_received",
    "data_wait_ns": "ep.data_wait_ns",
}

#: sha256 of the canonical comparable snapshot of ``_mixed_service``,
#: taken when endpoints were still kept alive for the whole run; folding
#: retired endpoints into per-node totals must not move a value.
MIXED_SERVICE_SNAPSHOT_SHA256 = (
    "e6a099653744a6330300c1155d5a8d84bde7447a876eece562a883d727345508")


def _mixed_service(retired=None, registered=None):
    """Three tenants, four jobs each — an adaptive one re-planning from
    live telemetry, a quota-capped MEMQ/SR aggressor, a SEMQ/SR one —
    on a 64-entry QP cache.  ``retired`` collects (weakref, node,
    counters) for every endpoint a stage disposes, and ``registered``
    one entry per endpoint built."""
    cluster = make_cluster(qp_cache_entries=64)
    telemetry = cluster.telemetry
    if retired is not None:
        register, retire = telemetry.register_endpoint, \
            telemetry.retire_endpoint

        def count(ep):
            registered.append(None)
            register(ep)
        telemetry.register_endpoint = count

        def spy(ep):
            counters = {a: getattr(ep, a) for a in EP_COUNTERS
                        if hasattr(ep, a)}
            counters["bytes_by_dest"] = dict(
                getattr(ep, "bytes_by_dest", {}))
            retired.append((weakref.ref(ep), ep.ctx.node_id, counters))
            retire(ep)
        telemetry.retire_endpoint = spy
    quotas = QuotaManager()
    quotas.set_quota("mq", max_qps=estimate_footprint(
        "MEMQ/SR", 4, 2, num_endpoints=1).qps)
    tenants = [
        TenantSpec("adapt", policy=AdaptivePolicy(),
                   bytes_per_job=256 << 10,
                   mean_interarrival_ns=1_000_000, jobs=4),
        TenantSpec("mq", design="MEMQ/SR", bytes_per_job=512 << 10,
                   mean_interarrival_ns=500_000, jobs=4),
        TenantSpec("sr", design="SEMQ/SR", bytes_per_job=256 << 10,
                   mean_interarrival_ns=700_000, jobs=4),
    ]
    service, report = run_service(cluster, tenants,
                                  policy=FairSharePolicy(), quotas=quotas,
                                  max_concurrent=3, seed=3)
    assert report["failed"] == []
    return cluster, service


class TestTelemetryRetirement:
    """A disposed stage hands its endpoints' counters to the telemetry
    and releases the endpoints themselves."""

    def test_disposed_endpoints_are_released_and_folded(self):
        retired, registered = [], []
        cluster, _ = _mixed_service(retired, registered)
        # The last UD jobs' end-of-stream drain windows are one-shot
        # timers that still hold their endpoints; let them expire.
        cluster.sim.run()
        gc.collect()
        assert len(retired) == len(registered) > 0
        assert all(ref() is None for ref, _, _ in retired), \
            "a disposed stage's endpoint is still reachable"
        expected = {}
        for _, node, counters in retired:
            totals = expected.setdefault(str(node), {})
            for attr, value in counters.items():
                if attr == "bytes_by_dest":
                    merged = totals.setdefault("ep.bytes_by_dest", {})
                    for dest, nbytes in value.items():
                        merged[str(dest)] = merged.get(str(dest), 0) + nbytes
                else:
                    key = EP_COUNTERS[attr]
                    totals[key] = totals.get(key, 0) + value
        snap = cluster.metrics_snapshot()
        for node, totals in expected.items():
            got = {k: v for k, v in snap["nodes"][node].items()
                   if k.startswith("ep.") and k != "ep.dest_skew"}
            assert got == totals
        assert cluster.telemetry.credit_wait_ns == sum(
            c.get("credit_wait_ns", 0) for _, _, c in retired) > 0

    def test_snapshot_is_unchanged_by_retirement(self):
        cluster, _ = _mixed_service()
        snap = cluster.metrics_snapshot()
        fabric = snap["fabric"]
        assert fabric["service.policy_decisions"] == 12
        assert list(fabric)[-2:] == ["service.policy_decisions",
                                     "service_tenants"]
        canonical = json.dumps(comparable(snap), sort_keys=True,
                               separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == \
            MIXED_SERVICE_SNAPSHOT_SHA256
