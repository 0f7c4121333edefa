"""The probe bus: one instrumentation mechanism for every observer.

Three contracts:

* nothing listens by default — every probe point of a fresh cluster is
  ``None``, and unsubscribing every observer restores that state;
* observers are independent — enabling the sanitizer, link reporting
  and tracing together yields exactly the violations, RunReport and
  trace events each one yields alone;
* an exception from a subscriber propagates to the emitting site, and
  the verbs layer rolls back what the vetoed call created.
"""

import pytest

from repro import EDR, Cluster, ClusterConfig, EndpointConfig
from repro.bench.workloads import run_repartition
from repro.service import QuotaExceededError, QuotaManager
from repro.telemetry.probes import DETACHED, POINTS, Probes
from repro.verbs import QPType

MIB = 1 << 20


def fig8_cluster():
    return Cluster(ClusterConfig(network=EDR, num_nodes=4))


def fig8_run(cluster):
    """A small fig8-shape run: MESQ/SR repartition with fig8's buffer
    and credit-frequency settings."""
    cfg = EndpointConfig(buffers_per_connection=16, credit_frequency=4,
                         ud_window_factor=1)
    return run_repartition(cluster, "MESQ/SR", bytes_per_node=MIB,
                           config=cfg)


def live_points(probes):
    return [point for point in POINTS if getattr(probes, point) is not None]


class TestIdle:
    def test_fresh_cluster_has_no_listeners(self):
        assert live_points(fig8_cluster().fabric.probes) == []

    def test_unsubscribing_every_observer_restores_idle(self):
        cluster = fig8_cluster()
        probes = cluster.fabric.probes
        observers = [cluster.enable_sanitizer(), cluster.enable_tracing(),
                     cluster.enable_reporting(),
                     cluster.enable_quotas(QuotaManager())]
        misses = []

        def count_miss(node_id, qpn):
            misses.append(qpn)

        probes.subscribe("qp_miss", count_miss)
        assert len(live_points(probes)) == len(POINTS)
        for observer in observers:
            probes.detach(observer)
        probes.unsubscribe("qp_miss", count_miss)
        assert live_points(probes) == []

    def test_several_subscribers_fan_out_in_order(self):
        probes = Probes()
        calls = []
        probes.subscribe("qp_miss", lambda n, q: calls.append(("a", q)))
        probes.subscribe("qp_miss", lambda n, q: calls.append(("b", q)))
        probes.qp_miss(0, 7)
        assert calls == [("a", 7), ("b", 7)]

    def test_unknown_point_and_detached_bus_are_rejected(self):
        with pytest.raises(ValueError, match="unknown probe point"):
            Probes().subscribe("no_such_point", print)
        with pytest.raises(ValueError, match="outside a fabric"):
            DETACHED.subscribe("qp_miss", print)


class TestIndependence:
    @staticmethod
    def observe(sanitize, report, trace):
        """(end time, violations, RunReport, trace events) of one run;
        the RunReport's own sanitizer summary is split off, since it
        reports whether a sanitizer was attached."""
        cluster = fig8_cluster()
        san = cluster.enable_sanitizer() if sanitize else None
        tracer = cluster.enable_tracing() if trace else None
        if report:
            cluster.enable_reporting()
        result = fig8_run(cluster)
        run_report = None
        if report:
            run_report = cluster.run_report()
            summary = run_report.pop("sanitizer")
            assert summary["attached"] is sanitize
            assert summary["violations"] == 0
        return (result.elapsed_ns,
                None if san is None else [str(v) for v in san.violations],
                run_report,
                None if tracer is None else tracer.events)

    def test_together_equals_each_alone(self):
        end, violations, report, events = self.observe(True, True, True)
        assert violations == []
        assert report["attribution"] and report["critical_path"] and events
        assert self.observe(True, False, False) == (end, violations,
                                                    None, None)
        assert self.observe(False, True, False) == (end, None, report, None)
        assert self.observe(False, False, True) == (end, None, None, events)


class TestVeto:
    def test_quota_veto_rolls_back_create_qp_and_reg_mr(self):
        cluster = fig8_cluster()
        quotas = QuotaManager()
        quotas.set_quota("t", max_qps=0, max_registered_bytes=0)
        cluster.enable_quotas(quotas)
        later = []  # subscribed after the veto: never reached
        cluster.fabric.probes.subscribe(
            "qp_create", lambda node, tenant, qp: later.append(qp))
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        qps, registered = ctx.qps_created, ctx.registered_bytes
        with pytest.raises(QuotaExceededError, match="QP cap"):
            ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        with pytest.raises(QuotaExceededError, match="registered-memory"):
            ctx.reg_mr(4096, tenant="t")
        assert ctx.qps_created == qps
        assert ctx.registered_bytes == registered
        assert ctx._qps == {} and later == []
        usage = quotas.usage("t")
        assert (usage.qps, usage.registered_bytes) == (0, 0)
        assert (usage.qp_denials, usage.mr_denials) == (1, 1)

    def test_layer_objects_share_the_fabric_bus(self):
        cluster = fig8_cluster()
        ctx = cluster.contexts[1]
        cq = ctx.create_cq()
        mr = ctx.reg_mr(64)
        qp = ctx.create_qp(QPType.RC, cq, cq)
        bus = cluster.fabric.probes
        assert ctx.probes is bus and ctx.nic.probes is bus
        assert cq.probes is bus and mr.probes is bus and qp.probes is bus
