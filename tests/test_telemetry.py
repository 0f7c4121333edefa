"""Tests for repro.telemetry: histogram estimator, tracer, harvesting,
callbacks, sessions."""

import json

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition
from repro.telemetry import (
    TraceBudget,
    Tracer,
    current_session,
    digest_snapshots,
    format_digest,
    nic_cache_stats,
    session,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import _Histogram
from repro.sim import Simulator

MIB = 1 << 20


class TestInstruments:
    def test_histogram_buckets(self):
        h = _Histogram(buckets=(10, 100))
        for v in (5, 50, 500, 7):
            h.observe(v)
        assert h.count == 4
        assert h.min == 5 and h.max == 500
        assert h.counts == [2, 1, 1]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            _Histogram(buckets=(100, 10))


class TestRegistry:
    """``Telemetry.register_callback``: the one registration hook for
    control-path metrics."""

    def test_snapshot_and_callbacks(self):
        telemetry = Telemetry(Simulator(), num_nodes=2)
        count = [0]
        telemetry.register_callback("a.count", lambda: count[0])
        telemetry.register_callback("b.info", lambda: {"x": 1})
        count[0] = 3
        snap = telemetry.snapshot()
        # Polled at snapshot time, in registration order, after the
        # harvested counters.
        assert list(snap["fabric"])[-2:] == ["a.count", "b.info"]
        assert snap["fabric"]["a.count"] == 3
        assert snap["fabric"]["b.info"] == {"x": 1}
        telemetry.register_callback("a.count", lambda: 7)
        assert telemetry.snapshot()["fabric"]["a.count"] == 7
        json.dumps(snap)  # must be JSON-serializable


class TestTracer:
    def test_events_and_export_structure(self, tmp_path):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.complete(0, "qp1", "send", 100, 50, "verbs",
                        args={"bytes": 10})
        tracer.span(1, "egress", "tx", 10, 20, "fabric")
        tracer.instant(0, "qp1", "drop")
        doc = tracer.to_dict()
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "M" in phases and "X" in phases
        assert "B" in phases and "E" in phases
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"}
        assert names == {"node0", "node1"}
        path = tmp_path / "t.json"
        tracer.export(str(path))
        assert json.loads(path.read_text()) == doc

    def test_budget_caps_events_and_keeps_pairs_atomic(self):
        sim = Simulator()
        tracer = Tracer(sim, budget=TraceBudget(3))
        tracer.span(0, "a", "s", 0, 1)   # takes 2
        tracer.span(0, "a", "s", 1, 2)   # needs 2, only 1 left -> dropped
        tracer.complete(0, "a", "x", 2, 1)  # takes the last slot
        tracer.complete(0, "a", "x", 3, 1)  # dropped
        assert len(tracer.events) == 3
        assert tracer.budget.dropped == 3
        begins = sum(1 for e in tracer.events if e["ph"] == "B")
        ends = sum(1 for e in tracer.events if e["ph"] == "E")
        assert begins == ends == 1

    def test_pid_base_offsets_processes(self):
        sim = Simulator()
        tracer = Tracer(sim, pid_base=3000, label="run3")
        tracer.complete(2, "t", "n", 0, 1)
        event = tracer.events[0]
        assert event["pid"] == 3002
        meta = tracer._metadata_events()
        assert meta[0]["args"]["name"] == "run3/node2"


def _small_shuffle(qp_cache_entries=None, trace=False):
    config = ClusterConfig(network=EDR, num_nodes=3)
    if qp_cache_entries is not None:
        config = config.with_network(qp_cache_entries=qp_cache_entries)
    cluster = Cluster(config)
    if trace:
        cluster.enable_tracing()
    result = run_repartition(cluster, "MEMQ/SR", bytes_per_node=2 * MIB)
    return cluster, result


class TestIntegration:
    def test_shuffle_trace_is_structurally_valid(self):
        # One cache entry forces misses on every QP switch, so the NIC
        # counters must light up.
        cluster, _ = _small_shuffle(qp_cache_entries=1, trace=True)
        doc = cluster.telemetry.tracer.to_dict()
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert data
        # Timestamps non-decreasing after export sorting.
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)
        # B/E pairs balance per (pid, tid) and never go negative.
        depth = {}
        for e in data:
            key = (e["pid"], e["tid"])
            if e["ph"] == "B":
                depth[key] = depth.get(key, 0) + 1
            elif e["ph"] == "E":
                depth[key] = depth.get(key, 0) - 1
                assert depth[key] >= 0
        assert all(v == 0 for v in depth.values())
        # pids map onto simulated nodes.
        assert {e["pid"] for e in data} <= set(range(cluster.num_nodes))
        # Spans from at least three layers of the stack.
        cats = {e.get("cat") for e in data}
        assert {"fabric", "verbs", "endpoint"} <= cats

    def test_cold_cache_counters_nonzero(self):
        cluster, _ = _small_shuffle(qp_cache_entries=1)
        snap = cluster.metrics_snapshot()
        for node in snap["nodes"].values():
            assert node["nic.qp_cache.misses"] > 0
        stats = nic_cache_stats(cluster)
        assert stats["misses"] > 0
        assert stats["pcie_stall_ns"] > 0
        assert 0.0 < stats["miss_rate"] <= 1.0

    def test_snapshot_covers_every_layer(self):
        cluster, _ = _small_shuffle()
        snap = cluster.metrics_snapshot()
        assert snap["fabric"]["sim.events_dispatched"] > 0
        assert snap["fabric"]["sim.process_wakeups"] > 0
        assert snap["fabric"]["fabric.delivered_messages"] > 0
        assert snap["fabric"]["fabric.link_bytes"]
        node = snap["nodes"]["0"]
        assert node["nic.tx_messages"] > 0
        assert node["verbs.sends_posted"] > 0
        assert node["verbs.cqes_pushed"] > 0
        assert node["ep.messages_sent"] > 0
        assert node["ep.bytes_by_dest"]
        assert node["ep.dest_skew"] >= 1.0
        json.dumps(snap)

    def test_telemetry_does_not_perturb_simulation(self):
        _, base = _small_shuffle()
        _, traced = _small_shuffle(trace=True)
        assert base.elapsed_ns == traced.elapsed_ns


class TestSession:
    def test_clusters_attach_and_checkpoint(self):
        assert current_session() is None
        with session(trace=True) as sess:
            assert current_session() is sess
            _small_shuffle()
            _small_shuffle()
            digest = sess.checkpoint("expA")
            assert digest["runs"] == 2
            assert digest["delivered_messages"] > 0
            assert "qp-cache miss" in format_digest(digest)
        assert current_session() is None
        doc = sess.metrics_document()
        assert doc["schema"]["name"] == "repro-telemetry-metrics"
        assert [e["experiment"] for e in doc["experiments"]] == ["expA"]
        trace_doc = sess.trace_document()
        data = [e for e in trace_doc["traceEvents"] if e["ph"] != "M"]
        # The two runs occupy disjoint pid namespaces.
        pids = {e["pid"] for e in data}
        assert any(p < 1000 for p in pids) and any(p >= 1000 for p in pids)

    def test_digest_of_nothing(self):
        digest = digest_snapshots([])
        assert digest["runs"] == 0
        assert digest["qp_cache_miss_rate"] == 0.0
