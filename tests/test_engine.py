"""Unit tests for the query-engine operators."""

import numpy as np
import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.engine import (
    CollectSink,
    ComputeOperator,
    FilterOperator,
    HashAggregateOperator,
    HashJoinOperator,
    OpState,
    ProjectOperator,
    QueryFragment,
    ScanOperator,
    run_fragments,
)
from repro.engine.fragment import CountSink
from repro.engine.map import MapOperator
from repro.engine.operator import batch_nbytes, batch_rows, concat_batches
from repro.engine.scan import RepeatedSourceOperator

DTYPE = np.dtype([("k", np.int64), ("v", np.int64)])


@pytest.fixture
def cluster():
    return Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                 threads_per_node=2))


def make_table(rows, seed=0):
    rng = np.random.default_rng(seed)
    t = np.empty(rows, dtype=DTYPE)
    t["k"] = rng.integers(0, 50, rows)
    t["v"] = np.arange(rows)
    return t


def drain(cluster, op, threads=2):
    """Run an operator tree to completion, returning collected rows."""
    sink = CollectSink()
    frag = QueryFragment(cluster.nodes[0], op, threads, sink=sink)
    cluster.run_process(run_fragments(cluster.sim, [frag]))
    return sink.result()


class TestBatchHelpers:
    def test_batch_rows_and_nbytes(self):
        t = make_table(10)
        assert batch_rows(t) == 10
        assert batch_nbytes(t) == 160
        assert batch_rows(None) == 0
        assert batch_nbytes(None) == 0

    def test_concat(self):
        t = make_table(4)
        assert concat_batches([]) is None
        assert concat_batches([t]) is t
        assert len(concat_batches([t, t])) == 8

    def test_concat_same_dtype_matches_numpy(self):
        parts = [make_table(5, seed=1), make_table(3, seed=2)[1:],
                 make_table(7, seed=3)]
        joined = concat_batches(parts)
        expected = np.concatenate(parts)
        assert joined.dtype == expected.dtype
        assert joined.tobytes() == expected.tobytes()

    def test_concat_mixed_dtypes_promote(self):
        narrow = np.zeros(2, dtype=[("k", "<i4"), ("v", "<i8")])
        narrow["k"] = [7, 8]
        wide = make_table(3)
        joined = concat_batches([narrow, wide])
        expected = np.concatenate([narrow, wide])
        assert joined.dtype == expected.dtype == wide.dtype
        assert list(joined["k"][:2]) == [7, 8]
        assert np.array_equal(joined, expected)

    def test_concat_padded_dtype_matches_numpy(self):
        padded = np.dtype({"names": ["k", "v"], "formats": ["<i4", "<i8"],
                           "offsets": [0, 8], "itemsize": 24})
        parts = [np.ones(2, dtype=padded), np.zeros(1, dtype=padded)]
        joined = concat_batches(parts)
        expected = np.concatenate(parts)
        assert joined.dtype == expected.dtype
        assert np.array_equal(joined, expected)


class TestScan:
    def test_scan_returns_all_rows_across_threads(self, cluster):
        table = make_table(1000)
        out = drain(cluster, ScanOperator(cluster.nodes[0], table, 2,
                                          batch_rows=64))
        assert len(out) == 1000
        np.testing.assert_array_equal(np.sort(out["v"]), np.arange(1000))

    def test_scan_threads_get_disjoint_ranges(self, cluster):
        table = make_table(100)
        scan = ScanOperator(cluster.nodes[0], table, 2, batch_rows=1000)

        def collect(tid):
            state, batch = yield from scan.next(tid)
            return batch

        b0 = cluster.run_process(collect(0))
        b1 = cluster.run_process(collect(1))
        assert len(b0) + len(b1) == 100
        assert not set(b0["v"]) & set(b1["v"])

    def test_empty_table(self, cluster):
        out = drain(cluster, ScanOperator(cluster.nodes[0],
                                          make_table(0), 2))
        assert out is None

    def test_bad_batch_rows(self, cluster):
        with pytest.raises(ValueError):
            ScanOperator(cluster.nodes[0], make_table(1), 2, batch_rows=0)

    def test_scan_charges_time(self, cluster):
        table = make_table(100_000)
        drain(cluster, ScanOperator(cluster.nodes[0], table, 2))
        assert cluster.sim.now > 0

    def test_repeated_source_respects_byte_budget(self, cluster):
        template = make_table(64)  # 1 KiB
        src = RepeatedSourceOperator(cluster.nodes[0], template, 2,
                                     total_bytes_per_thread=4096)
        out = drain(cluster, src)
        assert out.nbytes == 2 * 4096

    def test_repeated_source_truncates_final_batch(self, cluster):
        template = make_table(64)  # 1024 B
        src = RepeatedSourceOperator(cluster.nodes[0], template, 2,
                                     total_bytes_per_thread=1536)
        out = drain(cluster, src)
        assert out.nbytes == 2 * 1536


class TestFilterProjectMap:
    def test_filter_keeps_matching_rows(self, cluster):
        table = make_table(500)
        op = FilterOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], table, 2),
                            lambda b: b["k"] < 10)
        out = drain(cluster, op)
        expected = np.sort(table[table["k"] < 10]["v"])
        np.testing.assert_array_equal(np.sort(out["v"]), expected)

    def test_filter_rejecting_everything(self, cluster):
        table = make_table(100)
        op = FilterOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], table, 2),
                            lambda b: b["k"] < 0)
        assert drain(cluster, op) is None

    def test_project_keeps_columns(self, cluster):
        table = make_table(50)
        op = ProjectOperator(cluster.nodes[0],
                             ScanOperator(cluster.nodes[0], table, 2), ["v"])
        out = drain(cluster, op)
        assert out.dtype.names == ("v",)
        assert out.dtype.itemsize == 8  # repacked, no padding

    def test_project_requires_columns(self, cluster):
        with pytest.raises(ValueError):
            ProjectOperator(cluster.nodes[0],
                            ScanOperator(cluster.nodes[0], make_table(1), 2),
                            [])

    def test_map_adds_derived_column(self, cluster):
        from numpy.lib import recfunctions as rfn
        table = make_table(50)

        def double(batch):
            return rfn.append_fields(batch, "d", batch["v"] * 2,
                                     usemask=False)

        op = MapOperator(cluster.nodes[0],
                         ScanOperator(cluster.nodes[0], table, 2), double)
        out = drain(cluster, op)
        np.testing.assert_array_equal(out["d"], out["v"] * 2)

    def test_compute_burns_time_per_batch(self, cluster):
        table = make_table(1000)
        scan = ScanOperator(cluster.nodes[0], table, 2, batch_rows=100)
        op = ComputeOperator(cluster.nodes[0], scan, ns_per_batch=10_000)
        drain(cluster, op)
        assert op.batches == 10
        assert cluster.sim.now >= 5 * 10_000  # 5 batches per thread

    def test_compute_rejects_negative_cost(self, cluster):
        with pytest.raises(ValueError):
            ComputeOperator(cluster.nodes[0], None, ns_per_batch=-1)


class TestHashJoin:
    def make_sides(self, cluster, build_rows, probe_rows):
        build_dtype = np.dtype([("bk", np.int64), ("bv", np.int64)])
        probe_dtype = np.dtype([("pk", np.int64), ("pv", np.int64)])
        build = np.empty(build_rows, dtype=build_dtype)
        build["bk"] = np.arange(build_rows)
        build["bv"] = np.arange(build_rows) * 10
        probe = np.empty(probe_rows, dtype=probe_dtype)
        probe["pk"] = np.arange(probe_rows) % max(1, build_rows * 2)
        probe["pv"] = np.arange(probe_rows)
        node = cluster.nodes[0]
        return (build, probe,
                ScanOperator(node, build, 2), ScanOperator(node, probe, 2))

    def test_inner_join_matches(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 200)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        out = drain(cluster, join)
        expected = np.sum(np.isin(probe["pk"], build["bk"]))
        assert len(out) == expected
        np.testing.assert_array_equal(out["bv"], out["pk"] * 10)

    def test_semi_join_keeps_probe_rows_once(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 20, 200)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2, semi=True)
        out = drain(cluster, join)
        expected = np.sum(np.isin(probe["pk"], build["bk"]))
        assert len(out) == expected
        assert out.dtype.names == ("pk", "pv")  # no build columns

    def test_duplicate_build_keys_multiply(self, cluster):
        build_dtype = np.dtype([("bk", np.int64)])
        build = np.zeros(3, dtype=build_dtype)  # key 0 three times
        probe_dtype = np.dtype([("pk", np.int64)])
        probe = np.zeros(2, dtype=probe_dtype)
        node = cluster.nodes[0]
        join = HashJoinOperator(node, ScanOperator(node, build, 2),
                                ScanOperator(node, probe, 2),
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        out = drain(cluster, join)
        assert len(out) == 6

    def test_empty_build_side(self, cluster):
        build, probe, bscan, pscan = self.make_sides(cluster, 0, 50)
        join = HashJoinOperator(cluster.nodes[0], bscan, pscan,
                                build_key="bk", probe_key="pk",
                                num_threads=2)
        assert drain(cluster, join) is None


class TestHashAggregate:
    def test_count_and_sum(self, cluster):
        table = make_table(1000, seed=2)
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], table, 2),
            ["k"], [("count", None, "cnt"), ("sum", "v", "total")], 2)
        out = drain(cluster, agg)
        assert out is not None
        for row in out:
            mask = table["k"] == row["k"]
            assert row["cnt"] == mask.sum()
            assert row["total"] == table["v"][mask].sum()

    def test_groups_complete(self, cluster):
        table = make_table(500, seed=3)
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], table, 2),
            ["k"], [("count", None, "cnt")], 2)
        out = drain(cluster, agg)
        assert set(out["k"]) == set(table["k"])
        assert out["cnt"].sum() == len(table)

    def test_empty_input(self, cluster):
        agg = HashAggregateOperator(
            cluster.nodes[0], ScanOperator(cluster.nodes[0], make_table(0), 2),
            ["k"], [("count", None, "cnt")], 2)
        assert drain(cluster, agg) is None

    def test_unsupported_aggregate_rejected(self, cluster):
        with pytest.raises(ValueError):
            HashAggregateOperator(cluster.nodes[0], None, ["k"],
                                  [("avg", "v", "a")], 2)


class TestFragment:
    def test_count_sink(self, cluster):
        table = make_table(256)
        sink = CountSink()
        frag = QueryFragment(cluster.nodes[0],
                             ScanOperator(cluster.nodes[0], table, 2), 2,
                             sink=sink)
        cluster.run_process(run_fragments(cluster.sim, [frag]))
        assert sink.result() == (256, 256 * 16)

    def test_elapsed_requires_completion(self, cluster):
        frag = QueryFragment(cluster.nodes[0],
                             ScanOperator(cluster.nodes[0], make_table(1), 2),
                             2)
        with pytest.raises(RuntimeError):
            _ = frag.elapsed_ns

    def test_fragments_run_concurrently(self, cluster):
        table = make_table(100_000)
        node = cluster.nodes[0]
        f1 = QueryFragment(node, ScanOperator(node, table, 2), 2)
        f2 = QueryFragment(node, ScanOperator(node, table, 2), 2)
        total = cluster.run_process(run_fragments(cluster.sim, [f1, f2]))
        # Concurrent, not sequential: total well under the sum.
        assert total < f1.elapsed_ns + f2.elapsed_ns
