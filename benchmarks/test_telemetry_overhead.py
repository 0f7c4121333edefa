"""Perf guard: opt-in link recording stays a small constant factor.

Metrics need no guard of their own: every layer keeps plain integer
counters (one add per event) that are harvested lazily at snapshot time
(DESIGN.md, "Observability"), and there is no other metrics mode to
compare against.  What can creep onto the hot path is an optional
observer, so this guard times the heaviest one, causal link recording.
"""

import time

from repro.bench.workloads import run_repartition
from repro.cluster import Cluster
from repro.fabric.config import EDR, ClusterConfig

MIB = 1 << 20
ROUNDS = 5


def _shuffle_seconds(report: bool = False) -> float:
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
    if report:
        cluster.enable_reporting()
    t0 = time.perf_counter()
    run_repartition(cluster, "MESQ/SR", bytes_per_node=24 * MIB)
    return time.perf_counter() - t0


def test_link_recording_overhead_is_bounded(benchmark):
    """Opt-in link recording (``--report``) may cost something — it
    appends a record per WR, pipe interval and stall — but it must stay
    a small constant factor, never change complexity class.  The off
    branch (``links is None``) is one probe-point load per site."""
    recording_times, baseline_times = [], []
    # Interleave rounds so machine noise hits both modes equally;
    # min-of-N is the standard low-noise wall-clock estimator.
    for _ in range(ROUNDS):
        recording_times.append(_shuffle_seconds(report=True))
        baseline_times.append(_shuffle_seconds(report=False))
    recording, baseline = min(recording_times), min(baseline_times)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["recording_s"] = round(recording, 4)
    benchmark.extra_info["baseline_s"] = round(baseline, 4)
    assert recording <= 2.0 * baseline, (
        f"link recording is {recording / baseline:.2f}x the default mode "
        f"({recording:.3f}s vs {baseline:.3f}s); recording sites must stay "
        "append-only"
    )
