"""Kernel hot-path microbenchmarks and the ``BENCH_kernel.json`` format.

These benchmarks measure the simulator itself — events dispatched per
wall-clock second, process wakeups, fabric packets routed, and the
wall-clock of a full fig8 run — so performance regressions in the event
kernel are caught by CI the same way behavioural regressions are.

The emitted document is a *trajectory* file: every emission keeps a
bounded history of previous measurements, so the committed baseline
doubles as a record of how kernel throughput evolved over time.

Run via ``repro-bench --kernel-bench BENCH_kernel.json`` or the
pytest-benchmark suite in ``benchmarks/test_kernel_hotpath.py``; gate
with ``python -m repro.bench.compare``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from repro.sim import Simulator

__all__ = [
    "KERNEL_BENCH_SCHEMA_VERSION",
    "bench_dispatch_events",
    "bench_process_wakeups",
    "bench_fabric_packets",
    "bench_train_events",
    "bench_fig8_wall_clock",
    "run_all",
    "emit",
]

#: version of the ``BENCH_kernel.json`` document layout.
#: v2 adds the gated ``fabric_train_events_per_sec`` train-path entry.
KERNEL_BENCH_SCHEMA_VERSION = 2

#: how many historical entries a trajectory file retains.
_HISTORY_LIMIT = 50


def bench_dispatch_events(num_events: int = 300_000,
                          chains: int = 64) -> Dict[str, Any]:
    """Raw callback dispatch: self-rescheduling ``call_at`` chains.

    Exercises the scheduling path the fabric lives on: heap churn plus
    pooled direct-callback carriers.
    """
    sim = Simulator()
    remaining = [num_events]

    def make_tick(period: int):
        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_at(sim.now + period, tick)
        return tick

    for i in range(chains):
        sim.call_at(i + 1, make_tick(7 + (i % 5)))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "kernel_events_per_sec",
        "value": sim.events_dispatched / elapsed,
        "unit": "events/s",
        "higher_is_better": True,
        "detail": {"events": sim.events_dispatched,
                   "wall_clock_s": round(elapsed, 4)},
    }


def bench_process_wakeups(num_wakeups: int = 150_000,
                          procs: int = 64) -> Dict[str, Any]:
    """Generator processes in a ``yield <int ns>`` sleep loop.

    Measures the process resume path.
    """
    sim = Simulator()
    per_proc = num_wakeups // procs

    def worker(period: int):
        for _ in range(per_proc):
            yield period

    for i in range(procs):
        sim.process(worker(11 + (i % 7)), name=f"bench-worker-{i}")
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "kernel_wakeups_per_sec",
        "value": sim.process_wakeups / elapsed,
        "unit": "wakeups/s",
        "higher_is_better": True,
        "detail": {"wakeups": sim.process_wakeups,
                   "wall_clock_s": round(elapsed, 4)},
    }


def bench_fabric_packets(num_packets: int = 30_000) -> Dict[str, Any]:
    """End-to-end packet routing on a two-node fabric (no QPs).

    Covers the coalesced route path: NIC pipes, switch hop, delivery.
    """
    from repro.cluster import Cluster
    from repro.fabric.config import EDR, ClusterConfig
    from repro.fabric.packet import make_train

    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
    fabric = cluster.fabric

    def pump():
        for i in range(num_packets):
            yield fabric.route(make_train(
                EDR, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                kind="SEND", length=256, wire_bytes=300))

    start = time.perf_counter()
    cluster.run_process(pump(), name="bench-pump")
    elapsed = time.perf_counter() - start
    return {
        "name": "fabric_packets_per_sec",
        "value": num_packets / elapsed,
        "unit": "packets/s",
        "higher_is_better": True,
        "detail": {"packets": num_packets,
                   "wall_clock_s": round(elapsed, 4)},
    }


def bench_train_events(num_messages: int = 2_000,
                       message_bytes: int = 1 << 20) -> Dict[str, Any]:
    """Train-path throughput and the train/per-packet event reduction.

    Routes ``num_messages`` 1 MiB RC messages (256-packet trains at the
    4 KiB MTU) through a two-node fabric twice: once charging each train
    in a single event per pipe (the default), once under the per-packet
    oracle.  The value gated by ``repro.bench.compare`` is the train
    path's event throughput; the detail records the event-reduction
    factor the abstraction buys (the ISSUE target is >= 20x for 1 MiB
    messages).
    """
    from repro.cluster import Cluster
    from repro.fabric.config import EDR, ClusterConfig
    from repro.fabric.packet import make_train

    def run(oracle: bool):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
        fabric = cluster.fabric
        fabric.use_packet_oracle(oracle)

        def pump():
            for i in range(num_messages):
                yield fabric.route(make_train(
                    EDR, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
                    kind="SEND", length=message_bytes, transport="RC"))

        start = time.perf_counter()
        cluster.run_process(pump(), name="bench-train-pump")
        elapsed = time.perf_counter() - start
        return cluster.sim.events_dispatched, elapsed

    train_events, train_elapsed = run(oracle=False)
    oracle_events, oracle_elapsed = run(oracle=True)
    n_packets = max(1, -(-message_bytes // EDR.mtu))
    return {
        "name": "fabric_train_events_per_sec",
        "value": train_events / train_elapsed,
        "unit": "events/s",
        "higher_is_better": True,
        "detail": {
            "messages": num_messages,
            "message_bytes": message_bytes,
            "n_packets": n_packets,
            "train_events": train_events,
            "oracle_events": oracle_events,
            "event_reduction": round(oracle_events / train_events, 2),
            "train_wall_clock_s": round(train_elapsed, 4),
            "oracle_wall_clock_s": round(oracle_elapsed, 4),
        },
    }


def bench_fig8_wall_clock(scale: float = 0.05) -> Dict[str, Any]:
    """Wall-clock of the full fig8 experiment (both networks)."""
    from repro.bench.experiments import ALL_EXPERIMENTS

    start = time.perf_counter()
    ALL_EXPERIMENTS["fig8"](scale=scale)
    elapsed = time.perf_counter() - start
    return {
        "name": "fig8_wall_clock_s",
        "value": elapsed,
        "unit": "s",
        "higher_is_better": False,
        "detail": {"scale": scale},
    }


def run_all(fig8_scale: float = 0.05) -> Dict[str, Any]:
    """Run the whole suite; returns a ``BENCH_kernel.json`` document."""
    results = [
        bench_dispatch_events(),
        bench_process_wakeups(),
        bench_fabric_packets(),
        bench_train_events(),
        bench_fig8_wall_clock(scale=fig8_scale),
    ]
    return {
        "schema": {"name": "repro-bench-kernel",
                   "version": KERNEL_BENCH_SCHEMA_VERSION},
        "benchmarks": {
            r["name"]: {k: v for k, v in r.items() if k != "name"}
            for r in results
        },
        "history": [],
    }


def emit(path: str, document: Optional[Dict[str, Any]] = None,
         fig8_scale: float = 0.05) -> Dict[str, Any]:
    """Write ``document`` (or a fresh run) to ``path`` as a trajectory.

    If ``path`` already holds a kernel-bench document, its measurement is
    prepended to the new document's bounded history, so successive
    emissions accumulate the performance trajectory.
    """
    if document is None:
        document = run_all(fig8_scale=fig8_scale)
    history = list(document.get("history", ()))
    if os.path.exists(path):
        try:
            with open(path) as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = None
        if isinstance(previous, dict) and "benchmarks" in previous:
            entry = {
                "timestamp": previous.get("timestamp"),
                "benchmarks": {
                    name: bench.get("value")
                    for name, bench in previous["benchmarks"].items()
                },
            }
            history = ([entry] + previous.get("history", []))[:_HISTORY_LIMIT]
    document = dict(document)
    document["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime())
    document["history"] = history
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return document
