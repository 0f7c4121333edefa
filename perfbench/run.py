"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload ud-mtu-repartition --seed 1 \\
        --seconds 25 --trace 0

One invocation runs one workload in this single process:

1. an untimed strict-sanitizer run at the workload's smallest volume;
2. ``SETUP_REPS`` timed set-ups (cluster build to ready-to-shuffle);
3. repetitions with tracing off until ``--seconds`` have passed;
4. with ``--trace 1``, one more repetition under cProfile, folded into
   per-layer self time and call counts.

Every repetition's outputs are checked (bytes and rows received equal
bytes sent, no failed jobs, one simulated digest for all repetitions and
the traced run).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.layers import LAYERS, profile_call  # noqa: E402

#: timed set-ups per invocation; setup_s is their median.
SETUP_REPS = 9
#: largest |folded self time - profiled total| / profiled total accepted.
CONSERVATION_TOLERANCE = 0.02

END_TO_END = {
    "host_s_per_gib": "s/GiB",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_recv_gib_s": "GiB/s",
    "sim_job_p50_ms": "sim-ms",
}

#: per-layer counts every repetition reports (see workloads._layer_counts).
COUNTS = {
    "sim.events": "count",
    "sim.wakeups": "count",
    "core.messages_sent": "count",
    "core.credit_stalls": "count",
    "core.credit_wait_ms": "sim-ms",
    "core.data_wait_ms": "sim-ms",
    "core.sim_setup_ms": "sim-ms",
    "engine.rows": "count",
    "verbs.sends_posted": "count",
    "verbs.cqes_polled": "count",
    "verbs.ud_drops": "count",
    "verbs.rnr_events": "count",
    "verbs.qps_created": "count",
    "verbs.peak_registered_mb": "MiB",
    "fabric.messages": "count",
    "fabric.packets": "count",
    "topology.peak_port_util": "ratio",
    "nic.qp_cache_hit_ratio": "ratio",
    "nic.pcie_stall_ms": "sim-ms",
    "service.jobs": "count",
    "service.admit_ratio": "ratio",
    "service.queue_wait_ms": "sim-ms",
    "service.victim_p50_ms": "sim-ms",
}

CALL_LAYERS = ("sim", "core", "engine", "verbs", "memory", "fabric")

PER_LAYER = dict(COUNTS)
PER_LAYER["sim.host_ns_per_event"] = "ns"
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({f"{layer}.share": "ratio" for layer in LAYERS})
PER_LAYER.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
PER_LAYER["core.stage_build_s"] = "s"
PER_LAYER["trace.overhead_x"] = "x"


class Outcome:
    """Operations attempted and failed, and the failed checks' messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, label: str, rep, *errors: str) -> None:
        """Count ``rep``'s operations; ``errors`` are failed checks made
        outside the repetition, and fail all of its operations."""
        self.attempted += rep.attempted
        self.failed += rep.attempted if errors else rep.failed
        self.errors += [f"{label}: {error}"
                        for error in list(rep.errors) + list(errors)]

    def fail(self, label: str, error: str) -> None:
        """One operation that raised instead of returning a repetition."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{label}: {error}")


def _digest_errors(rep, reference):
    if rep.digest == reference.digest:
        return []
    return [f"simulated digest {rep.digest} != {reference.digest}"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="run every repetition at the smallest volume (tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from repro.analysis.sanitizer import ProtocolViolationError

    from perfbench.calibrate import REFERENCE_S, reference_loop
    from perfbench.workloads import WORKLOADS, Spans

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed, small = args.seed, args.small
    spans = Spans()
    outcome = Outcome()

    # 1. Protocol invariants, untimed: a speed-up that breaks one shows
    #    here even when the byte counts still match.
    try:
        outcome.add("sanitized run", workload.run_once(
            seed, spans, small=True, sanitize=True))
    except ProtocolViolationError as exc:
        outcome.fail("sanitized run", str(exc))

    # 2. Set-up, several times.  The reference loop runs between all
    #    timed units; each unit's host time is rescaled by the loop times
    #    around it (see calibrate.py).
    before = reference_loop()

    def next_scale() -> float:
        """Rescale factor for the unit timed since the last loop."""
        nonlocal before
        after = reference_loop()
        scale = 2 * REFERENCE_S / (before + after)
        before = after
        return scale

    setups, setup_s = [], []
    for _ in range(SETUP_REPS):
        setups.append(workload.setup_once(seed, spans))
        setup_s.append(setups[-1][0] * next_scale())

    # 3. Measured repetitions, tracing off.
    reps, totals, s_per_gib = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        reps.append(workload.run_once(seed, spans, small=small))
        total = time.perf_counter() - start
        scale = next_scale()
        totals.append(total * scale)
        s_per_gib.append(reps[-1].wall_s * scale / reps[-1].gib)
    reference = reps[0]
    setup_errors = []
    sim_setup_ns = {ns for _, ns in setups}
    reported_ns = round(reference.counts["core.sim_setup_ms"] * 1e6)
    if sim_setup_ns != {None} and sim_setup_ns != {reported_ns}:
        setup_errors.append(f"the timed set-ups took {sim_setup_ns} "
                            f"simulated ns, the run's set-up {reported_ns}")
    outcome.add("repetition 0", reference, *setup_errors)
    for i, rep in enumerate(reps[1:], 1):
        outcome.add(f"repetition {i}", rep, *_digest_errors(rep, reference))

    raw_setup_s = statistics.median(elapsed for elapsed, _ in setups)
    raw_s_per_gib = statistics.median(rep.wall_s / rep.gib for rep in reps)
    print(f"# {workload.name} seed={seed}: {len(reps)} repetitions, "
          f"{reference.gib:.4f} simulated GiB each, "
          f"{reference.sim['jobs']} job(s) each; sim_job_p50_ms="
          f"{reference.sim['sim_job_p50_ms']:.6f} over "
          f"{reference.sim['jobs']} jobs")
    print(f"# unscaled: {raw_s_per_gib:.4f} s/GiB, set-up {raw_setup_s:.5f} s")

    if args.trace == 0:
        values = {
            "host_s_per_gib": statistics.median(s_per_gib),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_recv_gib_s": reference.sim["sim_recv_gib_s"],
            "sim_job_p50_ms": reference.sim["sim_job_p50_ms"],
        }
        units = END_TO_END
    else:
        # 4. One repetition under cProfile.
        traced, prof = profile_call(
            lambda: workload.run_once(seed, spans, small=small),
            time.perf_counter)
        profile_errors = _digest_errors(traced, reference)
        if prof.conservation_error() > CONSERVATION_TOLERANCE:
            profile_errors.append(
                f"folded self time {prof.folded_s:.3f} s vs profiled total "
                f"{prof.total_s:.3f} s")
        outcome.add("traced run", traced, *profile_errors)
        values = dict(reference.counts)
        events = reference.counts["sim.events"]
        values["sim.host_ns_per_event"] = statistics.median(
            s_per_gib) * reference.gib / events * 1e9
        for layer in LAYERS:
            values[f"{layer}.self_s"] = prof.self_s[layer]
            values[f"{layer}.share"] = prof.self_s[layer] / prof.folded_s
        for layer in CALL_LAYERS:
            values[f"{layer}.calls"] = prof.calls[layer]
        values["core.stage_build_s"] = prof.stage_build_s
        values["trace.overhead_x"] = \
            prof.wall_s * next_scale() / statistics.median(totals)
        units = PER_LAYER
        print(f"# profile: {prof.total_s:.3f} s profiled, {prof.folded_s:.3f}"
              f" s folded ({100 * prof.conservation_error():.3f}% apart), "
              f"{prof.wall_s:.3f} s wall")
        for layer in LAYERS:
            print(f"#   {layer:<10} {prof.self_s[layer]:8.3f} s "
                  f"{100 * values[f'{layer}.share']:5.1f}% "
                  f"{prof.calls[layer]:>10} calls")

    for name, (count, total) in sorted(spans.totals().items()):
        print(f"# span {name}: {count} x, {total:.3f} s")
    for error in outcome.errors:
        print(f"# FAILED {error}")
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
