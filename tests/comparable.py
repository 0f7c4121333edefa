"""Metrics-snapshot comparison shared by the determinism suites.

The four interpreter self-counters count kernel work (events, process
wakeups, processes started, queue depth), not modeled behaviour: an
equivalent schedule that allocates fewer kernel objects — the per-packet
train oracle, or a flattened loop — legitimately moves them.  Everything
else in a snapshot is modeled and must stay bit-identical.
"""

#: interpreter self-counters exempt from bit-identity checks.
SIM_SELF_COUNTERS = {
    "sim.events_dispatched",
    "sim.process_wakeups",
    "sim.processes_started",
    "sim.max_queue_depth",
}


def comparable(snapshot):
    """The snapshot minus the exempt interpreter self-counters."""
    fabric = {k: v for k, v in snapshot["fabric"].items()
              if k not in SIM_SELF_COUNTERS}
    return dict(snapshot, fabric=fabric)
