"""repro.telemetry — harvested counters + simulated-time tracing.

A lightweight observability layer threaded through every level of the
stack (sim kernel, NIC, fabric, verbs, shuffle endpoints):

* ``core.Telemetry`` — the per-cluster object owned by
  :class:`~repro.cluster.Cluster`.  Metrics have one mechanism,
  harvesting: every layer keeps plain integer counters (one add per
  event, always on, no off mode), and ``Telemetry.snapshot()`` reads
  them, plus the callbacks registered with
  ``Telemetry.register_callback()``, into a JSON-ready dict.
* :class:`Tracer` — spans and instants recorded in simulated
  nanoseconds, exported as Chrome trace-event JSON (open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev): one trace process
  per node, one thread per QP/endpoint/NIC pipe.
* ``session.TelemetrySession`` — cross-cluster collection for the
  ``repro-bench --metrics/--trace`` flags (:func:`session`).
* ``probes.Probes`` — the per-fabric probe bus every optional observer
  (tracer, link recorder, sanitizer, quotas) subscribes to.
* :func:`latency_summary` / :func:`percentile` — summaries of a
  finished latency population.

See the "Observability" sections of README.md and DESIGN.md.
"""

from repro.telemetry.core import nic_cache_stats
from repro.telemetry.links import FlowRecorder
from repro.telemetry.metrics import latency_summary, percentile
from repro.telemetry.session import (
    current_session,
    digest_snapshots,
    format_digest,
    session,
)
from repro.telemetry.trace import TraceBudget, Tracer

__all__ = [
    "FlowRecorder",
    "TraceBudget",
    "Tracer",
    "current_session",
    "digest_snapshots",
    "format_digest",
    "latency_summary",
    "nic_cache_stats",
    "percentile",
    "session",
]
