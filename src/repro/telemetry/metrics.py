"""Latency-population summaries for reports and service rollups.

Counters are not kept here: every layer holds plain integer attributes
(one ``+=`` per event) that :meth:`repro.telemetry.core.Telemetry.snapshot`
harvests.  This module only summarizes a finished population of
latencies — exact percentiles for small ones, a fixed-bucket estimate
for large ones.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

__all__ = [
    "DEFAULT_NS_BUCKETS",
    "EXACT_PERCENTILE_MAX",
    "percentile",
    "latency_summary",
]

#: default histogram buckets for nanosecond durations (1us .. 100ms).
DEFAULT_NS_BUCKETS = (
    1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000,
)

#: largest sample count for which :func:`latency_summary` sorts the raw
#: values; above this it switches to fixed-bucket interpolation.
EXACT_PERCENTILE_MAX = 10_000


def percentile(values: Sequence[float], q: float) -> float:
    """Exact q-quantile (``0 <= q <= 1``) with linear interpolation.

    Sorts a copy, so intended for small-N summaries; large populations
    go through the fixed-bucket estimate of :func:`latency_summary`.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        raise ValueError("percentile() of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    if frac == 0.0:
        return float(ordered[lo])
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * frac


def latency_summary(values: Sequence[float],
                    quantiles: Sequence[float] = (0.5, 0.9, 0.99),
                    exact_max: int = EXACT_PERCENTILE_MAX,
                    buckets: Sequence[float] = DEFAULT_NS_BUCKETS
                    ) -> Dict[str, Any]:
    """count/mean/min/max plus p50/p90/p99 for a latency population.

    Exact (sorted) percentiles for small populations; fixed-bucket
    interpolation (:meth:`_Histogram.percentile`) beyond ``exact_max``,
    so summarizing millions of message latencies stays O(n).
    """
    count = len(values)
    out: Dict[str, Any] = {"count": count}
    if not count:
        return out
    out["mean"] = sum(values) / count
    out["min"] = min(values)
    out["max"] = max(values)
    if count <= exact_max:
        ordered = sorted(values)
        for q in quantiles:
            out[f"p{round(q * 100):d}"] = percentile(ordered, q)
    else:
        hist = _Histogram(buckets)
        for v in values:
            hist.observe(v)
        for q in quantiles:
            out[f"p{round(q * 100):d}"] = hist.percentile(q)
    return out




class _Histogram:
    """Fixed-bucket counts with running count/min/max: the large-N
    estimator behind :func:`latency_summary`.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything larger.  Each observation lands in exactly one
    bucket.
    """

    __slots__ = ("buckets", "counts", "count", "min", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_NS_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram buckets must be sorted and non-empty: {buckets}")
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile by linear interpolation inside the
        bucket containing it; the overflow bucket interpolates between
        the last bound and the observed maximum.  Bounded error (one
        bucket width) at O(buckets) cost — the large-N complement of the
        exact :func:`percentile`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            raise ValueError("percentile() of empty histogram")
        target = q * self.count
        seen = 0.0
        lower = float(self.min) if self.min is not None else 0.0
        for i, bound in enumerate(self.buckets):
            upper = float(bound)
            in_bucket = self.counts[i]
            if in_bucket and seen + in_bucket >= target:
                lo = max(lower, float(self.min))
                hi = min(upper, float(self.max))
                frac = (target - seen) / in_bucket
                return lo + (hi - lo) * frac
            seen += in_bucket
            lower = upper
        # Overflow bucket: between the last bound and the observed max.
        in_bucket = self.counts[-1]
        lo = max(lower, float(self.min))
        hi = float(self.max)
        frac = (target - seen) / in_bucket if in_bucket else 1.0
        return lo + (hi - lo) * min(1.0, max(0.0, frac))
