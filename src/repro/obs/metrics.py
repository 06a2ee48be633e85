"""A zero-dependency metrics registry: counters, gauges, histograms.

The checking pipeline increments these at every decision worth
auditing after the fact — cache hits and misses for every cache
layer, cache quarantines, and diagnostic-code frequencies.  The
registry is deliberately small:

* metrics are named with dotted paths (``cache.context.hits``) and
  created on first use;
* histograms have **fixed bucket boundaries** chosen at creation;
* the registry is always live: an increment is a dict lookup and an
  add, so the pipeline records every count without a switch.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

#: default boundaries for latency histograms, in seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)



class Counter:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount


class Gauge:
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


def bucket_quantile(bounds: Sequence[float],
                    bucket_counts: Sequence[int], q: float) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket distribution.

    Prometheus ``histogram_quantile`` semantics: observations are
    assumed uniform inside their bucket, so the estimate interpolates
    linearly between the bucket's lower and upper bound; a quantile
    landing in the +Inf overflow bucket is clamped to the highest
    finite bound.  An empty distribution estimates 0.0.  Increasing
    ``q`` over the same buckets is monotone non-decreasing.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q!r} outside [0, 1]")
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, bucket_counts):
        cumulative += count
        if count and cumulative >= target:
            fraction = 1.0 - (cumulative - target) / count
            return lower + (bound - lower) * fraction
        lower = bound
    return bounds[-1] if bounds else 0.0


class Histogram:
    """Counts observations into fixed buckets (``le`` semantics, plus
    an implicit +Inf overflow bucket)."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[float]):
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (see :func:`bucket_quantile`)."""
        return bucket_quantile(self.bounds, self.bucket_counts, q)


class MetricsRegistry:
    """Named metrics, created on first use; see the module docstring."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A plain-data view of every metric (JSON-friendly)."""
        out: Dict[str, dict] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                out[name] = {"type": "counter", "value": metric.value}
            elif isinstance(metric, Gauge):
                out[name] = {"type": "gauge", "value": metric.value}
            else:
                assert isinstance(metric, Histogram)
                out[name] = {"type": "histogram", "count": metric.count,
                             "sum": metric.sum,
                             "bounds": list(metric.bounds),
                             "bucket_counts": list(metric.bucket_counts)}
        return out

    # -- rendering -----------------------------------------------------------

    def render_rows(self) -> List[Tuple[str, str]]:
        rows: List[Tuple[str, str]] = []
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                rows.append((name, str(metric.value)))
            elif isinstance(metric, Gauge):
                rows.append((name, f"{metric.value:g}"))
            else:
                assert isinstance(metric, Histogram)
                mean = metric.sum / metric.count if metric.count else 0.0
                rows.append((name, f"count={metric.count} "
                                   f"sum={metric.sum:.6g} mean={mean:.6g} "
                                   f"p50={metric.quantile(0.5):.6g} "
                                   f"p95={metric.quantile(0.95):.6g} "
                                   f"p99={metric.quantile(0.99):.6g}"))
        return rows

    def render(self) -> str:
        rows = self.render_rows()
        if not rows:
            return "(no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}"
                         for name, value in rows)

