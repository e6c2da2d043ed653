"""Test-side metrics oracle: the full-walk delta.

:meth:`repro.obs.MetricsRegistry.drain_delta` walks only the metrics
changed since the last drain.  :class:`FullWalkRegistry` keeps the
original algorithm as an independent reference: every drain sorts every
metric it holds and recomputes each one's change against its own drained
state (a counter's drained value, a gauge's dirty flag, a histogram's
drained bucket counts and sum), skipping those that did not change.  Fed
the same calls, the two must emit the same rows in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List


class _Metric:
    def __init__(self, kind: str, bounds=None):
        self.kind = kind
        self.value = 0.0
        self.drained = 0.0
        self.dirty = False
        self.bounds = None if bounds is None else tuple(float(b) for b in bounds)
        size = 0 if bounds is None else len(self.bounds) + 1
        self.counts = [0] * size
        self.sum = 0.0
        self.drained_counts = [0] * size
        self.drained_sum = 0.0


class FullWalkRegistry:
    """Counters, gauges and histograms keyed like ``MetricsRegistry``,
    drained by walking every metric in key order."""

    def __init__(self):
        self._metrics: Dict[tuple, _Metric] = {}

    def _get(self, name, labels, kind, bounds=None) -> _Metric:
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        if key not in self._metrics:
            self._metrics[key] = _Metric(kind, bounds)
        return self._metrics[key]

    def inc(self, name, amount, **labels):
        self._get(name, labels, "counter").value += amount

    def set(self, name, value, **labels):
        gauge = self._get(name, labels, "gauge")
        gauge.value = float(value)
        gauge.dirty = True

    def observe(self, name, bounds, value, **labels):
        histogram = self._get(name, labels, "histogram", bounds)
        histogram.counts[bisect_left(histogram.bounds, value)] += 1
        histogram.sum += value

    def merge(self, payload) -> None:
        for row in payload["metrics"]:
            if row["kind"] == "counter":
                self.inc(row["name"], row["value"], **row["labels"])
            elif row["kind"] == "gauge":
                self.set(row["name"], row["value"], **row["labels"])
            else:
                histogram = self._get(
                    row["name"], row["labels"], "histogram", row["bounds"]
                )
                for index, count in enumerate(row["counts"]):
                    histogram.counts[index] += count
                histogram.sum += row["sum"]

    def drain_delta(self) -> List[Dict]:
        rows = []
        for (name, labels), metric in sorted(self._metrics.items()):
            row = {"name": name, "labels": dict(labels)}
            if metric.kind == "counter":
                value = metric.value - metric.drained
                metric.drained = metric.value
                if value == 0.0:
                    continue
                row.update(kind="counter", value=value)
            elif metric.kind == "gauge":
                if not metric.dirty:
                    continue
                metric.dirty = False
                row.update(kind="gauge", value=metric.value)
            else:
                full = list(metric.counts)
                counts = [c - d for c, d in zip(full, metric.drained_counts)]
                total = metric.sum - metric.drained_sum
                metric.drained_counts = full
                metric.drained_sum += total
                if not any(counts):
                    continue
                row.update(
                    kind="histogram",
                    bounds=list(metric.bounds),
                    counts=counts,
                    sum=total,
                    count=sum(counts),
                )
            rows.append(row)
        return rows
