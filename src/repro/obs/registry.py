"""Process-wide metrics: counters, gauges, and log-bucket histograms.

One :class:`MetricsRegistry` per process (:func:`metrics`), holding every
metric the serving stack emits.  The design constraints come from the
repo's determinism and serving contracts:

* **lock-cheap hot path** — the registry lock is taken only on metric
  *creation*; increments and observations are plain attribute updates on
  the returned metric object (atomic enough under the GIL), so a counter
  bump on the query path costs an add, not a lock round-trip;
* **interval clocks only** — durations are measured with
  ``time.perf_counter``; nothing here reads the wall clock or an RNG, so
  instrumentation can never perturb released bytes;
* **mergeable across processes** — worker pools return a
  :meth:`MetricsRegistry.drain_delta` payload alongside every task result
  (see :mod:`repro.parallel.pool`), and the parent folds it back in with
  :meth:`MetricsRegistry.merge`.  Deltas are JSON-able, so the same shape
  rides the wire ``metrics`` op.  Every metric adds itself to its
  registry's set of metrics changed since the last drain (a set add by
  identity), so a drain walks only those, not every metric.

Histograms use **fixed log-spaced bucket boundaries** chosen at creation
time (four buckets per decade for latencies, powers of two for sizes and
iteration counts): fixed boundaries make cross-process merges exact —
counts add bucket-by-bucket — where adaptive schemes would need
re-binning.  Quantiles are read back by rank interpolation inside the
covering bucket (:func:`quantile_from_counts`).

Naming scheme: ``repro_<subsystem>_<quantity>[_<unit>]`` with
lowercase label keys, e.g. ``repro_query_seconds{dataset="alpha"}`` or
``repro_lp_solve_seconds{overlay="g"}``.  The payload schema version is
:data:`OBS_SCHEMA`; ``hello``/``stats``/``metrics`` frames carry it so
clients can detect shape changes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "OBS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "quantile_from_counts",
]

#: Version of the snapshot/delta payload shape (bump on breaking change).
OBS_SCHEMA = 1


#: Default latency boundaries: 1 µs … ~5600 s, four buckets/decade.
TIME_BUCKETS: Tuple[float, ...] = tuple(10.0 ** (k / 4.0 - 6.0) for k in range(40))

#: Default count/size boundaries: powers of two, 1 … 2^23.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(2**k) for k in range(24))


def quantile_from_counts(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Rank-interpolated quantile of a bucketed distribution.

    ``counts`` has ``len(bounds) + 1`` entries (the last is the overflow
    bucket); bucket ``i`` covers ``(bounds[i-1], bounds[i]]``.  The
    overflow bucket has no upper edge, so quantiles landing there clamp
    to the largest boundary.  Returns ``None`` for an empty histogram.
    """
    total = sum(counts)
    if total == 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if count and cumulative >= target:
            if index == len(bounds):
                return float(bounds[-1])
            lower = 0.0 if index == 0 else float(bounds[index - 1])
            upper = float(bounds[index])
            rank_inside = target - (cumulative - count)
            fraction = min(1.0, max(0.0, rank_inside / count))
            return lower + (upper - lower) * fraction
    return float(bounds[-1])  # pragma: no cover - cumulative == total above


class _Metric:
    """What every metric shares: its registry key and the registry's set
    of metrics changed since the last drain, which it joins on every
    change.  A metric built outside a registry gets a set of its own."""

    __slots__ = ("_key", "_changed")

    def __init__(self, key=None, changed: Optional[set] = None) -> None:
        self._key = key
        self._changed = set() if changed is None else changed


class Counter(_Metric):
    """A monotonically increasing count (float-valued, exact for ints)."""

    __slots__ = ("_value", "_drained")

    def __init__(self, key=None, changed: Optional[set] = None) -> None:
        super().__init__(key, changed)
        self._value = 0.0
        self._drained = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        self._value += amount
        self._changed.add(self)

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Metric):
    """A point-in-time value (in-flight counts, versions, utilization)."""

    __slots__ = ("_value",)

    def __init__(self, key=None, changed: Optional[set] = None) -> None:
        super().__init__(key, changed)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = float(value)
        self._changed.add(self)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount`` (down when negative)."""
        self._value += amount
        self._changed.add(self)

    def dec(self, amount: float = 1.0) -> None:
        """Move the gauge down by ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Fixed log-bucket histogram (value goes to the first bucket whose
    upper boundary is ``>=`` it; the last bucket is unbounded)."""

    __slots__ = ("bounds", "_counts", "_sum", "_drained_counts", "_drained_sum")

    def __init__(
        self,
        bounds: Optional[Sequence[float]] = None,
        key=None,
        changed: Optional[set] = None,
    ) -> None:
        super().__init__(key, changed)
        chosen = TIME_BUCKETS if bounds is None else tuple(map(float, bounds))
        if not chosen or any(b <= a for a, b in zip(chosen, chosen[1:])):
            raise ValueError(
                "histogram bounds must be a non-empty strictly increasing "
                f"sequence, got {chosen!r}"
            )
        self.bounds = chosen
        self._counts = [0] * (len(chosen) + 1)
        self._sum = 0.0
        self._drained_counts = [0] * (len(chosen) + 1)
        self._drained_sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample into its covering bucket."""
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._changed.add(self)

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def counts(self) -> List[int]:
        """Per-bucket counts (``len(bounds) + 1``; last is overflow)."""
        return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """Rank-interpolated quantile (see :func:`quantile_from_counts`)."""
        return quantile_from_counts(self.bounds, self._counts, q)

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The serving dashboard triple: p50 / p95 / p99."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def merge_counts(self, counts: Sequence[int], total: float) -> None:
        """Fold another process's bucket counts and sum in (exact —
        boundaries are fixed, so buckets align or the merge refuses)."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"cannot merge {len(counts)} buckets into "
                f"{len(self._counts)} (boundary mismatch)"
            )
        # one C-level pass, stored in place in one step
        self._counts[:] = map(add, self._counts, counts)
        self._sum += total
        self._changed.add(self)


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _metric_key(metric: _Metric):
    return metric._key


class MetricsRegistry:
    """Get-or-create metric store with JSON-able snapshot/delta/merge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (name, ((label, value), ...)) -> metric object
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        #: metrics changed since the last drain (each adds itself)
        self._changed: set = set()

    # -- get-or-create --------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """The :class:`Counter` for ``(name, labels)``, created on first use."""
        return self._get(name, labels, Counter, ())

    def gauge(self, name: str, **labels) -> Gauge:
        """The :class:`Gauge` for ``(name, labels)``, created on first use."""
        return self._get(name, labels, Gauge, ())

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        """The :class:`Histogram` for ``(name, labels)`` (default
        :data:`TIME_BUCKETS` boundaries; ``buckets`` must match on reuse).

        The match compares the boundaries as numbers in one tuple
        comparison (``1 == 1.0``), without converting them one by one:
        :meth:`merge` runs it for every histogram row a pooled release
        ships home.
        """
        metric = self._get(name, labels, Histogram, (buckets,))
        if buckets is not None and metric.bounds != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already exists with different bucket "
                "boundaries"
            )
        return metric

    def _get(self, name: str, labels, factory, args):
        key = (str(name), _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(*args, key=key, changed=self._changed)
                    self._metrics[key] = metric
        if not isinstance(metric, factory):
            raise ValueError(
                f"metric {name!r}{dict(key[1])!r} is a "
                f"{type(metric).__name__}, not a {factory.__name__}"
            )
        return metric

    # -- snapshot / delta / merge ---------------------------------------------
    def _rows(self, delta: bool) -> List[Dict]:
        """One row per metric in key order: every metric, or (``delta``)
        those changed since the last drain, as changes, marked drained.

        A metric leaves the changed set before its value is read, so a
        change racing the drain either ships now or re-enters the set
        and ships next time.
        """
        rows: List[Dict] = []
        if delta:
            changed = list(self._changed)
            self._changed.difference_update(changed)
            metrics = sorted(changed, key=_metric_key)
        else:
            with self._lock:
                metrics = [metric for _, metric in sorted(self._metrics.items())]
        for metric in metrics:
            name, labels = metric._key
            row: Dict = {"name": name, "labels": dict(labels)}
            if isinstance(metric, Counter):
                current = metric._value
                value = current - (metric._drained if delta else 0.0)
                if delta:
                    metric._drained = current
                    if value == 0.0:
                        continue
                row.update(kind="counter", value=value)
            elif isinstance(metric, Gauge):
                row.update(kind="gauge", value=metric._value)
            else:
                full = metric.counts()
                counts, total = full, metric._sum
                if delta:
                    counts = [c - d for c, d in zip(full, metric._drained_counts)]
                    total -= metric._drained_sum
                    metric._drained_counts = full
                    metric._drained_sum += total
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

    def snapshot(self) -> Dict:
        """Full JSON-able state of every metric (read-only)."""
        return {"schema": OBS_SCHEMA, "metrics": self._rows(delta=False)}

    def drain_delta(self) -> Dict:
        """Changes since the last drain (and mark them drained).

        The worker-pool result envelope: each task ships the increments
        it caused, the parent merges them, and nothing is counted twice.
        """
        return {"schema": OBS_SCHEMA, "metrics": self._rows(delta=True)}

    def rebaseline(self) -> None:
        """Discard pending deltas without reporting them.

        Called in freshly forked workers: values inherited from the
        parent must not be re-shipped as if the worker produced them.
        """
        self._rows(delta=True)

    def merge(self, payload: Optional[Dict]) -> None:
        """Fold a snapshot/delta payload from another process in."""
        if not payload:
            return
        for row in payload.get("metrics", ()):
            labels = row.get("labels", {})
            kind = row.get("kind")
            if kind == "counter":
                self.counter(row["name"], **labels).inc(row["value"])
            elif kind == "gauge":
                self.gauge(row["name"], **labels).set(row["value"])
            elif kind == "histogram":
                self.histogram(
                    row["name"], buckets=row["bounds"], **labels
                ).merge_counts(row["counts"], row["sum"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    # -- maintenance ----------------------------------------------------------
    def find(self, name: str, **labels) -> Iterable[Tuple[Dict[str, str], object]]:
        """``(labels, metric)`` pairs matching ``name`` and the given
        label subset (sorted by labels — deterministic)."""
        wanted = _label_key(labels)
        with self._lock:
            items = sorted(self._metrics.items())
        for (metric_name, metric_labels), metric in items:
            if metric_name != name:
                continue
            if any(pair not in metric_labels for pair in wanted):
                continue
            yield dict(metric_labels), metric

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._changed.clear()


#: The process-wide registry.  Forked workers inherit it (and rebaseline
#: in the pool initializer).
_DEFAULT = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _DEFAULT
