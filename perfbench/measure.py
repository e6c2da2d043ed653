"""Measurement helpers: percentiles, peak memory, the machine kernel, and
metrics-registry deltas."""

import math
import os
import statistics
import time

import numpy as np


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    order statistics (``statistics.quantiles`` inclusive method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# -- memory --------------------------------------------------------------------
def _peak_rss_kb(pid) -> int:
    """``VmHWM`` (peak resident set) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids():
    """Live child processes of this process (all threads' children)."""
    pids = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident memory of this process, plus its live children's."""
    total = _peak_rss_kb("self")
    if include_children:
        total += sum(_peak_rss_kb(pid) for pid in child_pids())
    return total / 1024.0


# -- machine speed -------------------------------------------------------------
_KERNEL_MATRIX = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)


def machine_kernel_seconds() -> float:
    """One run of a fixed pure-Python + NumPy kernel that does not touch
    the repository's code; its time tracks the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    product = _KERNEL_MATRIX
    for _ in range(6):
        product = product @ _KERNEL_MATRIX
        product /= product.max()
    elapsed = time.perf_counter() - start
    if acc < 0 or not np.isfinite(product).all():  # keep the work observable
        raise RuntimeError("machine kernel produced an impossible value")
    return elapsed


# -- metrics registry ----------------------------------------------------------
def registry_rows(payload):
    """``{(name, labels): row}`` for one registry snapshot payload."""
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row
        for row in payload["metrics"]
    }


def registry_delta(before, after, name, **labels):
    """``(count, sum)`` a histogram (or ``(value, value)`` a counter) gained
    between two snapshots, summed over rows matching the label subset."""
    count = total = 0.0
    for key, row in after.items():
        if key[0] != name or any(dict(key[1]).get(k) != v for k, v in labels.items()):
            continue
        old = before.get(key)
        if row["kind"] == "histogram":
            count += row["count"] - (old["count"] if old else 0)
            total += row["sum"] - (old["sum"] if old else 0.0)
        else:
            value = row["value"] - (old["value"] if old else 0.0)
            count += value
            total += value
    return count, total
