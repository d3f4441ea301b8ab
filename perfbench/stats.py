"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


class LayerTotals:
    """Per-pass sums of layer times and counts, keyed by metric name."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def get(self, name: str) -> float:
        return self.values.get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: Iterable[float]) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size of one process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")
