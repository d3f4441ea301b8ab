"""Process-global metrics: counters, gauges, log-bucket histograms.

The registry is idempotent — asking twice for the same name returns the
same family, so module-level ``REGISTRY.counter(...)`` handles can be
created at import time by independent modules without coordination.
Families are cheap label maps; a family used without labels writes
through a single default child.

Disabled mode is allocation-free: the handles still exist, but every
mutator (``inc``/``set``/``observe``) returns after one attribute read,
allocating nothing and taking no lock.  That is what lets the solver
keep its instrumentation permanently compiled in at noise-level cost.

Rendering follows the Prometheus text exposition format 0.0.4:
``# HELP``/``# TYPE`` headers, ``name{label="v"} value`` samples, and
cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count`` for
histograms.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "render_prometheus",
]

_INF = math.inf


def log_buckets(
    start: float = 0.001, factor: float = 4.0, count: int = 12
) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper bounds (seconds by convention).

    The default ladder spans 1ms .. ~4200s in twelve powers of four —
    wide enough to hold both a cache-hit HTTP request and a pipe-class
    symbolic solve in the same histogram without reconfiguration.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("log_buckets needs start > 0, factor > 1, count >= 1")
    bounds = []
    value = float(start)
    for _ in range(count):
        bounds.append(float(f"{value:.9g}"))
        value *= factor
    return tuple(bounds)


DEFAULT_BUCKETS = log_buckets()


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotonic counter child (one label combination)."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._registry._lock:
            self.value += amount


class Gauge:
    """Gauge child: a value that can go both ways."""

    __slots__ = ("_registry", "value")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._registry = registry
        self.value = 0.0

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Histogram child with fixed (log-scale by default) buckets."""

    __slots__ = ("_registry", "bounds", "counts", "total", "count")

    def __init__(self, registry: "MetricsRegistry", bounds: Tuple[float, ...]) -> None:
        self._registry = registry
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.total += value
            self.count += 1

    def cumulative(self) -> Tuple[Tuple[float, int], ...]:
        """``(le, cumulative_count)`` pairs ending with ``+Inf``."""
        running = 0
        out = []
        for bound, bucket in zip(tuple(self.bounds) + (_INF,), self.counts):
            running += bucket
            out.append((bound, running))
        return tuple(out)


class _Family:
    """One named metric: a label schema plus one child per label tuple."""

    kind = ""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], object] = {}
        self._default: Optional[object] = None

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: object, **kv: object):
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(str(kv[name]) for name in self.labelnames)
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {values!r}"
            )
        child = self._children.get(values)
        if child is None:
            with self._registry._lock:
                child = self._children.setdefault(values, self._new_child())
        return child

    def _unlabeled(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        if self._default is None:
            with self._registry._lock:
                if self._default is None:
                    self._default = self._new_child()
        return self._default

    def samples(self) -> Iterable[Tuple[str, Tuple[str, ...], object]]:
        if self._default is not None:
            yield ("", (), self._default)
        for values in sorted(self._children):
            yield ("", values, self._children[values])


class CounterFamily(_Family):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter(self._registry)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge(self._registry)

    def set(self, value: float) -> None:
        self._unlabeled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabeled().dec(amount)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, registry, name, help, labelnames, buckets) -> None:
        super().__init__(registry, name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histograms need at least one bucket bound")

    def _new_child(self) -> Histogram:
        return Histogram(self._registry, self.buckets)

    def observe(self, value: float) -> None:
        self._unlabeled().observe(value)


class MetricsRegistry:
    """Idempotent name → family registry with a global on/off switch."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, cls, name: str, help: str, labelnames, **kw) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or existing.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered with a different schema"
                )
            return existing
        family = cls(self, name, help, labelnames, **kw)
        with self._lock:
            return self._families.setdefault(name, family)

    def counter(self, name: str, help: str = "", labelnames=()) -> CounterFamily:
        return self._family(CounterFamily, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> GaugeFamily:
        return self._family(GaugeFamily, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> HistogramFamily:
        return self._family(
            HistogramFamily, name, help, labelnames, buckets=buckets
        )

    def reset(self) -> None:
        """Drop every family (tests only — handles become stale)."""
        with self._lock:
            self._families.clear()

    def render(self) -> str:
        return render_prometheus(self)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format 0.0.4."""
    lines = []
    with registry._lock:
        families = sorted(registry._families.items())
    for name, family in families:
        if family._default is None and not family._children:
            continue  # a registered family nobody touched yet
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for _suffix, labelvalues, child in family.samples():
            labels = _labels_text(family.labelnames, labelvalues)
            if isinstance(child, Histogram):
                for bound, cumulative in child.cumulative():
                    le = _format_value(bound)
                    if family.labelnames:
                        inner = labels[1:-1] + f',le="{le}"'
                    else:
                        inner = f'le="{le}"'
                    lines.append(f"{name}_bucket{{{inner}}} {cumulative}")
                lines.append(f"{name}_sum{labels} {_format_value(child.total)}")
                lines.append(f"{name}_count{labels} {child.count}")
            else:
                lines.append(f"{name}{labels} {_format_value(child.value)}")
    return "\n".join(lines) + "\n" if lines else ""


#: The process-global registry every instrumented module writes to.
REGISTRY = MetricsRegistry()
