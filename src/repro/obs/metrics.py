"""A process-local metrics registry with a Prometheus text dump.

Counters, gauges, and histograms, named following Prometheus
conventions (``repro_*_total`` for counters) and optionally labelled.
Instrumentation hooks across the engine feed the *installed* registry;
when none is installed (the default) every hook is a cheap
``is None`` check, so the un-observed hot paths stay un-taxed.

Usage::

    registry = install_registry()
    ... run queries ...
    print(registry.to_prometheus())
    uninstall_registry()

The registry is deliberately synchronous and process-local — it models
the paper-relevant quantities (page I/O, workspace sizes, resilience
events), not a distributed telemetry pipeline.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: powers of two cover workspace sizes and
#: tuple counts over the full benchmark range.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


class Counter:
    """A monotonically increasing metric family, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def samples(self) -> Iterable[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge:
    """A metric that can go up and down (e.g. current state size)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterable[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics: each
    ``le`` bucket counts observations less than or equal to its bound,
    plus the implicit ``+Inf`` bucket)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
            buckets
        ):
            raise ValueError("histogram buckets must be sorted and unique")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self._max is None or value > self._max:
            self._max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def max(self) -> Optional[float]:
        """Largest observation — the high-water mark."""
        return self._max

    def cumulative(self) -> List[Tuple[str, int]]:
        """(le, cumulative count) pairs including ``+Inf``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.bucket_counts):
            running += count
            label = f"{bound:g}"
            out.append((label, running))
        running += self.bucket_counts[-1]
        out.append(("+Inf", running))
        return out


class MetricsRegistry:
    """Get-or-create store of metric families, by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda: Counter(name, help), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), "histogram"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for le, cumulative in metric.cumulative():
                    lines.append(
                        f'{metric.name}_bucket{{le="{le}"}} {cumulative}'
                    )
                lines.append(f"{metric.name}_sum {_num(metric.sum)}")
                lines.append(f"{metric.name}_count {metric.count}")
            else:
                samples = list(metric.samples())
                if not samples:
                    lines.append(f"{metric.name} 0")
                for key, value in samples:
                    lines.append(
                        f"{metric.name}{_format_labels(key)} {_num(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # cross-process transport
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-JSON snapshot carrying *complete* metric state —
        label keys, histogram bucket layouts — so a registry can cross a
        process boundary (worker -> parent result payload) and be
        reconstructed by :meth:`merge`.  ``as_dict`` is the lossy
        report-friendly cousin; this one round-trips."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for metric in self:
            if isinstance(metric, Histogram):
                histograms[metric.name] = {
                    "help": metric.help,
                    "buckets": list(metric.buckets),
                    "bucket_counts": list(metric.bucket_counts),
                    "count": metric.count,
                    "sum": metric.sum,
                    "max": metric.max,
                }
            else:
                family = {
                    "help": metric.help,
                    "values": [
                        [[list(pair) for pair in key], value]
                        for key, value in metric.samples()
                    ],
                }
                if isinstance(metric, Counter):
                    counters[metric.name] = family
                else:
                    gauges[metric.name] = family
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge(
        self,
        source: "MetricsRegistry | dict",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Fold ``source`` (a registry or a :meth:`snapshot` dict) into
        this registry: counters add, gauges last-write-wins, histograms
        add bucket-wise (bucket layouts must match).  ``labels`` — e.g.
        ``{"worker": "1234", "shard": "0"}`` — is appended to every
        counter/gauge label key so per-worker contributions stay
        distinguishable in the merged dump."""
        if isinstance(source, MetricsRegistry):
            source = source.snapshot()
        extra = tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))
        for name, family in source.get("counters", {}).items():
            counter = self.counter(name, family.get("help", ""))
            for raw_key, value in family.get("values", []):
                key: LabelKey = tuple(
                    sorted([tuple(pair) for pair in raw_key] + list(extra))
                )
                counter._values[key] = counter._values.get(key, 0.0) + value
        for name, family in source.get("gauges", {}).items():
            gauge = self.gauge(name, family.get("help", ""))
            for raw_key, value in family.get("values", []):
                key = tuple(
                    sorted([tuple(pair) for pair in raw_key] + list(extra))
                )
                gauge._values[key] = float(value)
        for name, family in source.get("histograms", {}).items():
            histogram = self.histogram(
                name,
                family.get("help", ""),
                tuple(family.get("buckets", DEFAULT_BUCKETS)),
            )
            incoming = list(family.get("buckets", DEFAULT_BUCKETS))
            if list(histogram.buckets) != [float(b) for b in incoming]:
                raise ValueError(
                    f"histogram {name!r} bucket layouts differ; "
                    "bucket-wise merge is undefined"
                )
            for index, count in enumerate(family.get("bucket_counts", [])):
                histogram.bucket_counts[index] += count
            histogram.count += family.get("count", 0)
            histogram.sum += family.get("sum", 0.0)
            other_max = family.get("max")
            if other_max is not None and (
                histogram._max is None or other_max > histogram._max
            ):
                histogram._max = other_max

    def as_dict(self) -> dict:
        """Nested-dict snapshot (used by benchmark JSON reports)."""
        out: dict = {}
        for metric in self:
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": metric.kind,
                    "count": metric.count,
                    "sum": metric.sum,
                    "max": metric.max,
                }
            else:
                out[metric.name] = {
                    "kind": metric.kind,
                    "values": {
                        ",".join(f"{k}={v}" for k, v in key) or "": value
                        for key, value in metric.samples()
                    },
                    "total": sum(v for _, v in metric.samples()),
                }
        return out


def _num(value: float) -> str:
    """Integral floats render as integers (Prometheus-friendly)."""
    return str(int(value)) if float(value).is_integer() else repr(value)


#: The installed registry instrumentation hooks feed, or None.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` when observability is off."""
    return _ACTIVE


def install_registry(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Install (creating if needed) the process-local registry and
    return it."""
    global _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    return _ACTIVE


def uninstall_registry() -> Optional[MetricsRegistry]:
    """Remove the installed registry (hooks go back to no-ops),
    returning it for a final dump."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous
