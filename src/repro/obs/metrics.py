"""A zero-dependency metrics registry with Prometheus text exposition.

The checker daemon needs to be *watchable*: an operator scraping
``/metrics`` every few seconds should see backpressure, fsync stalls,
retirement horizons, and chunk-latency tails as they happen, not
reconstruct them from bench JSON afterwards.  This module is the whole
metrics substrate — stdlib only, no client library:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — set/inc/dec instantaneous values, or *callback* gauges
  evaluated at scrape time (``registry.gauge(..., fn=...)``) so values
  like "resident ops right now" are read from the source of truth
  instead of being mirrored on every mutation;
* :class:`Histogram` — fixed-bucket cumulative histograms (Prometheus
  ``le`` semantics: a bucket counts observations ``<=`` its bound).

Every family is **label-aware** with a **hard cardinality cap**: metrics
labelled by session id cannot grow without bound under a session-churning
client.  Once a family holds ``max_series`` children, new label
combinations collapse into a single overflow series (every label value
becomes ``"~overflow"``) and the registry counts the collapse — totals
stay right, memory stays bounded, and the cap trip itself is observable
(``repro_metrics_series_dropped_total``).

Exposition is the Prometheus text format (version 0.0.4): ``# HELP`` /
``# TYPE`` headers, escaped help text and label values, ``_bucket``/
``_sum``/``_count`` triplets for histograms.  :meth:`MetricsRegistry.
snapshot` returns the same data as JSON-friendly dicts for the ``metrics``
wire frame.

A single registry :class:`threading.RLock` guards family creation, child
creation, every observation, and exposition — scrapes interleave safely
with the analyzer thread (``BackgroundService`` runs the daemon on its own
thread; tests scrape from another).  The cost is one uncontended lock
acquire per observation, nanoseconds next to a chunk analysis; when
observability is disabled no instrument exists at all and the hot path
never pays anything.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default duration buckets, in seconds: 1ms to 10s, log-ish spacing —
#: chunk analyses are milliseconds, fsync stalls and drains are seconds.
DEFAULT_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

#: Default size buckets, in bytes: 1 KiB to 256 MiB.
DEFAULT_BYTE_BUCKETS = tuple(
    float(1024 * 4**exponent) for exponent in range(10)
)

#: The label value every over-cap combination collapses into.
OVERFLOW_LABEL = "~overflow"

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` line per the exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def format_value(value: float) -> str:
    """A number as the exposition format writes it (ints stay ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - defensive
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Child:
    """One labelled series of a family.  Mutations hold the registry lock."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock


class CounterChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock: threading.RLock) -> None:
        super().__init__(lock)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        with self._lock:
            self.value += amount


class GaugeChild(_Child):
    __slots__ = ("value",)

    def __init__(self, lock: threading.RLock) -> None:
        super().__init__(lock)
        self.value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class HistogramChild(_Child):
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(
        self, lock: threading.RLock, buckets: Tuple[float, ...]
    ) -> None:
        super().__init__(lock)
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # per-bucket, not cumulative
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            index = bisect_left(self.buckets, value)
            if index < len(self.counts):
                self.counts[index] += 1
            self.total += value
            self.count += 1

    def cumulative(self) -> List[int]:
        """Per-bound cumulative counts (``le`` semantics), plus ``+Inf``."""
        out = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        out.append(self.count)  # le="+Inf"
        return out

    def quantile(self, q: float) -> float:
        """A linear-interpolated quantile estimate from the buckets."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self.counts):
            if running + count >= rank and count:
                fraction = (rank - running) / count
                return lower + (bound - lower) * fraction
            running += count
            lower = bound
        return self.buckets[-1] if self.buckets else 0.0


class MetricFamily:
    """One named metric: its type, help text, labels, and child series."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self.fn = fn
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not labelnames and fn is None:
            self._children[()] = self._make_child()

    def _make_child(self) -> _Child:
        lock = self.registry._lock
        if self.kind == "histogram":
            return HistogramChild(lock, self.buckets)
        if self.kind == "gauge":
            return GaugeChild(lock)
        return CounterChild(lock)

    def labels(self, *values: Any) -> Any:
        """The child series for these label values (created on demand).

        Values are coerced to strings.  Past the registry's per-family
        cardinality cap, new combinations share the overflow child and the
        registry counts the collapse.
        """
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {list(self.labelnames)}, "
                f"got {len(values)} values"
            )
        key = tuple(str(value) for value in values)
        with self.registry._lock:
            child = self._children.get(key)
            if child is None:
                if len(self._children) >= self.registry.max_series:
                    self.registry.series_dropped += 1
                    key = (OVERFLOW_LABEL,) * len(self.labelnames)
                    child = self._children.get(key)
                    if child is None:
                        child = self._make_child()
                        self._children[key] = child
                else:
                    child = self._make_child()
                    self._children[key] = child
            return child

    # Unlabelled convenience: family acts as its own single child.

    def _solo(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {list(self.labelnames)}; "
                "use .labels(...)"
            )
        return self._children[()]

    def inc(self, amount: float = 1) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)


class MetricsRegistry:
    """All metric families, their cardinality budget, and the exposition."""

    def __init__(self, max_series: int = 64) -> None:
        if max_series <= 0:
            raise ValueError("max_series must be positive")
        self.max_series = max_series
        self.series_dropped = 0
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Tuple[float, ...] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        if not _NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL.match(label):
                raise ValueError(f"bad label name {label!r} on {name}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.kind != kind
                    or existing.labelnames != labelnames
                    or existing.buckets != buckets
                ):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}{list(existing.labelnames)}"
                    )
                return existing
            family = MetricFamily(
                self, name, kind, help_text, labelnames, buckets, fn
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help_text, labelnames)

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> MetricFamily:
        if fn is not None and labelnames:
            raise ValueError("callback gauges cannot be labelled")
        return self._register(name, "gauge", help_text, labelnames, fn=fn)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> MetricFamily:
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        return self._register(
            name, "histogram", help_text, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Exposition

    def expose(self) -> str:
        """The registry in Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            for family in self._families.values():
                self._expose_family(family, lines)
            lines.append(
                "# HELP repro_metrics_series_dropped_total Label "
                "combinations collapsed into the overflow series by the "
                "per-family cardinality cap."
            )
            lines.append(
                "# TYPE repro_metrics_series_dropped_total counter"
            )
            lines.append(
                f"repro_metrics_series_dropped_total {self.series_dropped}"
            )
        return "\n".join(lines) + "\n"

    def _expose_family(
        self, family: MetricFamily, lines: List[str]
    ) -> None:
        lines.append(f"# HELP {family.name} {escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.fn is not None:
            lines.append(
                f"{family.name} {format_value(family.fn())}"
            )
            return
        for key in sorted(family._children):
            child = family._children[key]
            labels = self._label_text(family.labelnames, key)
            if family.kind == "histogram":
                cumulative = child.cumulative()
                bounds = [format_value(b) for b in family.buckets] + ["+Inf"]
                for bound, count in zip(bounds, cumulative):
                    extra = self._label_text(
                        family.labelnames + ("le",), key + (bound,)
                    )
                    lines.append(f"{family.name}_bucket{extra} {count}")
                lines.append(
                    f"{family.name}_sum{labels} "
                    f"{format_value(child.total)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                lines.append(
                    f"{family.name}{labels} {format_value(child.value)}"
                )

    @staticmethod
    def _label_text(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
        if not names:
            return ""
        pairs = ",".join(
            f'{name}="{escape_label_value(value)}"'
            for name, value in zip(names, values)
        )
        return "{" + pairs + "}"

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly view of every family (the ``metrics`` frame body)."""
        families: Dict[str, Any] = {}
        with self._lock:
            for family in self._families.values():
                record: Dict[str, Any] = {
                    "type": family.kind,
                    "help": family.help,
                }
                if family.fn is not None:
                    record["value"] = family.fn()
                    families[family.name] = record
                    continue
                samples = []
                for key in sorted(family._children):
                    child = family._children[key]
                    labels = dict(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        samples.append({
                            "labels": labels,
                            "count": child.count,
                            "sum": child.total,
                            "buckets": dict(
                                zip(
                                    [
                                        format_value(b)
                                        for b in family.buckets
                                    ]
                                    + ["+Inf"],
                                    child.cumulative(),
                                )
                            ),
                        })
                    else:
                        samples.append(
                            {"labels": labels, "value": child.value}
                        )
                record["samples"] = samples
                families[family.name] = record
            families["repro_metrics_series_dropped_total"] = {
                "type": "counter",
                "help": "Label combinations collapsed by the cap.",
                "samples": [{"labels": {}, "value": self.series_dropped}],
            }
        return families
