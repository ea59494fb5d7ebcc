"""Process-wide metrics registry: counters, gauges, log-bucket histograms.

The registry is the single store behind ``GET /metrics``.  Metric
*families* are registered by name; each family fans out into labeled
*series* (``family.labels(model="tiny")``) that the hot paths pre-bind
once and then update with a single lock-protected increment.  Rendering
is pull-based: :meth:`MetricsRegistry.render_text` emits Prometheus
text exposition, :meth:`MetricsRegistry.snapshot` a JSON-ready dict.
Gauges that mirror live state (queue depth, pooled rows) are refreshed
by *collectors* — callbacks that run at exposition time so the hot path
never pays for them.

:class:`LatencyHistogram` lives here.  Buckets are log-spaced 0.1 ms →
~2 min plus an overflow bucket, so one histogram covers pool hits and
multi-second cold loads with ~25 ints of state.  Empty histograms are
well-behaved: ``summary()`` renders zeros (never NaN, never raises) so
a routed-but-never-sampled model still produces a valid ``/metrics``
row.
"""

import re
import threading

_BUCKET_BOUNDS = tuple(1e-4 * 1.6 ** i for i in range(24))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class LatencyHistogram:
    """Thread-safe log-bucket histogram of durations in seconds.

    O(1) space, O(buckets) record, percentile reconstruction from
    bucket counts.  ``merge`` folds another histogram in (used to
    aggregate per-model series into totals).
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum", "_max")

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = [0] * (len(_BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def record(self, seconds):
        idx = len(_BUCKET_BOUNDS)
        for i, bound in enumerate(_BUCKET_BOUNDS):
            if seconds <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    # Alias so histogram series read like their Prometheus kin.
    observe = record

    def merge(self, other):
        """Fold ``other``'s observations into this histogram."""
        if not isinstance(other, LatencyHistogram):
            raise TypeError(f"cannot merge {type(other).__name__}")
        with other._lock:
            counts = list(other._counts)
            count = other._count
            total = other._sum
            peak = other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            if peak > self._max:
                self._max = peak
        return self

    @staticmethod
    def _percentile(counts, total, q, max_s):
        """Upper bound of the bucket holding the q-quantile sample."""
        if total <= 0:
            return 0.0
        rank = q * total
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                if i < len(_BUCKET_BOUNDS):
                    return _BUCKET_BOUNDS[i]
                return max_s
        return max_s

    def _state(self):
        with self._lock:
            return list(self._counts), self._count, self._sum, self._max

    def summary(self):
        counts, count, total, peak = self._state()
        if count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        return {
            "count": count,
            "mean_ms": round(total / count * 1e3, 3),
            "p50_ms": round(self._percentile(counts, count, 0.50, peak) * 1e3, 3),
            "p90_ms": round(self._percentile(counts, count, 0.90, peak) * 1e3, 3),
            "p99_ms": round(self._percentile(counts, count, 0.99, peak) * 1e3, 3),
            "max_ms": round(peak * 1e3, 3),
        }


class Counter:
    """Monotonically increasing value; one labeled series of a family."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value; one labeled series of a family."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value):
        with self._lock:
            self._value = float(value)

    def inc(self, amount=1.0):
        with self._lock:
            self._value += amount

    def dec(self, amount=1.0):
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": LatencyHistogram}


class MetricFamily:
    """A named metric with zero or more labeled series."""

    __slots__ = ("name", "help", "kind", "_lock", "_series")

    def __init__(self, name, kind, help=""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self._lock = threading.Lock()
        self._series = {}

    def labels(self, **labelset):
        """Get or create the series for this label set (pre-bind once,
        then update lock-free of the family)."""
        for key in labelset:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name: {key!r}")
        key = tuple(sorted((k, str(v)) for k, v in labelset.items()))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _KINDS[self.kind]()
                self._series[key] = series
            return series

    def remove(self, **labelset):
        key = tuple(sorted((k, str(v)) for k, v in labelset.items()))
        with self._lock:
            self._series.pop(key, None)

    def series(self):
        with self._lock:
            return list(self._series.items())

    # Convenience pass-throughs for unlabeled metrics.
    def inc(self, amount=1.0):
        self.labels().inc(amount)

    def set(self, value):
        self.labels().set(value)

    def record(self, seconds):
        self.labels().record(seconds)

    observe = record


def _escape_label(value):
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key, extra=()):
    pairs = [f'{k}="{_escape_label(v)}"' for k, v in key] + list(extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class MetricsRegistry:
    """Named metric families plus exposition-time collectors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}
        self._collectors = []

    def _family(self, name, kind, help):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}")
            return family

    def counter(self, name, help=""):
        return self._family(name, "counter", help)

    def gauge(self, name, help=""):
        return self._family(name, "gauge", help)

    def histogram(self, name, help=""):
        return self._family(name, "histogram", help)

    def add_collector(self, fn):
        """Register a callback run before every render/snapshot —
        the place to refresh gauges that mirror live state."""
        with self._lock:
            self._collectors.append(fn)

    def remove_collector(self, fn):
        with self._lock:
            try:
                self._collectors.remove(fn)
            except ValueError:
                pass

    def collect(self):
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn()

    def families(self):
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self):
        """JSON-ready dump: {name: {kind, help, series: [...]}}."""
        self.collect()
        out = {}
        for family in self.families():
            rows = []
            for key, series in family.series():
                labels = dict(key)
                if family.kind == "histogram":
                    rows.append({"labels": labels, **series.summary()})
                else:
                    rows.append({"labels": labels, "value": series.value})
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "series": rows}
        return out

    @staticmethod
    def _series_matches(key, label_filter):
        if not label_filter:
            return True
        labels = dict(key)
        for name, want in label_filter.items():
            have = labels.get(name)
            if have is None:
                return False
            if callable(want):
                if not want(have):
                    return False
            elif have != str(want):
                return False
        return True

    def render_text(self, label_filter=None):
        """Prometheus text exposition (version 0.0.4).

        ``label_filter`` optionally restricts the output to series whose
        labels match every entry — values compare as strings, or, when
        callable, act as predicates over the label value (how ``GET
        /metrics?model=NAME`` scrapes one model without paying full
        exposition cost).  Series missing a filtered label are omitted,
        as are families left with no matching series.
        """
        self.collect()
        lines = []
        for family in self.families():
            series_list = [
                (key, series) for key, series in family.series()
                if self._series_matches(key, label_filter)
            ]
            if label_filter and not series_list:
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, series in series_list:
                if family.kind == "histogram":
                    counts, count, total, _peak = series._state()
                    cumulative = 0
                    for bound, c in zip(_BUCKET_BOUNDS, counts):
                        cumulative += c
                        labels = _format_labels(key, (f'le="{bound:.6g}"',))
                        lines.append(
                            f"{family.name}_bucket{labels} {cumulative}")
                    cumulative += counts[-1]
                    labels = _format_labels(key, ('le="+Inf"',))
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    labels = _format_labels(key)
                    lines.append(f"{family.name}_sum{labels} {total:.9g}")
                    lines.append(f"{family.name}_count{labels} {count}")
                else:
                    labels = _format_labels(key)
                    lines.append(f"{family.name}{labels} {series.value:.9g}")
        return "\n".join(lines) + "\n"


#: Default process-wide registry.  The server, router, and batcher bind
#: here unless handed an explicit registry (the bench does, to isolate
#: per-mode numbers).
REGISTRY = MetricsRegistry()
