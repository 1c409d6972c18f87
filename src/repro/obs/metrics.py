"""The metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` per observability session holds every
named instrument.  The registry's :meth:`~MetricsRegistry.snapshot` is
**deterministic by construction**: instruments record *what happened*
(branches eliminated, nodes split, cache hits, journal fsyncs), never
*how long it took* — durations belong to spans
(:mod:`repro.obs.trace`), which keeps two same-seed runs byte-identical
when their counter snapshots are serialized (asserted in
``tests/obs/test_metrics.py`` and compared exactly by the perf gate,
``benchmarks/perf_baseline.py``).

Histograms use fixed power-of-two bucket bounds, so their snapshots are
deterministic dictionaries too (no quantile estimation, no sampling).

Naming convention: dotted lowercase paths, ``<layer>.<what>`` —
``analysis.pairs_examined``, ``transform.branches_eliminated``,
``cache.analyses_reused``, ``journal.fsyncs``.  The full catalog lives in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from typing import Dict, List, Union

Number = Union[int, float]

#: Upper bounds of the fixed histogram buckets (powers of two, plus a
#: catch-all).  Fixed bounds keep snapshots deterministic.
HISTOGRAM_BOUNDS = tuple(2 ** i for i in range(16))


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: Number = 1) -> None:
        """Increment by ``amount`` (negative increments are a bug)."""
        self.value += amount


class Gauge:
    """A point-in-time level (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        """Record the current level."""
        self.value = value


class Histogram:
    """A fixed-bucket distribution of deterministic values.

    ``observe(v)`` lands ``v`` in the first bucket whose upper bound is
    >= v (the last bucket is the overflow).  Tracks count/total/min/max
    alongside the buckets.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Number = 0
        self.max: Number = 0
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, value: Number) -> None:
        """Record one observation."""
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        for index, bound in enumerate(HISTOGRAM_BOUNDS):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def to_json(self) -> dict:
        """The histogram as a deterministic record."""
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": list(self.buckets)}


class MetricsRegistry:
    """Named instruments for one observability session."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Total instrument updates ever applied through this registry —
        #: the event count the disabled-overhead budget test multiplies
        #: by the per-call cost of the disabled fast path.
        self.total_updates = 0

    # -- instrument access -------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- recording (session-facing sugar) ----------------------------------

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment counter ``name``."""
        self.counter(name).add(amount)
        self.total_updates += 1

    def set(self, name: str, value: Number) -> None:
        """Set gauge ``name``."""
        self.gauge(name).set(value)
        self.total_updates += 1

    def observe(self, name: str, value: Number) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)
        self.total_updates += 1

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Every instrument's state as a deterministic, sorted record.

        Two runs that performed the same work produce byte-identical
        ``json.dumps(snapshot, sort_keys=True)`` output — the property
        the perf gate's counter comparison and the determinism unit
        test both rely on.
        """
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.to_json()
                           for name, h in sorted(self._histograms.items())},
        }

    def merge(self, snapshot: dict, prefix: str = "") -> None:
        """Fold another registry's snapshot into this one (used by the
        batch supervisor to absorb worker-side metrics).  Counter values
        add; gauges last-write-win; histograms merge bucket-wise."""
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(prefix + name).add(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(prefix + name).set(value)
        for name, data in (snapshot.get("histograms") or {}).items():
            histogram = self.histogram(prefix + name)
            if histogram.count == 0:
                histogram.min = data["min"]
                histogram.max = data["max"]
            elif data["count"]:
                histogram.min = min(histogram.min, data["min"])
                histogram.max = max(histogram.max, data["max"])
            histogram.count += data["count"]
            histogram.total += data["total"]
            buckets = data.get("buckets") or []
            for index, tally in enumerate(buckets[:len(histogram.buckets)]):
                histogram.buckets[index] += tally
