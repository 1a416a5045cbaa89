"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is a flat namespace of named instruments.  Values are plain
ints (counters/gauges) so that :meth:`MetricsRegistry.snapshot` — taken at
every epoch boundary by the timeline — is a cheap dict copy, and snapshots
of the same registry are directly comparable/diffable.

Histograms use *fixed* upper-bound buckets (Prometheus ``le`` semantics: a
value lands in the first bucket whose bound is >= the value; values above
the last bound go to the overflow bucket).  Fixed buckets keep ``observe``
O(log #buckets) and make per-epoch histogram deltas meaningful.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import ObsError


class MetricsError(ObsError):
    """Registry misuse: name collisions across instrument types, etc."""


@dataclass(slots=True)
class Counter:
    """Monotonically increasing integer."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


@dataclass(slots=True)
class Gauge:
    """A point-in-time integer level (may go up and down)."""

    name: str
    value: int = 0

    def set(self, value: int) -> None:
        self.value = value

    def add(self, delta: int) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds plus overflow."""

    __slots__ = ("name", "bounds", "counts", "total", "count", "min", "max")

    def __init__(self, name: str, bounds: tuple[int, ...]):
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise MetricsError(
                f"histogram {name!r} needs strictly increasing bucket "
                f"bounds, got {bounds!r}"
            )
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self.total = 0
        self.count = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> int | None:
        """Upper bound of the bucket holding the q-quantile observation
        (the exact max for the overflow bucket).  None on an empty histogram."""
        return bucket_quantile(
            zip(self.bounds, self.counts), self.count, self.max, q
        )

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(self.bounds, self.counts)),
            "overflow": self.counts[-1],
        }


def bucket_quantile(buckets, count: int, maximum, q: float):
    """The q-quantile of a fixed-bucket histogram: the upper bound of the
    bucket holding the rank-``round(q * count)`` observation, or
    ``maximum`` when that observation lies past the last bound (the
    overflow bucket).  ``buckets`` yields ``(bound, n)`` pairs in
    increasing bound order.  None when ``count`` is 0."""
    if not count:
        return None
    if not 0.0 <= q <= 1.0:
        raise MetricsError(f"quantile {q} outside [0, 1]")
    rank = max(1, round(q * count))
    running = 0
    for bound, n in buckets:
        running += n
        if running >= rank:
            return bound
    return maximum


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Asking for an existing name returns the existing instrument; asking for
    it as a *different* instrument type (or a histogram with different
    bounds) is an error — silent aliasing would corrupt timelines.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is not None and not isinstance(inst, cls):
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        inst = self._get(name, Counter)
        if inst is None:
            inst = self._instruments[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._get(name, Gauge)
        if inst is None:
            inst = self._instruments[name] = Gauge(name)
        return inst

    def histogram(self, name: str, bounds: tuple[int, ...] | None = None) -> Histogram:
        inst = self._get(name, Histogram)
        if inst is None:
            if bounds is None:
                raise MetricsError(f"histogram {name!r} needs bounds on creation")
            inst = self._instruments[name] = Histogram(name, tuple(bounds))
        elif bounds is not None and tuple(bounds) != inst.bounds:
            raise MetricsError(
                f"histogram {name!r} bounds mismatch: "
                f"{inst.bounds} registered, {tuple(bounds)} requested"
            )
        return inst

    # -------------------------------------------------------------- access
    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, int | dict]:
        """Cumulative values of every instrument, keyed by name.

        Counters and gauges snapshot to plain ints, histograms to a nested
        dict (see :meth:`Histogram.snapshot`) — everything JSON-serialisable.
        """
        out: dict[str, int | dict] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[name] = (
                inst.snapshot() if isinstance(inst, Histogram) else inst.value
            )
        return out


def counter_delta(prev: dict, cur: dict, name: str) -> int:
    """Delta of a scalar metric between two :meth:`snapshot` dicts."""
    return int(cur.get(name, 0)) - int(prev.get(name, 0))
