"""Typed metric instruments and the per-run registry.

Subsumes the old ad-hoc ``repro.sim.trace`` pair:

* :class:`Counter` — the same additive bag of named scalars (moved here
  verbatim; ``repro.sim.trace`` re-exports it).
* :class:`TraceRecorder` — timestamped series, now with a *consistent*
  lookup contract: ``series()``/``last()`` both raise :class:`KeyError`
  for names that were never sampled (use ``"name" in recorder`` or
  ``series(name, default=[])`` to probe).  The old class returned ``[]``
  from ``series()`` but raised from ``last()``.

New for the observability subsystem:

* :class:`MetricsRegistry` — named, typed instruments
  (:class:`CounterInstrument`, :class:`Gauge`, :class:`Histogram`)
  created on first use.  ``names()`` returns
  :class:`InstrumentMeta` records (name, kind, unit), not bare strings.
* :class:`Histogram` — fixed log-spaced buckets so percentile summaries
  are deterministic and mergeable across runs (no reservoir sampling,
  no wall-clock anywhere).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

__all__ = [
    "Counter",
    "TraceRecorder",
    "InstrumentMeta",
    "CounterInstrument",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A bag of named, additive scalar counters."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] += amount

    def get(self, name: str) -> float:
        return self._values.get(name, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._values)

    def merge(self, other: "Counter") -> None:
        """Fold another counter's totals into this one."""
        for name, value in other._values.items():
            self._values[name] += value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Counter({inner})"


class TraceRecorder:
    """Timestamped (t, value) samples per named series.

    Unknown names raise :class:`KeyError` from both :meth:`series` and
    :meth:`last`; pass ``default=`` to :meth:`series` or test membership
    with ``in`` when a name may not have been sampled yet.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._series: Dict[str, List[Tuple[float, float]]] = defaultdict(list)

    def sample(self, name: str, t: float, value: float) -> None:
        self._series[name].append((t, value))

    def series(self, name: str, default=_MISSING) -> List[Tuple[float, float]]:
        samples = self._series.get(name)
        if not samples:
            if default is not TraceRecorder._MISSING:
                return default
            raise KeyError(f"no samples recorded for series {name!r}")
        return list(samples)

    def names(self) -> List[str]:
        return sorted(k for k, v in self._series.items() if v)

    def last(self, name: str) -> Tuple[float, float]:
        samples = self._series.get(name)
        if not samples:
            raise KeyError(f"no samples recorded for series {name!r}")
        return samples[-1]

    def __contains__(self, name: str) -> bool:
        return bool(self._series.get(name))


class InstrumentMeta(NamedTuple):
    """What ``MetricsRegistry.names()`` returns: metadata, not strings."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str


class CounterInstrument:
    """Monotonic counter; ``add()`` rejects negative deltas."""

    __slots__ = ("meta", "value")

    def __init__(self, meta: InstrumentMeta):
        self.meta = meta
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.meta.name!r} is monotonic; got delta {amount}")
        self.value += amount

    def summary(self) -> Dict[str, float]:
        return {self.meta.name: self.value}


class Gauge:
    """Last-write-wins value with running min/max."""

    __slots__ = ("meta", "value", "min", "max", "updates")

    def __init__(self, meta: InstrumentMeta):
        self.meta = meta
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def summary(self) -> Dict[str, float]:
        if not self.updates:
            return {}
        n = self.meta.name
        return {n: self.value, f"{n}.max": self.max}


# 60 log-spaced bucket edges covering 1 ns .. 1000 s — wide enough for
# every latency in the simulation at ~26% resolution per bucket.
_DEFAULT_EDGES = tuple(10.0 ** (-9 + i * 0.2) for i in range(60))


class Histogram:
    """Fixed-bucket histogram with deterministic percentile summaries.

    Buckets are fixed at construction (log-spaced by default), so the
    summary depends only on the multiset of observations — never on
    arrival order or the wall clock — and two histograms with the same
    edges merge exactly.
    """

    __slots__ = ("meta", "edges", "counts", "count", "total", "min", "max")

    #: Same-timestamp observations commute — the summary depends only on
    #: the multiset of samples, so no ordering contract is needed.
    _san_tiebreak = "commutative"

    def __init__(self, meta: InstrumentMeta, edges: Tuple[float, ...] = _DEFAULT_EDGES):
        self.meta = meta
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Upper edge of the bucket holding the q-th quantile (0..1)."""
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i >= len(self.edges):
                    return self.max
                return min(self.edges[i], self.max)
        return self.max  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {}
        n = self.meta.name
        return {
            f"{n}.count": float(self.count),
            f"{n}.mean": self.mean,
            f"{n}.p50": self.percentile(0.50),
            f"{n}.p95": self.percentile(0.95),
            f"{n}.p99": self.percentile(0.99),
            f"{n}.max": self.max,
        }


class MetricsRegistry:
    """Named, typed instruments created on first use.

    Asking for an existing name with a different kind raises — a name
    means one thing for the whole run.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def counter(self, name: str, unit: str = "1") -> CounterInstrument:
        inst = self._instruments.get(name)
        if type(inst) is CounterInstrument:  # the hot path: one lookup
            return inst
        return self._get(name, "counter", unit, CounterInstrument)

    def gauge(self, name: str, unit: str = "1") -> Gauge:
        return self._get(name, "gauge", unit, Gauge)

    def histogram(self, name: str, unit: str = "s",
                  edges: Tuple[float, ...] = _DEFAULT_EDGES) -> Histogram:
        inst = self._instruments.get(name)
        if inst is None:
            inst = Histogram(InstrumentMeta(name, "histogram", unit), edges)
            self._instruments[name] = inst
        elif not isinstance(inst, Histogram):
            raise ValueError(
                f"instrument {name!r} already registered as {inst.meta.kind}")
        return inst

    def _get(self, name, kind, unit, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(InstrumentMeta(name, kind, unit))
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise ValueError(
                f"instrument {name!r} already registered as {inst.meta.kind}")
        return inst

    def get(self, name: str):
        """Look up an existing instrument; KeyError if never created."""
        inst = self._instruments.get(name)
        if inst is None:
            raise KeyError(f"no instrument named {name!r}")
        return inst

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[InstrumentMeta]:
        """Metadata for every instrument, sorted by name."""
        return sorted((inst.meta for inst in self._instruments.values()))

    def flat(self) -> Dict[str, float]:
        """One flat {key: value} dict suitable for ``RunResult.extra``."""
        out: Dict[str, float] = {}
        for name in sorted(self._instruments):
            out.update(self._instruments[name].summary())
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one."""
        for name in sorted(other._instruments):
            inst = other._instruments[name]
            kind = inst.meta.kind
            if kind == "counter":
                self.counter(name, inst.meta.unit).add(inst.value)
            elif kind == "histogram":
                self.histogram(name, inst.meta.unit, inst.edges).merge(inst)
            else:  # gauge: last-writer-wins across registries
                if inst.updates:
                    mine = self.gauge(name, inst.meta.unit)
                    mine.set(inst.value)
                    mine.min = min(mine.min, inst.min)
                    mine.max = max(mine.max, inst.max)

    # -- snapshots (cross-process transport) ------------------------------

    def to_snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict image of every instrument, picklable and
        JSON-serialisable, ordered by name.  ``from_snapshot`` inverts it
        exactly, so a registry can cross a process boundary and merge
        into another with no loss."""
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            kind = inst.meta.kind
            entry: Dict[str, object] = {"kind": kind, "unit": inst.meta.unit}
            if kind == "counter":
                entry["value"] = inst.value
            elif kind == "gauge":
                entry.update(value=inst.value, min=inst.min, max=inst.max,
                             updates=inst.updates)
            else:  # histogram
                entry.update(edges=list(inst.edges), counts=list(inst.counts),
                             count=inst.count, total=inst.total,
                             min=inst.min, max=inst.max)
            out[name] = entry
        return out

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_snapshot` output."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot dict into this registry (see :meth:`merge`)."""
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry["kind"]
            unit = str(entry.get("unit", "1"))
            if kind == "counter":
                self.counter(name, unit).add(float(entry["value"]))
            elif kind == "gauge":
                updates = int(entry.get("updates", 0))
                if updates:
                    gauge = self.gauge(name, unit)
                    gauge.set(float(entry["value"]))
                    gauge.min = min(gauge.min, float(entry["min"]))
                    gauge.max = max(gauge.max, float(entry["max"]))
            elif kind == "histogram":
                edges = tuple(entry["edges"])
                other = Histogram(InstrumentMeta(name, "histogram", unit), edges)
                other.counts = [int(c) for c in entry["counts"]]
                other.count = int(entry["count"])
                other.total = float(entry["total"])
                other.min = float(entry["min"])
                other.max = float(entry["max"])
                self.histogram(name, unit, edges).merge(other)
            else:
                raise ValueError(f"unknown instrument kind {kind!r} for {name!r}")
