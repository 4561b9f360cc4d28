"""A zero-dependency registry of labeled counters, gauges and histograms.

Every performance-bearing layer of the package reports through one
process-wide :class:`MetricsRegistry` (:func:`registry`):

* the staged pipeline credits per-stage execution counts and wall time
  (``stages.executed`` / ``stages.seconds``, labeled by stage);
* the artifact store counts hits/misses/puts (``artifacts.lookups``
  labeled by outcome, ``artifacts.puts``);
* the :class:`~repro.api.store.JsonFileStore` times entry reads and
  writes (``store.read_seconds``, ``store.write_seconds``);
* :meth:`Runner.run <repro.api.runner.Runner.run>` tracks store hit
  rate, per-spec latency, completed pool tasks and worker utilization;
* ``simulate()`` surfaces the engine counters (cycles by kind, accesses
  by type, fast-path diagnostics, per-bus occupancy).

Design constraints, in priority order:

1. **Never on a hot path.**  Instrumentation happens at per-run,
   per-stage, per-I/O or per-task granularity — never per simulated
   cycle — so the registry can stay dictionary-simple.
2. **Near-zero overhead when disabled.**  :func:`MetricsRegistry.disable`
   turns every record call into a single attribute check and return;
   the timing helpers skip their clock reads entirely.
3. **Cross-process aggregation.**  A registry serializes to a pure-JSON
   :meth:`~MetricsRegistry.snapshot`, snapshots :meth:`~MetricsRegistry.
   merge` into another registry, and merging is associative and lossless
   (counters and histogram moments add, min/max combine) — so pool
   workers capture a fresh registry per task (:func:`capture`) and ship
   its snapshot back to the parent with the task result, regardless of
   which worker ran which task in which order.

Metric names are dotted strings; labels are keyword arguments with
string-convertible values.  Histograms keep count/sum/min/max plus
power-of-two magnitude buckets, which is enough for latency percentile
estimates without per-observation storage.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Canonical label form: sorted ``(key, value)`` string pairs.
LabelItems = Tuple[Tuple[str, str], ...]

#: Histogram bucket index for zero / subnormal observations.
_ZERO_BUCKET = -1075  # below the smallest positive float's exponent


#: Label sets a registry memoizes canonical keys for, at most.
_MEMO_MAX = 1024
#: Value types whose equal values always print alike (not ``float``:
#: ``-0.0 == 0.0``); only label sets of these types are memoized.
_MEMO_TYPES = frozenset((str, int, bool))


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _bucket_index(value: float) -> int:
    """The power-of-two magnitude bucket an observation lands in.

    Bucket ``i`` covers ``(2**(i-1), 2**i]``; zero and negative values
    collapse into a single underflow bucket.  Integer bucket keys are
    exact, so merging bucket maps is lossless.
    """
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.frexp(value)[1]


@dataclass
class HistogramData:
    """Mergeable summary of a stream of observations."""

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: power-of-two magnitude bucket -> observation count
    buckets: Dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = _bucket_index(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged_with(self, other: "HistogramData") -> "HistogramData":
        merged = HistogramData(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            buckets=dict(self.buckets),
        )
        for bucket, count in other.buckets.items():
            merged.buckets[bucket] = merged.buckets.get(bucket, 0) + count
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HistogramData":
        count = int(data.get("count", 0))
        return cls(
            count=count,
            total=float(data.get("total", 0.0)),
            minimum=(math.inf if data.get("min") is None
                     else float(data["min"])),
            maximum=(-math.inf if data.get("max") is None
                     else float(data["max"])),
            buckets={int(k): int(v)
                     for k, v in (data.get("buckets") or {}).items()},
        )


class MetricsRegistry:
    """Labeled counters, gauges and histograms with snapshot/merge.

    Thread-safe: any number of threads may record into one registry at
    once.  All mutating operations are no-ops while the registry is
    disabled.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelItems, float]] = {}
        self._gauges: Dict[str, Dict[LabelItems, float]] = {}
        self._histograms: Dict[str, Dict[LabelItems, HistogramData]] = {}
        self._keys: Dict[tuple, LabelItems] = {}

    # ------------------------------------------------------------------
    # Enablement
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _key(self, labels: Dict[str, Any]) -> LabelItems:
        """``_label_items(labels)``, memoized under the call's
        ``labels.items()`` and value types (``1``, ``True`` and ``1.0``
        are equal but print apart), so a repeated label set skips the
        sort.  Unhashable values are not memoized."""
        types = tuple(map(type, labels.values()))
        memo_key = (tuple(labels.items()), types)
        try:
            key = self._keys.get(memo_key)
        except TypeError:
            return _label_items(labels)
        if key is None:
            key = _label_items(labels)
            if _MEMO_TYPES.issuperset(types):
                if len(self._keys) >= _MEMO_MAX:
                    self._keys.clear()
                self._keys[memo_key] = key
        return key

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to the counter ``name`` for ``labels``."""
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into the histogram ``name``."""
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = series[key] = HistogramData()
            hist.observe(value)

    def time_block(self, name: str, **labels: object):
        """Observe the wall time of a ``with`` block into a histogram,
        also when the block raises.

        Skips the clock reads entirely while disabled (constraint 2 of
        the module docstring).
        """
        if not self._enabled:
            return _UNTIMED
        return _TimedBlock(self, name, labels)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> float:
        return self._counters.get(name, {}).get(self._key(labels), 0)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        return self._gauges.get(name, {}).get(self._key(labels))

    def histogram(self, name: str,
                  **labels: object) -> Optional[HistogramData]:
        return self._histograms.get(name, {}).get(self._key(labels))

    def counter_items(
        self, name: str
    ) -> Iterator[Tuple[Dict[str, str], float]]:
        """``(labels dict, value)`` pairs of one counter family."""
        with self._lock:
            items = list(self._counters.get(name, {}).items())
        for key, value in items:
            yield dict(key), value

    def names(self) -> List[str]:
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges)
                | set(self._histograms)
            )

    # ------------------------------------------------------------------
    # Snapshot / merge / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Pure-JSON image of the registry (the cross-process wire and
        on-disk format — see ``docs/observability.md``)."""
        with self._lock:
            return {
                "schema": 1,
                "counters": {
                    name: [[list(map(list, key)), value]
                           for key, value in series.items()]
                    for name, series in self._counters.items()
                },
                "gauges": {
                    name: [[list(map(list, key)), value]
                           for key, value in series.items()]
                    for name, series in self._gauges.items()
                },
                "histograms": {
                    name: [[list(map(list, key)), hist.to_dict()]
                           for key, hist in series.items()]
                    for name, series in self._histograms.items()
                },
            }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a snapshot into this registry.

        Counters and histograms aggregate (associatively and losslessly);
        gauges take the snapshot's value.  Merging is how worker-task
        deltas reach the parent registry — and it works even while the
        receiving registry is disabled, so a parent that disabled local
        instrumentation still aggregates faithfully.
        """
        with self._lock:
            for name, series in (snapshot.get("counters") or {}).items():
                target = self._counters.setdefault(name, {})
                for raw_key, value in series:
                    key = tuple(tuple(pair) for pair in raw_key)
                    target[key] = target.get(key, 0) + value
            for name, series in (snapshot.get("gauges") or {}).items():
                target = self._gauges.setdefault(name, {})
                for raw_key, value in series:
                    target[tuple(tuple(p) for p in raw_key)] = value
            for name, series in (snapshot.get("histograms") or {}).items():
                target = self._histograms.setdefault(name, {})
                for raw_key, data in series:
                    key = tuple(tuple(pair) for pair in raw_key)
                    incoming = HistogramData.from_dict(data)
                    existing = target.get(key)
                    target[key] = (
                        incoming if existing is None
                        else existing.merged_with(incoming)
                    )

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every metric, or only those whose name starts with
        ``prefix`` (used by the per-family ``reset_*`` shims)."""
        with self._lock:
            for family in (self._counters, self._gauges, self._histograms):
                if prefix is None:
                    family.clear()
                else:
                    for name in [n for n in family if n.startswith(prefix)]:
                        del family[name]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable dump (the ``repro obs metrics`` CLI verb)."""
        lines: List[str] = []
        with self._lock:
            counters = {n: dict(s) for n, s in self._counters.items()}
            gauges = {n: dict(s) for n, s in self._gauges.items()}
            histograms = {n: dict(s) for n, s in self._histograms.items()}
        for name in sorted(counters):
            for key in sorted(counters[name]):
                value = counters[name][key]
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"{name}{_format_labels(key)} = {text}")
        for name in sorted(gauges):
            for key in sorted(gauges[name]):
                lines.append(
                    f"{name}{_format_labels(key)} = {gauges[name][key]:g}"
                )
        for name in sorted(histograms):
            for key in sorted(histograms[name]):
                hist = histograms[name][key]
                lines.append(
                    f"{name}{_format_labels(key)}: count={hist.count} "
                    f"mean={hist.mean:.6g} min={hist.minimum:.6g} "
                    f"max={hist.maximum:.6g} total={hist.total:.6g}"
                )
        return "\n".join(lines)


class _TimedBlock:
    """The context manager :meth:`MetricsRegistry.time_block` returns
    while enabled."""

    __slots__ = ("_registry", "_name", "_labels", "_start")

    def __init__(self, registry: MetricsRegistry, name: str,
                 labels: Dict[str, object]) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start,
                               **self._labels)


#: What :meth:`MetricsRegistry.time_block` returns while disabled.
_UNTIMED = nullcontext()


def _format_labels(key: LabelItems) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


# ----------------------------------------------------------------------
# Process-wide default registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation targets."""
    return _REGISTRY


def set_registry(target: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = target
    return previous


def enabled() -> bool:
    """Whether the process-wide registry is recording."""
    return _REGISTRY.enabled


def inc(name: str, value: float = 1, **labels: object) -> None:
    _REGISTRY.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: object) -> None:
    _REGISTRY.observe(name, value, **labels)


@contextmanager
def capture(enabled: bool = True):
    """Swap in a fresh registry for the duration of a block.

    The pool-worker task boundary: ``_worker_group`` captures each
    task's metrics into a private registry and ships its snapshot back
    in the result envelope, so per-task deltas need no subtraction and
    histogram min/max stay exact.  Restores the previous registry even
    on failure.
    """
    fresh = MetricsRegistry(enabled=enabled)
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Snapshot file I/O (the ``--metrics FILE`` CLI surface)
# ----------------------------------------------------------------------
def write_snapshot(path: str, snapshot: Optional[Dict[str, Any]] = None,
                   ) -> None:
    """Write a registry snapshot as JSON (default: the process registry)."""
    if snapshot is None:
        snapshot = _REGISTRY.snapshot()
    with open(path, "w") as handle:
        json.dump(snapshot, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_snapshot(path: str) -> MetricsRegistry:
    """Rebuild a registry from a snapshot file."""
    with open(path) as handle:
        data = json.load(handle)
    rebuilt = MetricsRegistry()
    rebuilt.merge(data)
    return rebuilt
