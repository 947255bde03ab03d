"""The telemetry registry: named metrics plus a lightweight span tracer.

The paper's measurement tool lived or died by being able to account
for every report it collected; this module gives the reproduction the
same accounting discipline.  One :class:`MetricsRegistry` holds three
strictly separated sections:

* **deterministic** — counters, gauges and fixed-bucket histograms
  whose values are a pure function of ``(seed, config)``: event
  counts, scenario verdict tallies, bytes on the wire.  Determinism
  tests pin this section byte-for-byte across worker counts,
  exactly like the report database itself.
* **process** — counters that depend on process boundaries and
  scheduling: RSA generations, vault hits, forge-cache hits.  Real
  and useful, but a 4-worker run legitimately differs from a serial
  one (each process pays its own cache misses), so they must never
  leak into the deterministic section.
* **timing** — monotonic span durations (:meth:`MetricsRegistry.span`)
  aggregated into a per-phase profile.  These feed benchmarks and the
  ``render_metrics_table`` phase profile; they are never compared for
  equality.

Snapshots are plain JSON-serialisable dicts.  :meth:`merge_snapshot`
folds a snapshot back into a registry — sub-shard workers return
snapshots that the parent merges in fixed plan order, mirroring how
the report database itself is merged, which is what makes the
deterministic section worker-count invariant.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

SECTION_DETERMINISTIC = "deterministic"
SECTION_PROCESS = "process"
SECTION_TIMING = "timing"

# Fixed bucket bounds used by the study's shard-size histogram; shared
# here so exports and tests agree on the shape.
SHARD_SESSION_BUCKETS = (100, 1_000, 5_000, 10_000, 25_000, 50_000, 100_000)

# Bucket bounds for the report store's rows-per-flush histogram
# (store.batch_rows): how well ingest is amortising its writes.
INGEST_BATCH_BUCKETS = (1, 16, 64, 256, 1_024, 4_096, 16_384)

# Bucket bounds for fault-injection backoff delays (cooperative ticks):
# the retry schedule is exponential with cap 64, so powers of two.
BACKOFF_TICK_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Stable string key for ``name`` + ``labels``.

    Labels are sorted, so the same logical series always lands on the
    same key — the property snapshot equality rests on.
    """
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class _Counter:
    """Handle to one counter series (hot-loop friendly)."""

    __slots__ = ("_store", "_key", "_lock")

    def __init__(self, store: dict, key: str, lock: threading.RLock) -> None:
        self._store = store
        self._key = key
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._store[self._key] = self._store.get(self._key, 0) + n

    @property
    def value(self) -> int:
        return self._store.get(self._key, 0)


class _Gauge:
    """Handle to one gauge series (last value wins)."""

    __slots__ = ("_store", "_key", "_lock")

    def __init__(self, store: dict, key: str, lock: threading.RLock) -> None:
        self._store = store
        self._key = key
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self._store[self._key] = value

    @property
    def value(self):
        return self._store.get(self._key)


class Histogram:
    """Fixed-bucket histogram (cumulative counts are derived on export).

    ``bounds`` are inclusive upper edges; values above the last bound
    land in the implicit +Inf bucket.  Counts and the running sum are
    exact, so two histograms fed the same values are byte-identical.
    """

    __slots__ = ("bounds", "bucket_counts", "inf_count", "count", "total")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(bounds)
        self.inf_count = 0
        self.count = 0
        self.total = 0

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.inf_count += 1

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.bucket_counts),
            "inf": self.inf_count,
            "count": self.count,
            "sum": self.total,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls(tuple(payload["bounds"]))
        hist.bucket_counts = list(payload["counts"])
        hist.inf_count = payload["inf"]
        hist.count = payload["count"]
        hist.total = payload["sum"]
        return hist

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.inf_count += other.inf_count
        self.count += other.count
        self.total += other.total


@dataclass
class SpanStats:
    """Aggregate timing for one span path."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = field(default=float("inf"))
    max_s: float = 0.0

    def record(self, duration: float) -> None:
        self.count += 1
        self.total_s += duration
        self.min_s = min(self.min_s, duration)
        self.max_s = max(self.max_s, duration)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": round(self.total_s, 6),
            "min_s": round(self.min_s, 6),
            "max_s": round(self.max_s, 6),
        }

    def merge_dict(self, payload: dict) -> None:
        self.count += payload["count"]
        self.total_s += payload["total_s"]
        self.min_s = min(self.min_s, payload["min_s"])
        self.max_s = max(self.max_s, payload["max_s"])


class _Span:
    """Context manager for one timed phase; nests via a per-thread stack."""

    __slots__ = ("_registry", "name", "attrs", "path", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str, attrs: dict) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self.path = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        stack = self._registry._span_stack()
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._registry._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._registry._record_span(self.path, duration)


class MetricsRegistry:
    """Named metrics, one instance per runner/harness/engine.

    Thread-safe, so a caller's threads may share one registry (spans
    nest per thread); cheap enough to put on hot paths — a counter
    increment is a dict update under an RLock.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, object] = {}
        self._histograms: dict[str, Histogram] = {}
        self._process_counters: dict[str, int] = {}
        self._process_gauges: dict[str, object] = {}
        self._spans: dict[str, SpanStats] = {}
        self._tls = threading.local()

    # -- deterministic metrics -------------------------------------------

    def counter(self, name: str, **labels) -> _Counter:
        """A deterministic counter: values must be worker-invariant."""
        return _Counter(self._counters, metric_key(name, labels), self._lock)

    def inc(self, name: str, n: int = 1, **labels) -> None:
        self.counter(name, **labels).inc(n)

    def gauge(self, name: str, **labels) -> _Gauge:
        return _Gauge(self._gauges, metric_key(name, labels), self._lock)

    def histogram(
        self, name: str, bounds: tuple[float, ...], **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(bounds)
            elif hist.bounds != tuple(bounds):
                raise ValueError(f"histogram {key!r} re-declared with new bounds")
        return hist

    # -- process-local metrics -------------------------------------------

    def process_counter(self, name: str, **labels) -> _Counter:
        """A process-local counter: real, but scheduling-dependent."""
        return _Counter(self._process_counters, metric_key(name, labels), self._lock)

    def process_gauge(self, name: str, **labels) -> _Gauge:
        return _Gauge(self._process_gauges, metric_key(name, labels), self._lock)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        """``with registry.span("study.shard", country=...):`` — a timed
        phase.  Nested spans build slash-separated paths, so the phase
        profile reads as a tree."""
        return _Span(self, name, attrs)

    def _span_stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record_span(self, path: str, duration: float) -> None:
        with self._lock:
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats()
            stats.record(duration)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable view of every section (sorted keys)."""
        with self._lock:
            return {
                SECTION_DETERMINISTIC: {
                    "counters": dict(sorted(self._counters.items())),
                    "gauges": dict(sorted(self._gauges.items())),
                    "histograms": {
                        key: hist.to_dict()
                        for key, hist in sorted(self._histograms.items())
                    },
                },
                SECTION_PROCESS: {
                    "counters": dict(sorted(self._process_counters.items())),
                    "gauges": dict(sorted(self._process_gauges.items())),
                },
                SECTION_TIMING: {
                    "spans": {
                        path: stats.to_dict()
                        for path, stats in sorted(self._spans.items())
                    }
                },
            }

    def deterministic_snapshot(self) -> dict:
        """Just the section determinism tests compare byte-for-byte."""
        return self.snapshot()[SECTION_DETERMINISTIC]

    def merge_snapshot(
        self,
        snap: dict,
        sections: tuple[str, ...] = (
            SECTION_DETERMINISTIC,
            SECTION_PROCESS,
            SECTION_TIMING,
        ),
    ) -> None:
        """Fold a snapshot into this registry.

        Counters and histograms add; gauges take the merged value
        (callers merge in fixed order, so this is deterministic the
        same way record merging is); span stats combine count/total
        and min/max.  ``sections`` restricts the merge — the audit
        fan-out merges only timing+process from its harness, keeping
        the exported deterministic section a pure function of the
        scorecards.
        """
        with self._lock:
            if SECTION_DETERMINISTIC in sections and SECTION_DETERMINISTIC in snap:
                det = snap[SECTION_DETERMINISTIC]
                for key, value in det.get("counters", {}).items():
                    self._counters[key] = self._counters.get(key, 0) + value
                self._gauges.update(det.get("gauges", {}))
                for key, payload in det.get("histograms", {}).items():
                    incoming = Histogram.from_dict(payload)
                    existing = self._histograms.get(key)
                    if existing is None:
                        self._histograms[key] = incoming
                    else:
                        existing.merge(incoming)
            if SECTION_PROCESS in sections and SECTION_PROCESS in snap:
                proc = snap[SECTION_PROCESS]
                for key, value in proc.get("counters", {}).items():
                    self._process_counters[key] = (
                        self._process_counters.get(key, 0) + value
                    )
                self._process_gauges.update(proc.get("gauges", {}))
            if SECTION_TIMING in sections and SECTION_TIMING in snap:
                for path, payload in snap[SECTION_TIMING].get("spans", {}).items():
                    stats = self._spans.get(path)
                    if stats is None:
                        stats = self._spans[path] = SpanStats()
                    stats.merge_dict(payload)

    @classmethod
    def from_snapshot(cls, snap: dict) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot (exporter round-trips)."""
        registry = cls()
        registry.merge_snapshot(snap)
        return registry

    def timing_profile(self) -> dict:
        """The per-phase span profile (what benches embed)."""
        return self.snapshot()[SECTION_TIMING]["spans"]
