"""The report pipeline: op stream, optional fault gate, sink.

Every report batch reaches its destination the same way.  A shard
database becomes an ordered op stream (:func:`database_ops`: mismatch
records, matched bulk counters, failure-ledger increments), and
:func:`deliver` feeds it into any
:class:`~repro.measure.database.ReportSink` — the in-memory database,
a report store, or a :class:`ResilientStore`.  Under a fault plan the
ops meet two hazards on the way:

* a :class:`FaultGate` that models the transport: transient kinds
  (``reset``, ``429``) cost seeded-backoff retries before the op gets
  through, ``drop`` loses it outright (the only unrecoverable kind);
* a :class:`CrashSchedule` wired into the store's crash points, which
  kills the writer mid-flush/rotate/seal/compact.

:class:`ResilientStore` is the sink that survives the second: after a
crash it reopens the store (healing torn tails), consults
``ops_durable`` to find exactly which applied ops the dead instance
never made durable, and replays from the first lost one.  Because the
store's crash points fire before any byte of the cycle is written, the
durable set is always a prefix of the applied ops — replay is exact,
never double-counts, and a plan without ``drop`` reproduces the
fault-free ``aggregate_signature()`` byte-identically.

The loss invariant is accounted exactly: ``submitted == delivered +
failed`` where ``failed`` is precisely the gate's dropped set.
"""

from __future__ import annotations

import pathlib
from collections import Counter
from typing import Iterable

from repro.faults.plan import Backoff, FaultPlan
from repro.measure.database import ReportDatabase, ReportSink
from repro.measure.store import InjectedCrash, ReportStore
from repro.obs.metrics import BACKOFF_TICK_BUCKETS, MetricsRegistry

#: Transient gate kinds: injected, retried with backoff, recoverable.
GATE_TRANSIENT_KINDS = ("reset", "429")


class CrashSchedule:
    """Stateful crash trigger for the store's named crash points.

    ``crash-<point>=N`` fires an :class:`InjectedCrash` at every Nth
    occurrence of that point.  The occurrence immediately after a fire
    is always skipped, so recovery makes progress even at cadence 1 —
    the reopened writer's first flush is never re-killed at the same
    point.
    """

    def __init__(
        self, plan: FaultPlan, registry: MetricsRegistry | None = None
    ) -> None:
        self.every = dict(plan.crash_every)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.fired: Counter[str] = Counter()
        self._seen: Counter[str] = Counter()
        self._skip: set[str] = set()

    def __call__(self, point: str) -> None:
        every = self.every.get(point)
        if not every:
            return
        if point in self._skip:
            self._skip.discard(point)
            return
        self._seen[point] += 1
        if self._seen[point] % every == 0:
            self._skip.add(point)
            self.fired[point] += 1
            self.metrics.inc("faults.injected", kind=f"crash-{point}")
            raise InjectedCrash(point)


class FaultGate:
    """Per-op transport hazard for the fast-mode delivery stream.

    Decisions are keyed on the global op ordinal, which the parent
    process assigns in fixed plan order — so the injected fault
    sequence is identical for any worker count.  Each ordinal is
    evaluated exactly once; asking again for an evaluated ordinal
    returns the cached verdict without re-counting metrics.
    """

    def __init__(self, plan: FaultPlan, registry: MetricsRegistry | None = None) -> None:
        self.plan = plan
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.backoff = Backoff(plan.seed)
        self.dropped: set[int] = set()
        self.injected: Counter[str] = Counter()
        self.retries = 0
        self.ticks_waited = 0
        self._evaluated = -1
        self._h_backoff = self.metrics.histogram(
            "faults.backoff_ticks", BACKOFF_TICK_BUCKETS
        )

    def attempt(self, index: int) -> bool:
        """True when op ``index`` gets through (possibly after retries)."""
        if index <= self._evaluated:
            return index not in self.dropped
        self._evaluated = index
        if self.plan.fires("drop", "gate", index):
            self._count("drop")
            return self._drop(index, "drop")
        for kind in GATE_TRANSIENT_KINDS:
            if self.plan.rates.get(kind, 0.0) <= 0.0:
                continue
            attempt = 0
            while self.plan.fires(kind, "gate", index, attempt):
                self._count(kind)
                self.retries += 1
                self.metrics.inc("faults.retries", kind=kind)
                delay = self.backoff.delay(
                    attempt,
                    "gate",
                    kind,
                    index,
                    retry_after=1 if kind == "429" else None,
                )
                self.ticks_waited += delay
                self._h_backoff.observe(delay)
                attempt += 1
                if attempt >= self.plan.retries:
                    return self._drop(index, kind)
        return True

    def _count(self, kind: str) -> None:
        self.injected[kind] += 1
        self.metrics.inc("faults.injected", kind=kind)

    def _drop(self, index: int, kind: str) -> bool:
        self.dropped.add(index)
        self.metrics.inc("faults.dropped", kind=kind)
        return False


# -- the op stream -------------------------------------------------------

def database_ops(database: ReportDatabase) -> Iterable[tuple]:
    """One shard database as an ordered op stream: the merge currency.

    Mismatches, then matched bulk counters, then failure increments —
    the ops :meth:`~repro.measure.database.ReportSink.apply` takes.
    Counts are never zero, so every op is exactly one store append.
    """
    for record in database.records:
        yield ("m", record)
    for (country, host_type, hostname), count in database.matched_counts.items():
        yield ("c", country, host_type, hostname, count)
    for name, value in vars(database.failures).items():
        if value:
            yield ("f", name, value)


def deliver(
    ops: Iterable[tuple], sink: ReportSink, gate: FaultGate | None = None
) -> dict:
    """Drive ``ops`` through an optional ``gate`` into ``sink``; close it.

    The one delivery loop: study merges, exports and the chaos drills
    all come through here, whatever the sink.  Op ordinals are assigned
    in stream order, so the gate's decisions depend only on the stream.
    Returns the exact loss accounting: ``submitted`` ops in,
    ``delivered`` applied, ``failed`` dropped by the gate, with
    ``submitted == delivered + failed`` always — plus the gate's
    ``retries`` and ``injected`` counts and the sink's own
    :meth:`~repro.measure.database.ReportSink.stats`.
    """
    submitted = 0
    for op in ops:
        if gate is None or gate.attempt(submitted):
            sink.apply(op)
        submitted += 1
    sink.close()
    accounting = {"submitted": submitted, "delivered": submitted, "failed": 0}
    if gate is not None:
        failed = len(gate.dropped)
        accounting.update(
            delivered=submitted - failed,
            failed=failed,
            retries=gate.retries,
            injected=dict(sorted(gate.injected.items())),
        )
    accounting.update(sink.stats())
    return accounting


class ResilientStore(ReportSink):
    """A report store sink that heals itself after injected crashes.

    The plan's crash schedule is installed as the store's crash hook,
    and every :class:`InjectedCrash` is answered by reopening the
    directory (which heals torn tails) and re-applying the ops the dead
    store had not made durable.  Ops applied since the last flush are
    kept for that replay and dropped once a flush covers them.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        plan: FaultPlan,
        registry: MetricsRegistry | None = None,
        *,
        batch_rows: int = 4096,
        segment_bytes: int | None = None,
    ) -> None:
        self.path = path
        self.plan = plan
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.schedule = (
            CrashSchedule(plan, self.metrics) if plan.has_crashes() else None
        )
        self._batch_rows = plan.batch_rows or batch_rows
        self._segment_bytes = plan.segment_bytes or segment_bytes
        self.recoveries = 0
        self.torn_tails = 0
        self.store = self._open()
        # Ops applied to self.store that a flush may not cover yet; the
        # first one is the store's op number _unflushed_base.
        self._unflushed: list[tuple] = []
        self._unflushed_base = 0

    def _open(self) -> ReportStore:
        kwargs: dict = {"batch_rows": self._batch_rows}
        if self._segment_bytes is not None:
            kwargs["segment_bytes"] = self._segment_bytes
        return ReportStore(
            self.path,
            self.metrics,
            crash_hook=self.schedule,
            crash_tear=self.plan.tear,
            **kwargs,
        )

    def stats(self) -> dict:
        """Crash recoveries so far, torn tails healed, crashes per point."""
        fired = self.schedule.fired if self.schedule is not None else {}
        return {
            "recoveries": self.recoveries,
            "torn_tails": self.torn_tails,
            "crashes": dict(sorted(fired.items())),
        }

    def apply(self, op: tuple) -> None:
        self._unflushed.append(op)
        try:
            self.store.apply(op)
        except InjectedCrash:
            self._recover()
        durable = self.store.ops_durable - self._unflushed_base
        if durable:
            del self._unflushed[:durable]
            self._unflushed_base += durable

    def _recover(self) -> None:
        """Reopen the store and replay what the crash lost, until it sticks.

        The store's crash points fire before the cycle's writes, so the
        dead store's durable ops are a prefix of the applied ones: the
        replay starts at op ``ops_durable`` and never double-counts.
        """
        while True:
            lost = self._unflushed[self.store.ops_durable - self._unflushed_base :]
            self.recoveries += 1
            self.torn_tails += self.store.crash_torn_segments
            self.metrics.inc("store.recoveries")
            self.store = self._open()
            self._unflushed, self._unflushed_base = lost, 0
            try:
                for op in lost:
                    self.store.apply(op)
                return
            except InjectedCrash:
                continue

    def compact(self) -> dict:
        """Run store compaction, riding through injected crashes."""
        while True:
            try:
                return self.store.compact()
            except InjectedCrash:
                self._recover()

    def close(self) -> None:
        """Close the store, riding through injected seal/flush crashes."""
        while True:
            try:
                self.store.close()
                return
            except InjectedCrash:
                self._recover()
