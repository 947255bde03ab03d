"""Report storage: one tally of the counts, plus the mismatch records.

At paper scale (12.3M measurements) the matched majority is stored as
counters keyed by (country, host type, hostname); every mismatch — the
interesting 0.41 % — is stored in full.

:class:`ReportTally` holds the counts the analysis tables read and the
one query surface over them, ``aggregate_signature`` included.  Both
report sinks are built on it: :class:`ReportDatabase` is a tally plus
the records, and the on-disk :class:`~repro.measure.store.ReportStore`
keeps one beside its segments — so the two agree by construction.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass, fields

from repro.measure.records import MeasurementRecord


@dataclass
class FailureCounters:
    """Where sessions and probes fell over (§4: not all clients complete)."""

    sessions_started: int = 0
    tool_not_run: int = 0  # no Flash / left page (impression wasted)
    policy_denied: int = 0
    connect_failed: int = 0
    probe_failed: int = 0
    report_failed: int = 0


# A tuple, not a set: membership compares, so an unhashable name is
# simply absent instead of raising TypeError.
FAILURE_NAMES = tuple(field.name for field in fields(FailureCounters))


def record_signature_key(record: MeasurementRecord) -> tuple:
    """The fields of one mismatch that enter the aggregate signature.

    Everything the analysis distinguishes records by — down to
    certificate fingerprints — but none of the bulky summaries, so a
    tally can keep the keys of millions of mismatches without keeping
    the records.  The country comes first and the client IP third.
    """
    return (
        record.country or "??",
        record.hostname,
        record.client_ip,
        record.campaign,
        record.leaf.fingerprint,
        record.leaf.serial_number,
        tuple(c.fingerprint for c in record.chain),
    )


class ReportSink:
    """Where reports land: the interface every report destination shares.

    The reporting server writes one report at a time through
    ``add_mismatch``/``add_matched_bulk``/``add_failure``; merges and
    exports feed an op stream (:func:`repro.faults.recovery.database_ops`)
    through :meth:`apply`, finish with :meth:`close` and report
    :meth:`stats`.
    """

    def apply(self, op: tuple) -> None:
        """Apply one op: ``("m", record)``, ``("c", country, host type,
        hostname, count)`` or ``("f", failure counter, count)``."""
        kind = op[0]
        if kind == "m":
            self.add_mismatch(op[1])
        elif kind == "c":
            self.add_matched_bulk(op[1], op[2], op[3], op[4])
        else:
            self.add_failure(op[1], op[2])

    def close(self) -> None:
        """Make everything applied so far durable."""

    def stats(self) -> dict:
        """What this sink did to get the ops in (crash recoveries, say)."""
        return {}


def _zero_totals() -> list[int]:
    return [0, 0]


class ReportTally(ReportSink):
    """The counts behind Tables 3, 7 and 8, and the query surface over them.

    Matched counters, [proxied, total] per country and per host type,
    the proxied IPs, the failure ledger and one signature key per
    mismatch — never the records, so memory is bounded by the key
    universe rather than the report volume.  The breakdowns are kept
    at ingest time (on the store's ingest path ``add_matched_bulk``
    runs once per distinct cell of each batch), not rebuilt per query.
    """

    def __init__(self) -> None:
        self.matched_counts: Counter[tuple[str, str, str]] = Counter()
        self.mismatch_keys: list[tuple] = []
        self.failures = FailureCounters()
        self._country_totals: defaultdict[str, list[int]] = defaultdict(_zero_totals)
        self._host_type_totals: defaultdict[str, list[int]] = defaultdict(_zero_totals)
        self._proxied_ips: set[str] = set()

    # -- ingest ------------------------------------------------------------

    def add_mismatch(self, record: MeasurementRecord) -> None:
        if not record.mismatch:
            raise ValueError("add_mismatch() requires a mismatch record")
        self.add_mismatch_key(record_signature_key(record), record.host_type)

    def add_mismatch_key(self, key: tuple, host_type: str) -> None:
        """Count one mismatch by its :func:`record_signature_key`."""
        self.mismatch_keys.append(key)
        entry = self._country_totals[key[0]]
        entry[0] += 1
        entry[1] += 1
        entry = self._host_type_totals[host_type]
        entry[0] += 1
        entry[1] += 1
        self._proxied_ips.add(key[2])

    def add_matched_bulk(
        self, country: str, host_type: str, hostname: str, count: int
    ) -> None:
        """``count`` matched measurements at once."""
        if count < 0:
            raise ValueError("negative bulk count")
        if count:
            self.matched_counts[(country, host_type, hostname)] += count
            self._country_totals[country][1] += count
            self._host_type_totals[host_type][1] += count

    def add_failure(self, name: str, count: int = 1) -> None:
        """Count ``count`` more failures under ledger entry ``name``."""
        if name not in FAILURE_NAMES:
            raise ValueError(f"unknown failure counter {name!r}")
        if count < 0:
            raise ValueError("negative failure count")
        setattr(self.failures, name, getattr(self.failures, name) + count)

    # -- totals --------------------------------------------------------------

    @property
    def mismatch_count(self) -> int:
        return len(self.mismatch_keys)

    @property
    def matched_count(self) -> int:
        return sum(self.matched_counts.values())

    @property
    def total_measurements(self) -> int:
        return self.matched_count + self.mismatch_count

    @property
    def proxied_rate(self) -> float:
        total = self.total_measurements
        return self.mismatch_count / total if total else 0.0

    # -- breakdowns -----------------------------------------------------------

    def totals_by_country(self) -> dict[str, tuple[int, int]]:
        """country → (proxied, total); keys sorted for stable rendering."""
        return {
            country: (proxied, total)
            for country, (proxied, total) in sorted(self._country_totals.items())
        }

    def totals_by_host_type(self) -> dict[str, tuple[int, int]]:
        """host type → (proxied, total); keys sorted for stable rendering."""
        return {
            host_type: (proxied, total)
            for host_type, (proxied, total) in sorted(
                self._host_type_totals.items()
            )
        }

    def distinct_proxied_ips(self) -> int:
        return len(self._proxied_ips)

    def aggregate_signature(self) -> str:
        """Order-insensitive digest of everything the analysis reads.

        Two tallies with the same signature hold the same matched
        counters, the same mismatch multiset (down to certificate
        fingerprints) and the same failure totals, whichever sink
        ingested them — the equality the worker-count and
        on-disk-vs-in-memory determinism guarantees are stated in
        terms of.
        """
        digest = hashlib.blake2s()
        for key, count in sorted(self.matched_counts.items()):
            digest.update(repr((key, count)).encode("utf-8"))
        for key in sorted(self.mismatch_keys):
            digest.update(repr(key).encode("utf-8"))
        digest.update(repr(sorted(vars(self.failures).items())).encode("utf-8"))
        return digest.hexdigest()


class ReportDatabase(ReportTally):
    """A tally plus every mismatch record."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[MeasurementRecord] = []

    def add_mismatch(self, record: MeasurementRecord) -> None:
        super().add_mismatch(record)
        self.records.append(record)

    def mismatches(self) -> list[MeasurementRecord]:
        return list(self.records)
