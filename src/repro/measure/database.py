"""Report storage: detailed mismatch records plus aggregate counters.

At paper scale (12.3M measurements) the matched majority is stored as
counters keyed by (country, host type, hostname); every mismatch — the
interesting 0.41 % — is stored in full.  Wire-mode runs also keep a
seeded reservoir sample of matched records for inspection.

The per-country/per-host-type breakdowns the analysis tables read are
maintained incrementally at ingest time; the on-disk streaming path
(:mod:`repro.measure.store`) keeps the same aggregates without holding
any records, and both sides of that split must produce byte-identical
:func:`combine_signature` digests — which is why the signature lives
here as a function of the aggregate state rather than a method over
the record list.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass

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


def record_signature_key(record: MeasurementRecord) -> tuple:
    """The fields of one mismatch that enter the aggregate signature.

    Everything the analysis distinguishes records by — down to
    certificate fingerprints — but none of the bulky summaries, so a
    streaming aggregator can keep the keys of millions of mismatches
    without keeping the records.
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


def combine_signature(
    matched_counts: Counter,
    mismatch_keys: list[tuple],
    failures: FailureCounters,
) -> str:
    """Order-insensitive digest over aggregate report state.

    Shared by :class:`ReportDatabase` and the on-disk streaming
    aggregator: two stores with the same signature hold the same
    matched counters, the same mismatch multiset and the same failure
    totals, whichever path ingested them.
    """
    digest = hashlib.blake2s()
    for key, count in sorted(matched_counts.items()):
        digest.update(repr((key, count)).encode("utf-8"))
    for key in sorted(mismatch_keys):
        digest.update(repr(key).encode("utf-8"))
    digest.update(repr(sorted(vars(failures).items())).encode("utf-8"))
    return digest.hexdigest()


class ReportSink:
    """Where reports land: the interface every report destination shares.

    The reporting server writes one report at a time through
    ``add_mismatch``/``add_matched``/``add_failure`` and honours
    :attr:`overloaded`; merges and exports feed an op stream
    (:func:`repro.faults.recovery.database_ops`) through :meth:`apply`,
    finish with :meth:`close` and report :meth:`stats`.
    """

    #: Back-pressure: while True the reporting server answers 429.
    overloaded = False

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


class ReportDatabase(ReportSink):
    """In-memory store with the query surface the analysis needs."""

    def __init__(
        self, matched_sample_limit: int = 1000, sample_seed: int = 0
    ) -> None:
        self.records: list[MeasurementRecord] = []
        self.matched_counts: Counter[tuple[str, str, str]] = Counter()
        self.matched_samples: list[MeasurementRecord] = []
        self.failures = FailureCounters()
        self._matched_sample_limit = matched_sample_limit
        # Reservoir state: every matched record seen gets an equal
        # chance of a sample slot (Algorithm R), seeded so a fixed
        # (seed, ingest order) reproduces the same sample exactly.
        self._matched_seen = 0
        self._sample_rng = random.Random(sample_seed)
        # Breakdown caches, maintained at ingest time: the analysis
        # tables call totals_by_country()/totals_by_host_type()
        # repeatedly and rebuilding them was O(records + counter keys)
        # per call.
        self._country_totals: dict[str, list[int]] = {}
        self._host_type_totals: dict[str, list[int]] = {}
        self._proxied_ips: set[str] = set()

    # -- ingest ------------------------------------------------------------

    def add_mismatch(self, record: MeasurementRecord) -> None:
        if not record.mismatch:
            raise ValueError("add_mismatch() requires a mismatch record")
        self.records.append(record)
        country = record.country or "??"
        entry = self._country_totals.setdefault(country, [0, 0])
        entry[0] += 1
        entry[1] += 1
        entry = self._host_type_totals.setdefault(record.host_type, [0, 0])
        entry[0] += 1
        entry[1] += 1
        self._proxied_ips.add(record.client_ip)

    def add_matched(self, record: MeasurementRecord) -> None:
        """Store a matched measurement (counter + seeded reservoir)."""
        if record.mismatch:
            raise ValueError("add_matched() requires a non-mismatch record")
        country = record.country or "??"
        key = (country, record.host_type, record.hostname)
        self.matched_counts[key] += 1
        self._count_matched(country, record.host_type, 1)
        self._matched_seen += 1
        if len(self.matched_samples) < self._matched_sample_limit:
            self.matched_samples.append(record)
        else:
            slot = self._sample_rng.randrange(self._matched_seen)
            if slot < self._matched_sample_limit:
                self.matched_samples[slot] = record

    def add_matched_bulk(
        self, country: str, host_type: str, hostname: str, count: int
    ) -> None:
        """Fast-mode ingest: ``count`` matched measurements at once."""
        if count < 0:
            raise ValueError("negative bulk count")
        if count:
            self.matched_counts[(country, host_type, hostname)] += count
            self._count_matched(country, host_type, count)

    def _count_matched(self, country: str, host_type: str, count: int) -> None:
        self._country_totals.setdefault(country, [0, 0])[1] += count
        self._host_type_totals.setdefault(host_type, [0, 0])[1] += count

    def add_failure(self, name: str, count: int = 1) -> None:
        """Count ``count`` more failures under ledger entry ``name``."""
        setattr(self.failures, name, getattr(self.failures, name) + count)

    # -- totals --------------------------------------------------------------

    @property
    def mismatch_count(self) -> int:
        return len(self.records)

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

    def mismatches(self) -> list[MeasurementRecord]:
        return list(self.records)

    def distinct_proxied_ips(self) -> int:
        return len(self._proxied_ips)

    def aggregate_signature(self) -> str:
        """Order-insensitive digest of everything the analysis reads.

        Two databases with the same signature hold the same matched
        counters, the same mismatch multiset (down to certificate
        fingerprints) and the same failure totals — the equality the
        worker-count and on-disk-vs-in-memory determinism guarantees
        are stated in terms of.
        """
        return combine_signature(
            self.matched_counts,
            [record_signature_key(record) for record in self.records],
            self.failures,
        )

    def merge(self, other: "ReportDatabase") -> None:
        """Fold another database into this one (campaign shards)."""
        for record in other.records:
            self.records.append(record)
            self._proxied_ips.add(record.client_ip)
        self.matched_counts.update(other.matched_counts)
        for country, (proxied, total) in other._country_totals.items():
            entry = self._country_totals.setdefault(country, [0, 0])
            entry[0] += proxied
            entry[1] += total
        for host_type, (proxied, total) in other._host_type_totals.items():
            entry = self._host_type_totals.setdefault(host_type, [0, 0])
            entry[0] += proxied
            entry[1] += total
        self._merge_reservoir(other)
        for name, count in vars(other.failures).items():
            self.add_failure(name, count)

    def _merge_reservoir(self, other: "ReportDatabase") -> None:
        """Reservoir-merge the other shard's matched sample.

        Slots are filled by weighted coin flips between the two
        reservoirs (weight = records each side has seen), so a merged
        sample approximates a uniform draw over the union instead of
        privileging whichever shard merged first.  Deterministic for a
        fixed sample seed and merge order.
        """
        total_seen = self._matched_seen + other._matched_seen
        if other.matched_samples:
            if not self.matched_samples:
                self.matched_samples = list(
                    other.matched_samples[: self._matched_sample_limit]
                )
            else:
                ours = self.matched_samples
                theirs = other.matched_samples
                weight_ours = self._matched_seen
                weight_theirs = other._matched_seen
                merged: list[MeasurementRecord] = []
                i = j = 0
                while len(merged) < self._matched_sample_limit and (
                    i < len(ours) or j < len(theirs)
                ):
                    if i >= len(ours):
                        take_theirs = True
                    elif j >= len(theirs):
                        take_theirs = False
                    else:
                        draw = self._sample_rng.random()
                        take_theirs = draw * (weight_ours + weight_theirs) < (
                            weight_theirs
                        )
                    if take_theirs:
                        merged.append(theirs[j])
                        j += 1
                    else:
                        merged.append(ours[i])
                        i += 1
                self.matched_samples = merged
        self._matched_seen = total_seen
