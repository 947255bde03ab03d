"""Unit tests for the segmented on-disk report store."""

import json
import os

import pytest

from repro.faults.recovery import database_ops, deliver
from repro.measure import store as store_module
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.store import (
    COUNTER_ROW_CACHE_SIZE,
    InjectedCrash,
    ReportStore,
    StoreError,
    _counter_row,
    iter_store_mismatches,
    load_store,
    scan_store,
)
from repro.obs.metrics import MetricsRegistry


def make_record(mismatch=True, country="US", ip="11.0.0.1", host="h", htype="Popular"):
    leaf = CertSummary(
        subject_cn=host,
        subject_org=None,
        issuer_cn="CA",
        issuer_org="Org",
        issuer_ou=None,
        serial_number=1,
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint="f" * 64,
        public_key_fingerprint="k" * 64,
    )
    return MeasurementRecord(
        study=1,
        campaign="test",
        client_ip=ip,
        country=country,
        hostname=host,
        host_type=htype,
        mismatch=mismatch,
        leaf=leaf,
        chain=(leaf,),
    )


def fill(store, db, n=60):
    """The same mixed stream into a store and an in-memory database."""
    for i in range(n):
        country = ("US", "BR", "??")[i % 3]
        if i % 10 == 0:
            record = make_record(country=country, ip=f"10.0.0.{i}", host=f"s{i % 4}")
            store.add_mismatch(record)
            db.add_mismatch(record)
        else:
            store.add_matched_bulk(country, "Popular", f"s{i % 4}", 3)
            db.add_matched_bulk(country, "Popular", f"s{i % 4}", 3)
    store.add_failure("probe_failed", 2)
    db.failures.probe_failed += 2


class TestRoundTrip:
    def test_scan_matches_in_memory_signature(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db)
        store.close()
        aggregator = scan_store(tmp_path / "s")
        assert aggregator.aggregate_signature() == db.aggregate_signature()
        assert store.aggregator.aggregate_signature() == db.aggregate_signature()
        assert aggregator.totals_by_country() == db.totals_by_country()
        assert aggregator.totals_by_host_type() == db.totals_by_host_type()
        assert aggregator.distinct_proxied_ips() == db.distinct_proxied_ips()
        assert aggregator.proxied_rate == db.proxied_rate

    def test_load_store_rebuilds_database(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db)
        store.close()
        rebuilt = load_store(tmp_path / "s")
        assert rebuilt.aggregate_signature() == db.aggregate_signature()
        assert sorted(r.client_ip for r in iter_store_mismatches(tmp_path / "s")) == (
            sorted(r.client_ip for r in db.records)
        )

    def test_unknown_country_shard_is_quoted(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        store.add_mismatch(make_record(country=None))
        store.close()
        names = os.listdir(tmp_path / "s")
        assert "%3F%3F" in names
        assert "_meta" not in names  # no failures recorded
        aggregator = scan_store(tmp_path / "s")
        assert aggregator.totals_by_country() == {"??": (1, 1)}

    def test_append_database(self, tmp_path):
        db = ReportDatabase()
        db.add_mismatch(make_record())
        db.add_matched_bulk("US", "Popular", "h", 9)
        db.failures.connect_failed = 4
        deliver(database_ops(db), ReportStore(tmp_path / "s"))
        assert scan_store(tmp_path / "s").aggregate_signature() == (
            db.aggregate_signature()
        )

    def test_type_guards(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        with pytest.raises(ValueError):
            store.add_mismatch(make_record(mismatch=False))
        with pytest.raises(ValueError):
            store.add_failure("no_such_counter")
        store.close()
        with pytest.raises(StoreError):
            store.add_matched_bulk("US", "Popular", "h", 1)


def _crash(point):
    raise InjectedCrash(point)


# One append of each kind, as a (method name, args) pair.
APPENDS = [
    ("add_mismatch", (make_record(ip="10.9.9.9"),)),
    ("add_matched_bulk", ("US", "Popular", "a.example", 5)),
    ("add_failure", ("probe_failed", 3)),
]


class TestRefusedAppends:
    """A store that is closed, cleanly or by a crash, refuses an append
    before the append touches the tally or a shard buffer."""

    @pytest.mark.parametrize("method, args", APPENDS, ids=[m for m, _ in APPENDS])
    def test_after_close(self, tmp_path, method, args):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db)
        store.close()
        before = store.aggregator.aggregate_signature()
        with pytest.raises(StoreError):
            getattr(store, method)(*args)
        assert store.aggregator.aggregate_signature() == before
        assert before == scan_store(tmp_path / "s").aggregate_signature()
        assert before == db.aggregate_signature()
        assert not any(
            shard.pending_lines or shard.pending_matched
            for shard in store.segments._shards.values()
        )

    @pytest.mark.parametrize("method, args", APPENDS, ids=[m for m, _ in APPENDS])
    def test_after_injected_crash(self, tmp_path, method, args):
        store = ReportStore(tmp_path / "s", crash_hook=_crash)
        db = ReportDatabase()
        fill(store, db)
        with pytest.raises(InjectedCrash):
            store.flush()
        # The tally still counts every append the store accepted.
        before = store.aggregator.aggregate_signature()
        assert before == db.aggregate_signature()
        with pytest.raises(StoreError):
            getattr(store, method)(*args)
        assert store.aggregator.aggregate_signature() == before
        assert not any(
            shard.pending_lines or shard.pending_matched
            for shard in store.segments._shards.values()
        )


# Matched cells that would not read back as themselves: an empty
# country's shard ("%00") scans back as "\x00", a country that is not
# a str has no shard name, and a counter row needs str host fields.
UNWRITABLE = [
    ("", "Popular", "h"),
    (None, "Popular", "h"),
    (7, "Popular", "h"),
    ("US", None, "h"),
    ("US", "Popular", None),
]


class TestUnwritableCells:
    """A matched cell the store could not read back is refused on the
    append that brings it in, before anything is counted, and the store
    stays usable."""

    @pytest.mark.parametrize("cell", UNWRITABLE, ids=repr)
    def test_refused_before_counting(self, tmp_path, cell):
        store = ReportStore(tmp_path / "s", batch_rows=7)
        db = ReportDatabase()
        fill(store, db, n=20)
        counts = store.ops_appended, store.pending
        with pytest.raises(ValueError):
            store.add_matched_bulk(*cell, 3)
        assert (store.ops_appended, store.pending) == counts
        assert store.aggregator.aggregate_signature() == db.aggregate_signature()
        store.add_matched_bulk("US", "Popular", "after", 2)
        db.add_matched_bulk("US", "Popular", "after", 2)
        store.close()
        assert store.aggregator.aggregate_signature() == db.aggregate_signature()
        assert scan_store(tmp_path / "s").aggregate_signature() == (
            db.aggregate_signature()
        )

    def test_each_cell_is_checked_once(self, tmp_path, monkeypatch):
        checked = []
        check = store_module._check_cell
        monkeypatch.setattr(
            store_module, "_check_cell", lambda cell: checked.append(cell) or check(cell)
        )
        store = ReportStore(tmp_path / "s", batch_rows=3)
        db = ReportDatabase()
        for _ in range(10):
            for sink in (store, db):
                sink.add_matched_bulk("US", "Popular", "a", 1)
                sink.add_matched_bulk("??", "Business", "b", 1)
        store.close()
        assert checked == [("US", "Popular", "a"), ("??", "Business", "b")]
        assert scan_store(tmp_path / "s").aggregate_signature() == (
            db.aggregate_signature()
        )


class TestCounterRowMemo:
    """``store.counter_rows``: content-keyed, bounded, failures never kept."""

    def test_same_torn_row_is_torn_in_every_segment(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db)
        store.close()
        line = b'{"t":"c","ht":"Popular","h":"s1","n":007}\n'
        for shard in ("US", "BR"):
            segment = tmp_path / "s" / shard / "seg-000001.jsonl"
            segment.write_bytes(segment.read_bytes() + line)
        registry = MetricsRegistry()
        assert scan_store(tmp_path / "s", registry).aggregate_signature() == (
            db.aggregate_signature()
        )
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=torn-segment}"] == 2
        misses = _counter_row.cache_info().misses
        with pytest.raises(ValueError):
            _counter_row(line)
        assert _counter_row.cache_info().misses == misses + 1

    def test_malformed_row_is_refused_every_time(self):
        line = b'{"t":"c","ht":"Popular","h":"x","n":-1}\n'
        currsize = _counter_row.cache_info().currsize
        for _ in range(2):
            misses = _counter_row.cache_info().misses
            with pytest.raises(StoreError, match="'c' row"):
                _counter_row(line)
            assert _counter_row.cache_info().misses == misses + 1
        assert _counter_row.cache_info().currsize == currsize

    def test_memo_stays_within_its_bound(self):
        for index in range(COUNTER_ROW_CACHE_SIZE + 3):
            assert _counter_row(b'{"t":"c","ht":"P","h":"x","n":%d}\n' % index) == (
                "P",
                "x",
                index,
            )
        info = _counter_row.cache_info()
        assert info.currsize == info.maxsize == COUNTER_ROW_CACHE_SIZE

    def test_oversized_row_is_decoded_but_not_cached(self):
        hostname = "h" * _counter_row.max_key_bytes
        line = json.dumps(
            {"t": "c", "ht": "Popular", "h": hostname, "n": 4}, separators=(",", ":")
        ).encode() + b"\n"
        currsize = _counter_row.cache_info().currsize
        first = _counter_row(line)
        second = _counter_row(line)
        assert first == second == ("Popular", hostname, 4)
        assert first is not second
        assert _counter_row.cache_info().currsize == currsize


# Ledger entries neither sink may accept: a negative count, a name that
# is not a FailureCounters field, and a name that is not even a string.
BAD_FAILURES = [("policy_denied", -3), ("no_such_counter", 1), (["probe_failed"], 1)]


class TestFailureLedgerCheck:
    @pytest.mark.parametrize(
        "name, count", BAD_FAILURES, ids=["negative", "unknown", "not-a-string"]
    )
    def test_database_rejects_bad_failure(self, name, count):
        db = ReportDatabase()
        with pytest.raises(ValueError):
            db.add_failure(name, count)
        assert db.aggregate_signature() == ReportDatabase().aggregate_signature()

    def test_store_rejects_bad_failures_before_buffering(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db)
        for name, count in BAD_FAILURES:
            with pytest.raises(ValueError):
                store.add_failure(name, count)
        store.close()
        expected = db.aggregate_signature()
        assert store.aggregator.aggregate_signature() == expected
        assert scan_store(tmp_path / "s").aggregate_signature() == expected
        assert load_store(tmp_path / "s").aggregate_signature() == expected
        ReportStore(tmp_path / "s").compact()
        assert scan_store(tmp_path / "s").aggregate_signature() == expected


class TestSegmentsAndBatching:
    def test_segments_rotate_at_threshold(self, tmp_path):
        registry = MetricsRegistry()
        store = ReportStore(
            tmp_path / "s", registry, batch_rows=4, segment_bytes=256
        )
        for i in range(40):
            store.add_mismatch(make_record(ip=f"10.0.0.{i}"))
        store.close()
        segments = [p.name for p in (tmp_path / "s" / "US").iterdir()]
        assert len(segments) > 1
        assert all(name.endswith(".jsonl") for name in segments)
        assert not any(".open" in name for name in segments)
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["store.segments_written"] == len(segments)
        assert counters["store.bytes_written"] > 0

    def test_batching_coalesces_matched_rows(self, tmp_path):
        registry = MetricsRegistry()
        store = ReportStore(tmp_path / "s", registry, batch_rows=1000)
        for _ in range(500):
            store.add_matched_bulk("US", "Popular", "h", 1)
        store.close()
        rows = [
            json.loads(line)
            for line in (tmp_path / "s" / "US" / "seg-000001.jsonl")
            .read_bytes()
            .splitlines()
        ]
        assert rows == [{"t": "c", "ht": "Popular", "h": "h", "n": 500}]
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.batches"] == 1

    def test_auto_flush_at_batch_rows(self, tmp_path):
        registry = MetricsRegistry()
        store = ReportStore(tmp_path / "s", registry, batch_rows=10)
        for i in range(25):
            store.add_matched_bulk("US", "Popular", f"h{i}", 1)
        assert store.pending == 5
        store.close()
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.batches"] == 3
        histogram = registry.deterministic_snapshot()["histograms"][
            "store.batch_rows"
        ]
        assert histogram["count"] == 3


class TestRecoveryAndCompaction:
    def test_recover_heals_torn_open_segment(self, tmp_path):
        store = ReportStore(tmp_path / "s", batch_rows=1000)
        db = ReportDatabase()
        fill(store, db, n=30)
        store.flush()
        # Simulate a crash: a half-written row on the active segment,
        # never sealed.
        shard = store.segments.shard("US")
        shard.handle.write(b'{"t":"c","ht":"Pop')
        shard.handle.flush()
        shard.handle.close()
        shard.handle = None

        registry = MetricsRegistry()
        reopened = ReportStore(tmp_path / "s", registry)
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=torn-segment}"] == 1
        reopened.close()
        aggregator = scan_store(tmp_path / "s")
        assert aggregator.aggregate_signature() == db.aggregate_signature()

    def test_recover_seals_clean_open_segments(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        store.add_matched_bulk("US", "Popular", "h", 5)
        store.flush()
        shard = store.segments.shard("US")
        shard.handle.close()  # writer dies without sealing
        shard.handle = None

        registry = MetricsRegistry()
        ReportStore(tmp_path / "s", registry)
        counters = registry.deterministic_snapshot()["counters"]
        assert "reports.rejected{reason=torn-segment}" not in counters
        names = os.listdir(tmp_path / "s" / "US")
        assert names == ["seg-000001.jsonl"]

    def test_scan_heal_truncates_damaged_sealed_segment(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db, n=30)
        store.close()
        segment = tmp_path / "s" / "US" / "seg-000001.jsonl"
        intact = segment.read_bytes()
        segment.write_bytes(intact + b'{"t":"m","r":{"trunc')
        registry = MetricsRegistry()
        aggregator = scan_store(tmp_path / "s", registry, heal=True)
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=torn-segment}"] == 1
        assert aggregator.aggregate_signature() == db.aggregate_signature()
        assert segment.read_bytes() == intact  # tail gone, rows intact

    def test_compact_preserves_signature_and_coalesces(self, tmp_path):
        store = ReportStore(tmp_path / "s", batch_rows=2, segment_bytes=200)
        db = ReportDatabase()
        fill(store, db, n=60)
        stats = store.compact()
        store.close()
        assert stats["rows_after"] < stats["rows_before"]
        for shard_dir in (tmp_path / "s").iterdir():
            assert len(list(shard_dir.iterdir())) == 1
        assert scan_store(tmp_path / "s").aggregate_signature() == (
            db.aggregate_signature()
        )

    def test_compaction_crash_leftovers_are_skipped(self, tmp_path):
        """A compacted segment's seal header excludes replaced segments."""
        store = ReportStore(tmp_path / "s", batch_rows=2, segment_bytes=200)
        db = ReportDatabase()
        fill(store, db, n=40)
        store.flush()
        store.segments.seal_all()
        old_segments = sorted(p.name for p in (tmp_path / "s" / "US").iterdir())
        store.compact()
        store.close()
        # Resurrect one replaced segment, as if the crash hit between
        # the compacted segment's rename and the unlinks.
        survivor = next(p for p in (tmp_path / "s" / "US").iterdir())
        header = json.loads(survivor.read_bytes().splitlines()[0])
        assert header["t"] == "seal"
        assert set(old_segments) <= set(header["compacts"])
        resurrected = tmp_path / "s" / "US" / old_segments[0]
        resurrected.write_bytes(b'{"t":"c","ht":"Popular","h":"s0","n":999}\n')
        aggregator = scan_store(tmp_path / "s")
        assert aggregator.aggregate_signature() == db.aggregate_signature()

    @pytest.mark.parametrize("position", ["tail", "first-line"])
    @pytest.mark.parametrize(
        ("line", "kind"),
        [
            pytest.param(b'{"t":"c","ht":"\xff","h":"x","n":1}', None, id="non-utf8"),
            pytest.param(b"[1]", None, id="array"),
            pytest.param(b"7", None, id="number"),
            pytest.param(b"[" * 100_000, None, id="deep-nesting"),
            pytest.param(b'{"t":"c","ht":"Popular","h":"x"}', "c", id="no-count"),
            pytest.param(b'{"t":"c","ht":"Pop","h":"x","n":"1"}', "c", id="text-count"),
            pytest.param(b'{"t":"c","ht":null,"h":"x","n":1}', "c", id="null-type"),
            pytest.param(b'{"t":"f","k":"no_such","n":1}', "f", id="unknown-failure"),
            pytest.param(b'{"t":"m","r":{"hostname":"h"}}', "m", id="partial-mismatch"),
        ],
    )
    def test_damaged_row_is_torn_or_a_store_error(self, tmp_path, line, kind, position):
        """Undecodable rows are torn; decodable ones with bad fields raise.

        ``first-line`` puts the damage at the top of its own segment,
        where the seal-header probe reads it first.
        """
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db, n=30)
        store.close()
        name = "seg-000001.jsonl" if position == "tail" else "seg-000009.jsonl"
        segment = tmp_path / "s" / "US" / name
        intact = segment.read_bytes() if segment.exists() else b""
        segment.write_bytes(intact + line + b"\n")
        if kind is not None:
            readers = (
                scan_store,
                load_store,
                lambda path: list(iter_store_mismatches(path)),
                lambda path: ReportStore(path).compact(),
            )
            for read in readers:
                with pytest.raises(StoreError, match=f"'{kind}' row"):
                    read(tmp_path / "s")
            return
        loaded = MetricsRegistry()
        assert load_store(tmp_path / "s", registry=loaded).aggregate_signature() == (
            db.aggregate_signature()
        )
        assert sorted(r.client_ip for r in iter_store_mismatches(tmp_path / "s")) == (
            sorted(r.client_ip for r in db.records)
        )
        healed = MetricsRegistry()
        aggregator = scan_store(tmp_path / "s", healed, heal=True)
        assert aggregator.aggregate_signature() == db.aggregate_signature()
        for registry in (loaded, healed):
            counters = registry.deterministic_snapshot()["counters"]
            assert counters["reports.rejected{reason=torn-segment}"] == 1
        assert segment.read_bytes() == intact
        rescanned = MetricsRegistry()
        scan_store(tmp_path / "s", rescanned)
        counters = rescanned.deterministic_snapshot()["counters"]
        assert "reports.rejected{reason=torn-segment}" not in counters

    @pytest.mark.parametrize("header", [b'{"t":"seal"}', b'{"t":"seal","compacts":5}'])
    def test_malformed_seal_header_is_a_store_error(self, tmp_path, header):
        store = ReportStore(tmp_path / "s")
        store.add_matched_bulk("US", "Popular", "h", 1)
        store.close()
        (tmp_path / "s" / "US" / "seg-000009.jsonl").write_bytes(header + b"\n")
        with pytest.raises(StoreError, match="'seal' row"):
            scan_store(tmp_path / "s")

    def test_mismatch_row_missing_a_record_field(self, tmp_path):
        """Scans need only the keyed fields; rebuilding records needs all."""
        store = ReportStore(tmp_path / "s")
        store.add_mismatch(make_record())
        store.close()
        segment = tmp_path / "s" / "US" / "seg-000001.jsonl"
        row = json.loads(segment.read_bytes())
        del row["r"]["via"]
        segment.write_bytes(json.dumps(row).encode() + b"\n")
        assert scan_store(tmp_path / "s").mismatch_count == 1
        with pytest.raises(StoreError, match="'m' row"):
            load_store(tmp_path / "s")
        with pytest.raises(StoreError, match="'m' row"):
            list(iter_store_mismatches(tmp_path / "s"))

    def test_appends_continue_after_reopen(self, tmp_path):
        store = ReportStore(tmp_path / "s")
        db = ReportDatabase()
        fill(store, db, n=20)
        store.close()
        store2 = ReportStore(tmp_path / "s")
        fill(store2, db, n=20)
        store2.close()
        assert scan_store(tmp_path / "s").aggregate_signature() == (
            db.aggregate_signature()
        )
