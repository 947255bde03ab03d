"""Integration: fast-mode studies streamed into the on-disk store.

The acceptance bar for the spill-to-disk path: a study driven into
segments must reproduce the in-memory run exactly — byte-identical
``aggregate_signature()``, identical Tables 3/7 inputs — for the same
seed, and stay identical across worker counts.
"""

import pytest

from repro.analysis import country_breakdown, host_type_table
from repro.measure.store import load_store, scan_store
from repro.study import StudyConfig, StudyRunner

SEED = 1337
SCALE = 0.002


@pytest.fixture(scope="module")
def memory_run():
    return StudyRunner(
        StudyConfig(study=2, seed=SEED, scale=SCALE, mode="fast")
    ).run()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("report-store") / "segments"
    StudyRunner(
        StudyConfig(
            study=2, seed=SEED, scale=SCALE, mode="fast", report_store=str(path)
        )
    ).run()
    return path


class TestStoreDrivenStudy:
    def test_signature_matches_in_memory_path(self, memory_run, store_dir):
        aggregator = scan_store(store_dir)
        assert aggregator.aggregate_signature() == (
            memory_run.database.aggregate_signature()
        )

    def test_tables_match_in_memory_path(self, memory_run, store_dir):
        aggregator = scan_store(store_dir)
        assert country_breakdown(aggregator, order_by="total") == (
            country_breakdown(memory_run.database, order_by="total")
        )
        assert host_type_table(aggregator) == host_type_table(memory_run.database)
        assert aggregator.distinct_proxied_ips() == (
            memory_run.database.distinct_proxied_ips()
        )

    def test_loaded_records_match_in_memory_multiset(self, memory_run, store_dir):
        loaded = load_store(store_dir)
        assert loaded.aggregate_signature() == (
            memory_run.database.aggregate_signature()
        )
        assert sorted(
            (r.country, r.hostname, r.client_ip) for r in loaded.records
        ) == sorted(
            (r.country, r.hostname, r.client_ip)
            for r in memory_run.database.records
        )

    def test_streaming_run_keeps_database_empty(self, store_dir, memory_run):
        result = StudyRunner(
            StudyConfig(study=2, seed=SEED, scale=SCALE, mode="fast")
        )
        # The store_dir fixture's run streamed everything to disk; its
        # in-memory database must have stayed empty (that is the point).
        del result
        streamed = StudyRunner(
            StudyConfig(
                study=2,
                seed=SEED,
                scale=SCALE,
                mode="fast",
                report_store=str(store_dir.parent / "again"),
            )
        ).run()
        assert streamed.database.total_measurements == 0
        assert streamed.notes["report_store"] == str(store_dir.parent / "again")

    def test_worker_count_invisible_in_store(self, store_dir, tmp_path):
        sharded_dir = tmp_path / "w2"
        StudyRunner(
            StudyConfig(
                study=2,
                seed=SEED,
                scale=SCALE,
                mode="fast",
                workers=2,
                report_store=str(sharded_dir),
            )
        ).run()
        assert scan_store(sharded_dir).aggregate_signature() == (
            scan_store(store_dir).aggregate_signature()
        )

    def test_store_metrics_land_in_deterministic_section(self, store_dir):
        result = StudyRunner(
            StudyConfig(
                study=2,
                seed=SEED,
                scale=SCALE,
                mode="fast",
                report_store=str(store_dir.parent / "metrics"),
            )
        ).run()
        counters = result.metrics["deterministic"]["counters"]
        assert counters["reports.batches"] >= 1
        assert counters["store.segments_written"] >= 1
        assert counters["store.bytes_written"] > 0

    def test_refuses_non_empty_store(self, store_dir, monkeypatch):
        shards_run = []
        monkeypatch.setattr(
            StudyRunner,
            "_run_fast_shard",
            lambda self, population, shard: shards_run.append(shard),
        )
        with pytest.raises(ValueError, match="already has segments"):
            StudyRunner(
                StudyConfig(
                    study=2,
                    seed=SEED,
                    scale=SCALE,
                    mode="fast",
                    report_store=str(store_dir),
                )
            ).run()
        # Refused up front, not after the whole run's shards.
        assert shards_run == []

    def test_wire_mode_rejects_report_store(self):
        with pytest.raises(ValueError, match="fast mode only"):
            StudyConfig(study=1, mode="wire", report_store="/tmp/x")
