"""Tests for study exports (report stores) and the command-line interface."""

import shutil

import pytest

from repro.cli import main
from repro.measure.store import StoreError, load_store
from repro.obs.metrics import MetricsRegistry
from repro.study import StudyConfig, StudyRunner
from repro.study.whitelist import run_whitelist_experiment

SEED, SCALE = 13, 0.005


@pytest.fixture(scope="module")
def small_study():
    return StudyRunner(StudyConfig(study=1, seed=SEED, scale=SCALE, mode="fast")).run()


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("export") / "reports"
    argv = ["study1", "--scale", str(SCALE), "--seed", str(SEED), "--export", str(path)]
    assert main(argv) == 0
    return path


def _segment(path):
    return next(path.glob("*/seg-*.jsonl"))


class TestPersistence:
    def test_round_trip_counts(self, small_study, export_dir):
        db = small_study.database
        loaded = load_store(export_dir)
        assert loaded.aggregate_signature() == db.aggregate_signature()
        assert loaded.mismatch_count == db.mismatch_count
        assert loaded.matched_count == db.matched_count
        assert loaded.totals_by_country() == db.totals_by_country()
        assert loaded.totals_by_host_type() == db.totals_by_host_type()

    def test_round_trip_records_identical(self, small_study, export_dir):
        # The store groups records by country shard, so compare multisets.
        restored = load_store(export_dir).records
        assert sorted(restored, key=repr) == sorted(
            small_study.database.records, key=repr
        )

    def test_round_trip_failures(self, small_study, export_dir):
        failures = load_store(export_dir).failures
        assert failures == small_study.database.failures
        assert failures.sessions_started > 0

    def test_analysis_identical_after_reload(self, small_study, export_dir):
        from repro.analysis import classification_table

        assert classification_table(load_store(export_dir)) == classification_table(
            small_study.database
        )

    def test_corrupt_json_rejected(self, tmp_path, export_dir):
        path = shutil.copytree(export_dir, tmp_path / "copy")
        with _segment(path).open("a") as handle:
            handle.write("{not json}\n")
        registry = MetricsRegistry()
        load_store(path, registry=registry)
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=torn-segment}"] == 1

    def test_unknown_row_type_rejected(self, capsys, tmp_path, export_dir):
        path = shutil.copytree(export_dir, tmp_path / "copy")
        with _segment(path).open("a") as handle:
            handle.write('{"t": "mystery"}\n')
        with pytest.raises(StoreError, match="unknown row type"):
            load_store(path)
        for command in ("scan", "compact"):
            assert main(["store", command, "--dir", str(path)]) == 2
            assert "unknown row type" in capsys.readouterr().err

    def test_export_is_identical_at_any_worker_count(self, tmp_path):
        trees = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}"
            argv = ["study2", "--scale", "0.002", "--seed", "5",
                    "--workers", str(workers), "--export", str(path)]
            assert main(argv) == 0
            trees.append(
                {
                    str(file.relative_to(path)): file.read_bytes()
                    for file in sorted(path.rglob("*"))
                    if file.is_file()
                }
            )
        assert trees[0] and trees[0] == trees[1]

    @pytest.mark.parametrize("occupant", ["segments", "file"])
    def test_export_refuses_an_occupied_path(self, capsys, tmp_path, export_dir, occupant):
        path = export_dir
        if occupant == "file":
            path = tmp_path / "reports.jsonl"
            path.write_text("{}\n")
        argv = ["study1", "--scale", "0.002", "--export", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "running study" not in captured.out


class TestCli:
    def test_study1_runs_and_prints_tables(self, capsys, tmp_path):
        export = tmp_path / "reports"
        code = main(
            [
                "study1",
                "--scale",
                "0.002",
                "--seed",
                "3",
                "--export",
                str(export),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 3" in out
        assert "Table 5" in out
        assert "Bitdefender" in out
        assert load_store(export).total_measurements > 0

    def test_study2_prints_host_types_and_heatmap(self, capsys):
        code = main(["study2", "--scale", "0.001", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 7" in out
        assert "Table 8" in out
        assert "Figure 7" in out

    def test_scan_selects_table1_sites(self, capsys):
        code = main(["scan", "--universe", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "qq.com" in out
        assert "airdroid.com" in out

    def test_ablation_matrix(self, capsys):
        code = main(["ablation"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bypassed-local-root" in out
        assert "rogue-ca" in out
        assert "flagged" in out

    def test_whitelist_command(self, capsys):
        code = main(["whitelist", "--sessions", "30000", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "facebook-class rate" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestWhitelistExperiment:
    def test_rates_reproduce_both_papers(self):
        result = run_whitelist_experiment(seed=5, sessions=150_000)
        assert 0.0030 < result.low_profile_rate < 0.0055
        assert 0.0010 < result.high_profile_rate < 0.0032
        assert result.rate_ratio > 1.4

    def test_whitelisting_products_listed(self):
        result = run_whitelist_experiment(seed=5, sessions=1000)
        assert "bitdefender" in result.whitelisting_products
        assert "eset" in result.whitelisting_products
        assert "kurupira" not in result.whitelisting_products
