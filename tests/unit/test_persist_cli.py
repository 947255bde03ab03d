"""Tests for study exports (report stores) and the command-line interface."""

import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.cli import main
from repro.measure.store import StoreError, iter_store_mismatches, load_store, scan_store
from repro.obs.metrics import MetricsRegistry
from repro.study import StudyConfig, StudyRunner
from repro.study.whitelist import run_whitelist_experiment

SEED, SCALE = 13, 0.005
# The tree this process imported ``repro`` from, for the subprocess checks.
SRC = pathlib.Path(repro.__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("occupant", ["nothing", "file"])
    def test_path_that_is_no_store_rejected(self, capsys, tmp_path, occupant):
        path = tmp_path / "typo"
        if occupant == "file":
            path.write_text("{}\n")
        for read in (scan_store, load_store, lambda p: list(iter_store_mismatches(p))):
            with pytest.raises(StoreError, match="not a directory"):
                read(path)
        for command in ("scan", "compact"):
            assert main(["store", command, "--dir", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and "not a directory" in captured.err
            assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == ([path] if occupant == "file" else [])

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

    @pytest.mark.parametrize("occupant", ["segments", "file"])
    def test_report_store_refuses_an_occupied_path(
        self, capsys, tmp_path, export_dir, occupant
    ):
        path = shutil.copytree(export_dir, tmp_path / "segments")
        if occupant == "file":
            path = tmp_path / "reports.jsonl"
            path.write_text("{}\n")
        before = sorted(tmp_path.rglob("*"))
        argv = ["study2", "--scale", "0.002", "--seed", "7", "--report-store", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


def modules_after(script, *args):
    """The modules a fresh interpreter has loaded once ``script`` ran."""
    script = f"import sys\n{textwrap.dedent(script)}\nprint(*sorted(sys.modules))\n"
    run = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return run.stdout.splitlines()[-1].split()


class TestImportGraph:
    """The store path loads the store, not the layers it never runs."""

    def test_store_import_loads_no_other_layer(self):
        loaded = modules_after("import repro.measure.store")
        layers = "asn1 crypto x509 tls netsim httpmin policy faults study data".split()
        foreign = [
            name
            for name in loaded
            if name.split(".")[0] in ("numpy", "ctypes")
            or name.split(".")[:2] in [["repro", layer] for layer in layers]
        ]
        assert foreign == []

    def test_store_scan_loads_no_study_stack(self, export_dir):
        script = """
            from repro.cli import main

            assert main(["store", "scan", "--dir", sys.argv[1]]) == 0
        """
        loaded = modules_after(script, str(export_dir))
        assert "repro.measure.store" in loaded
        assert [name for name in loaded if name.split(".")[0] == "numpy"] == []
        assert [name for name in loaded if name.startswith("repro.study")] == []
        assert tls_stack(loaded) == []

    def test_parser_loads_no_tls_stack(self):
        loaded = modules_after("from repro.cli import build_parser; build_parser()")
        assert "repro.tls.fingerprint" in loaded
        assert tls_stack(loaded) == []


def tls_stack(loaded):
    """The layers under the TLS probe that ``loaded`` holds."""
    return [
        name
        for name in loaded
        if name.split(".")[:2] in (["repro", "crypto"], ["repro", "x509"], ["repro", "netsim"])
        or name == "repro.tls.probe"
    ]


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
