"""Integration: fault-injected studies must recover byte-identically.

The chaos layer's acceptance bar, end to end: a fast-mode study run
under a recoverable fault plan (transient gate faults + store crash
points) produces the exact aggregate signature of the fault-free run —
at any worker count — while the injected faults stay visible in the
deterministic metrics; a lossy plan holds ``submitted == delivered +
failed`` exactly.  The ``repro chaos`` matrix rides on the same
machinery and must come back all-green.
"""

import json

import pytest

from repro.faults.chaos import run_chaos_matrix
from repro.measure.store import scan_store
from repro.obs.metrics import MetricsRegistry
from repro.study import StudyConfig, StudyRunner

SEED = 2024
SCALE = 0.002
RECOVERABLE = (
    "reset=0.08,429=0.05,crash-flush=2,crash-rotate=2,"
    "segment-bytes=2048,batch-rows=16"
)


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos-ref") / "segments"
    StudyRunner(
        StudyConfig(study=1, seed=SEED, scale=SCALE, report_store=str(path))
    ).run()
    return path


def _faulted_run(tmp_path_factory, workers):
    path = tmp_path_factory.mktemp(f"chaos-w{workers}") / "segments"
    result = StudyRunner(
        StudyConfig(
            study=1,
            seed=SEED,
            scale=SCALE,
            workers=workers,
            report_store=str(path),
            faults=RECOVERABLE,
        )
    ).run()
    return path, result


class TestRecoverableStudyPlans:
    def test_signature_identical_to_fault_free_run(
        self, tmp_path_factory, reference_dir
    ):
        path, result = _faulted_run(tmp_path_factory, workers=1)
        assert scan_store(path).aggregate_signature() == (
            scan_store(reference_dir).aggregate_signature()
        )
        note = result.notes["faults"]
        # Faults genuinely fired and were all recovered.
        assert note["failed"] == 0
        assert note["submitted"] == note["delivered"]
        assert sum(note["injected"].values()) > 0
        assert note["recoveries"] > 0

    def test_worker_counts_share_the_fault_schedule(
        self, tmp_path_factory, reference_dir
    ):
        path, result = _faulted_run(tmp_path_factory, workers=2)
        assert scan_store(path).aggregate_signature() == (
            scan_store(reference_dir).aggregate_signature()
        )
        single_path, single = _faulted_run(tmp_path_factory, workers=1)
        # The gate keys on global op ordinals assigned in plan order, so
        # the injected sequence is invariant across worker counts.
        assert result.notes["faults"] == single.notes["faults"]
        assert scan_store(path).aggregate_signature() == (
            scan_store(single_path).aggregate_signature()
        )

    def test_fault_metrics_are_deterministic(self, tmp_path_factory):
        snapshots = []
        for _ in range(2):
            _path, result = _faulted_run(tmp_path_factory, workers=1)
            deterministic = result.metrics["deterministic"]
            faults = {
                key: value
                for key, value in deterministic["counters"].items()
                if key.startswith(("faults.", "store.recoveries"))
            }
            assert faults  # injections visible in the registry
            snapshots.append(json.dumps(faults, sort_keys=True))
        assert snapshots[0] == snapshots[1]


class TestLossyStudyPlans:
    def test_exact_loss_invariant(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos-lossy") / "segments"
        result = StudyRunner(
            StudyConfig(
                study=1,
                seed=SEED,
                scale=SCALE,
                report_store=str(path),
                faults="drop=0.1,crash-flush=2,segment-bytes=2048,batch-rows=16",
            )
        ).run()
        note = result.notes["faults"]
        assert note["failed"] > 0  # the drill actually bit
        assert note["submitted"] == note["delivered"] + note["failed"]
        # The store holds exactly the delivered ops, no more.
        assert scan_store(path).aggregate_signature() != ""


class TestCrashPlanRequiresStore:
    def test_config_rejects_crash_points_without_report_store(self):
        with pytest.raises(ValueError):
            StudyConfig(study=1, seed=1, scale=SCALE, faults="crash-flush=1")

    def test_bad_plan_string_rejected_at_config_time(self):
        with pytest.raises(ValueError):
            StudyConfig(study=1, seed=1, scale=SCALE, faults="bogus=1")


class TestChaosMatrix:
    def test_matrix_is_all_green_and_worker_invariant(self):
        snapshots = []
        for workers in (1, 2):
            registry = MetricsRegistry()
            outcomes = run_chaos_matrix(
                seed=5, reports=24, workers=workers, registry=registry
            )
            assert all(o.invariant_ok for o in outcomes)
            assert all(o.signature_ok is not False for o in outcomes)
            # Both failure regimes are represented in the matrix.
            assert any(o.signature_ok is True and o.recoveries for o in outcomes)
            assert any(o.signature_ok is None for o in outcomes)
            # Every wire drill's own fault kind actually fired.
            for outcome in outcomes:
                if outcome.name.startswith("wire:"):
                    kind = outcome.name.split(":", 1)[1]
                    assert outcome.injected.get(kind, 0) > 0, outcome
            snapshots.append(
                json.dumps(registry.deterministic_snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]
