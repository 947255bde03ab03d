"""Wire concurrency: the admission cap must not change a single byte.

ISSUE 10's acceptance bar: a wire study at concurrency 1, 64 and 1024
produces byte-identical ``aggregate_signature()``, per-engine handshake
event logs and deterministic metrics.  Concurrency only reshapes the
process section (loop ticks, queue depth, in-flight high-water).
"""

import json

import pytest

from repro.httpmin import codec as http_codec
from repro.measure import tool
from repro.measure.tool import MeasurementTool
from repro.policy import server as policy_server
from repro.study import StudyConfig, StudyRunner
from repro.tls import probe
from repro.util import memo_counts
from repro.x509 import parse


#: A mix of recoverable wire and server kinds plus truncation, and a
#: lossy plan whose damaged reports reach the failure ledger.
FAULT_PLANS = (
    "reset=0.1,429=0.1,stall=0.2,server-5xx=0.1,truncate=0.05",
    "corrupt=0.1",
)

#: Seed 9 samples no client with an interception product; at seed 7 one
#: engine handles 40 handshake events, so the engine logs are compared.
SEEDS = (9, 7)
ENGINE_SEED = 7


def _run(wire_concurrency: int, faults: str | None = None, seed: int = 9):
    result = StudyRunner(
        StudyConfig(
            study=2,
            seed=seed,
            scale=0.0001,
            mode="wire",
            wire_concurrency=wire_concurrency,
            faults=faults,
        )
    ).run()
    engine_logs = {}
    for key, host in result.notes["wire_client_hosts"].items():
        for interceptor in host.interceptors:
            events = getattr(interceptor, "events", None)
            if events is not None:
                engine_logs[key] = events.to_dicts()
    return result, engine_logs


@pytest.fixture(scope="module")
def seeded_runs():
    return {seed: {n: _run(n, seed=seed) for n in (1, 64, 1024)} for seed in SEEDS}


@pytest.fixture(scope="module")
def runs(seeded_runs):
    return seeded_runs[9]


class TestWireConcurrencyEquivalence:
    def test_signatures_identical(self, seeded_runs):
        for seed, runs in seeded_runs.items():
            signatures = {
                n: result.database.aggregate_signature()
                for n, (result, _logs) in runs.items()
            }
            assert len(set(signatures.values())) == 1, (seed, signatures)

    def test_deterministic_metrics_identical(self, seeded_runs):
        for runs in seeded_runs.values():
            sections = [
                result.metrics["deterministic"] for result, _logs in runs.values()
            ]
            assert sections[0] == sections[1] == sections[2]

    def test_per_engine_event_logs_identical(self, seeded_runs):
        assert seeded_runs[ENGINE_SEED][1][1], "no engine log to compare"
        for runs in seeded_runs.values():
            _serial, serial_logs = runs[1]
            for n in (64, 1024):
                _result, logs = runs[n]
                assert logs.keys() == serial_logs.keys()
                for key in serial_logs:
                    assert logs[key] == serial_logs[key], (
                        f"engine {key} diverged at concurrency {n}"
                    )

    def test_sessions_and_failure_counters_identical(self, seeded_runs):
        for runs in seeded_runs.values():
            baselines = None
            for result, _logs in runs.values():
                failures = result.database.failures
                row = (
                    result.sessions_run,
                    failures.sessions_started,
                    failures.policy_denied,
                    failures.connect_failed,
                    failures.probe_failed,
                    failures.report_failed,
                )
                if baselines is None:
                    baselines = row
                assert row == baselines

    def test_concurrent_runs_actually_multiplexed(self, runs):
        result, _logs = runs[1024]
        process = result.metrics["process"]
        assert result.notes["wire_concurrency"] == 1024
        # The scheduler ran: ticks were spent and sessions overlapped.
        counters = process["counters"]
        gauges = process["gauges"]
        assert counters["loop.ticks"] > 0
        assert counters["wire.queue_delivered"] > 0
        assert gauges["wire.chains_peak_active"] > 1

    def test_cap_one_runs_on_the_scheduler_without_queueing(self, runs):
        result, _logs = runs[1]
        process = result.metrics["process"]
        assert process["counters"]["loop.ticks"] > 0
        assert process["counters"]["wire.queue_delivered"] == 0
        assert process["gauges"]["wire.chains_peak_active"] == 1

    def test_session_failure_at_cap_one_is_counted(self, runs, monkeypatch):
        clean, _logs = runs[1]
        session_task = MeasurementTool.session_task
        started = []

        def first_session_raises(self, *args, **kwargs):
            started.append(args[0].hostname)
            if len(started) == 1:
                raise RuntimeError("session blew up")
            return (yield from session_task(self, *args, **kwargs))

        monkeypatch.setattr(MeasurementTool, "session_task", first_session_raises)
        result, _logs = _run(1)
        counters = result.metrics["deterministic"]["counters"]
        assert counters["loop.task_failures"] == 1
        # Only the failed client's chain stops; every other chain runs.
        completed = result.metrics["process"]["counters"]["loop.completed"]
        assert completed == clean.metrics["process"]["counters"]["loop.completed"] - 1
        assert result.sessions_run == len(started) - 1

    def test_workers_flag_is_lifted_into_concurrency(self):
        # The historical "wire mode is single-worker" rejection is gone:
        # workers>1 now normalises into the admission cap.
        config = StudyConfig(study=2, seed=9, scale=0.0001, mode="wire", workers=8)
        assert config.workers == 1
        assert config.wire_concurrency == 8


@pytest.fixture(scope="module")
def faulted_runs():
    return {
        plan: {seed: {n: _run(n, plan, seed) for n in (1, 64, 1024)} for seed in SEEDS}
        for plan in FAULT_PLANS
    }


@pytest.mark.parametrize("plan", FAULT_PLANS)
def test_faulted_runs_identical_at_every_cap(faulted_runs, plan):
    # Faults are keyed on each client's own report ordinal, so which
    # report is faulted does not depend on how clients interleave.
    assert faulted_runs[plan][ENGINE_SEED][1][1], "no engine log to compare"
    for seed, runs in faulted_runs[plan].items():
        base, base_logs = runs[1]
        counters = base.metrics["deterministic"]["counters"]
        assert any(name.startswith("faults.injected") for name in counters)
        for n in (64, 1024):
            result, logs = runs[n]
            assert (
                result.database.aggregate_signature()
                == base.database.aggregate_signature()
            ), (seed, n)
            assert result.metrics["deterministic"] == base.metrics["deterministic"], (
                seed,
                n,
            )
            assert logs == base_logs, (seed, n)


def test_parse_cache_warmth_changes_no_output():
    # The parse cache is process-global: a second run of the same study
    # finds every genuine chain already parsed.  Outputs must not care.
    # The flight memo sits in front of the parse cache for the probe and
    # the engine's upstream leg alike, so it is emptied before each run
    # for both to reach the parse cache.
    # At the engine seed the upstream leg asks the chain-verdict memo
    # per handshake; the report leg asks it only on a verdict-store miss.
    parse._parse_der.cache_clear()
    probe._decode_flight.cache_clear()
    cold, cold_logs = _run(64, seed=ENGINE_SEED)
    probe._decode_flight.cache_clear()
    warm, warm_logs = _run(64, seed=ENGINE_SEED)
    assert cold.database.aggregate_signature() == warm.database.aggregate_signature()
    assert json.dumps(cold.metrics["deterministic"], sort_keys=True) == json.dumps(
        warm.metrics["deterministic"], sort_keys=True
    )
    assert cold_logs == warm_logs
    cold_counts = cold.metrics["process"]["counters"]
    warm_counts = warm.metrics["process"]["counters"]
    assert warm_counts["x509.parse_cache.hits"] > cold_counts["x509.parse_cache.hits"]
    assert warm_counts["x509.parse_cache.misses"] < cold_counts["x509.parse_cache.misses"]
    assert cold_counts["x509.chain_memo.hits"] > 0


#: The content memos on the wire leg, besides the parse cache.
WIRE_MEMOS = {
    "tool.pem_cache": tool._pem_body,
    "policy.parse_cache": policy_server._parse_policy,
    "tls.hello_frame": probe._hello_frame,
    "tls.flight_decode": probe._decode_flight,
    "http.head_frame": http_codec._encode_head,
    "http.request_heads": http_codec._parse_request_head,
    "http.response_heads": http_codec._parse_response_head,
}


def test_memo_warmth_changes_no_output():
    # Every memo is process-global: a second serial run of the same
    # study derives nothing afresh on the wire leg.  Outputs must not care.
    parse._parse_der.cache_clear()
    for memo in WIRE_MEMOS.values():
        memo.cache_clear()
    cold, cold_logs = _run(1)
    warm, warm_logs = _run(1)
    assert cold.database.aggregate_signature() == warm.database.aggregate_signature()
    assert json.dumps(cold.metrics["deterministic"], sort_keys=True) == json.dumps(
        warm.metrics["deterministic"], sort_keys=True
    )
    assert cold_logs == warm_logs
    cold_counts = cold.metrics["process"]["counters"]
    warm_counts = warm.metrics["process"]["counters"]
    for name in WIRE_MEMOS:
        assert cold_counts[f"{name}.misses"] > 0, name
        assert warm_counts[f"{name}.misses"] == 0, name
        assert warm_counts[f"{name}.hits"] > 0, name
    # Reply templates live on each run's listeners, and report verdicts
    # are keyed on each run's root store, so both runs fill them.
    for counts in (cold_counts, warm_counts):
        for name in ("tls.reply_template", "report.verdicts"):
            assert counts[f"{name}.hits"] > 0, name
            assert counts[f"{name}.misses"] > 0, name
    # Every hit and miss count in the process section is a memo's.
    for counts in (cold_counts, warm_counts):
        assert {
            name for name in counts if name.endswith((".hits", ".misses"))
        } == set(memo_counts())
