"""Unit tests for the chaos layer: plans, backoff, gates, relay, hooks.

Everything in ``repro.faults`` is a pure function of the plan seed and
site coordinates, so these tests pin exact deterministic behaviour —
same plan, same decisions, for any worker count or replay.
"""

import pytest

from repro.faults.chaos import _ChaosWorld
from repro.faults.plan import (
    CRASH_POINTS,
    Backoff,
    FaultPlan,
    FaultPlanError,
)
from repro.faults.recovery import CrashSchedule, FaultGate
from repro.faults.wire import server_fault_hook
from repro.httpmin.client import HttpClient
from repro.httpmin.codec import HttpRequest
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.measure.store import InjectedCrash
from repro.measure.tool import MeasurementTool, SessionOutcome
from repro.netsim.events import drive
from repro.netsim.loop import CooperativeLoop
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.x509.model import Name, SubjectPublicKeyInfo
from repro.x509.pem import pem_encode


class TestFaultPlan:
    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "reset=0.25, 429=0.1, crash-rotate=3, seed=7, retries=5, "
            "deadline=99, tear=0, segment-bytes=512, batch-rows=8"
        )
        assert plan.seed == 7
        assert plan.rates == {"reset": 0.25, "429": 0.1}
        assert plan.crash_every == {"rotate": 3}
        assert plan.retries == 5
        assert plan.deadline == 99
        assert plan.tear is False
        assert plan.segment_bytes == 512
        assert plan.batch_rows == 8

    def test_seed_argument_is_overridable_by_rule(self):
        assert FaultPlan.parse("reset=0.1", seed=9).seed == 9
        assert FaultPlan.parse("reset=0.1,seed=3", seed=9).seed == 3

    @pytest.mark.parametrize(
        "text",
        [
            "reset",  # not key=value
            "reset=1.5",  # rate out of range
            "reset=-0.1",
            "crash-nowhere=1",  # unknown crash point
            "crash-flush=0",  # cadence must be >= 1
            "frobnicate=0.5",  # unknown kind
            "reset=abc",  # unparsable number
        ],
    )
    def test_bad_rules_raise(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    def test_fires_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan.parse("reset=0.3", seed=11)
        decisions = [plan.fires("reset", "wire", "h", 80, i) for i in range(400)]
        again = [plan.fires("reset", "wire", "h", 80, i) for i in range(400)]
        assert decisions == again
        hits = sum(decisions)
        assert 0.15 < hits / 400 < 0.45  # roughly the configured rate
        assert not any(plan.fires("truncate", "wire", "h", 80, i) for i in range(50))

    def test_rate_zero_and_one_are_absolute(self):
        never = FaultPlan.parse("reset=0")
        always = FaultPlan.parse("reset=1")
        assert not any(never.fires("reset", i) for i in range(50))
        assert all(always.fires("reset", i) for i in range(50))

    def test_stall_ticks_zero_without_rate(self):
        assert FaultPlan.parse("reset=0.5").stall_ticks("ingest", 1) == 0
        stalls = [
            FaultPlan.parse("stall=1").stall_ticks("ingest", i) for i in range(20)
        ]
        assert all(1 <= s <= 8 for s in stalls)

    def test_describe_round_trips(self):
        plan = FaultPlan.parse("reset=0.05,crash-flush=2", seed=3)
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()


class TestBackoff:
    def test_delay_window_and_determinism(self):
        backoff = Backoff(seed=5, base=1, cap=64)
        for attempt in range(10):
            delay = backoff.delay(attempt, "leg", "site")
            assert 1 <= delay <= min(64, 1 << attempt)
            assert delay == backoff.delay(attempt, "leg", "site")

    def test_retry_after_is_a_floor(self):
        backoff = Backoff(seed=5)
        assert backoff.delay(0, "x", retry_after=9) >= 9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            Backoff(base=0)
        with pytest.raises(ValueError):
            Backoff(base=8, cap=4)


class TestCrashSchedule:
    def test_fires_every_nth_and_skips_once_after(self):
        plan = FaultPlan.parse("crash-flush=1")
        schedule = CrashSchedule(plan, MetricsRegistry())
        fired = []
        for _ in range(6):
            try:
                schedule("flush")
                fired.append(False)
            except InjectedCrash as exc:
                assert exc.point == "flush"
                fired.append(True)
        # Cadence 1 with skip-once alternates: recovery always gets one
        # clean occurrence to make progress through.
        assert fired == [True, False, True, False, True, False]
        assert schedule.fired["flush"] == 3

    def test_unscheduled_points_never_fire(self):
        schedule = CrashSchedule(FaultPlan.parse("crash-flush=2"))
        for _ in range(10):
            schedule("rotate")
            schedule("seal")

    def test_counts_metric_per_point(self):
        registry = MetricsRegistry()
        schedule = CrashSchedule(FaultPlan.parse("crash-seal=2"), registry)
        for _ in range(4):
            try:
                schedule("seal")
            except InjectedCrash:
                pass
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["faults.injected{kind=crash-seal}"] == schedule.fired["seal"]


class TestFaultGate:
    def test_drop_set_is_deterministic(self):
        registry = MetricsRegistry()
        gate = FaultGate(FaultPlan.parse("drop=0.2", seed=4), registry)
        verdicts = [gate.attempt(i) for i in range(100)]
        other = FaultGate(FaultPlan.parse("drop=0.2", seed=4))
        assert verdicts == [other.attempt(i) for i in range(100)]
        assert len(gate.dropped) == verdicts.count(False)
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["faults.dropped{kind=drop}"] == len(gate.dropped)

    def test_transient_exhaustion_becomes_a_drop(self):
        # rate 1.0 means every retry attempt refires: the budget runs
        # out and the op is dropped rather than retried forever.
        gate = FaultGate(FaultPlan.parse("reset=1,retries=3"))
        assert gate.attempt(0) is False
        assert 0 in gate.dropped
        assert gate.retries == 3


class TestServerFaultHook:
    def _request(self):
        return HttpRequest("POST", "/report", headers={}, body=b"x")

    def test_injects_before_handler_and_counts(self):
        registry = MetricsRegistry()
        hook = server_fault_hook(FaultPlan.parse("server-5xx=1"), registry)
        response = hook(self._request(), None)
        assert response.status == 500
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["faults.injected{kind=server-5xx}"] == 1

    def test_slow_and_429_carry_retry_after(self):
        slow = server_fault_hook(FaultPlan.parse("server-slow=1"))(
            self._request(), None
        )
        assert slow.status == 503
        assert 1 <= int(slow.headers["Retry-After"]) <= 4
        limited = server_fault_hook(FaultPlan.parse("429=1"))(self._request(), None)
        assert limited.status == 429
        assert limited.headers["Retry-After"] == "1"

    def test_quiet_plan_passes_through(self):
        hook = server_fault_hook(FaultPlan.parse("server-5xx=0"))
        assert hook(self._request(), None) is None


class TestCooperativeLoopIsolation:
    def test_task_exception_is_counted_not_fatal(self):
        loop = CooperativeLoop(max_active=4)
        progress = []

        def broken():
            yield
            raise RuntimeError("task blew up")

        def healthy():
            for i in range(3):
                progress.append(i)
                yield

        loop.spawn(broken)
        loop.spawn(healthy)
        loop.run()
        assert loop.task_failures == 1
        assert progress == [0, 1, 2]

    def test_on_task_error_callback_and_cleanup(self):
        seen = []
        loop = CooperativeLoop(
            max_active=4, on_task_error=lambda task, exc: seen.append(str(exc))
        )
        closed = []

        class Task:
            def __iter__(self):
                return self

            def __next__(self):
                raise ValueError("boom")

            def close(self):
                closed.append(True)

        loop.spawn(Task)
        loop.run()
        assert seen == ["boom"]
        assert closed == [True]
        assert loop.task_failures == 1


@pytest.fixture()
def report_world(keystore, intermediate_ca):
    """A reporting server plus a valid PEM report body."""
    key = keystore.key("faults-origin", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="origin.chaos"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["origin.chaos"],
    )
    chain = [leaf, intermediate_ca.certificate]
    body = "".join(pem_encode(c.encode()) for c in chain).encode()
    registry = MetricsRegistry()
    database = ReportDatabase()
    server = ReportingServer(database, None, study=1, registry=registry)
    server.expect("origin.chaos", leaf.fingerprint(), "Popular")
    network = Network()
    network.add_host("tlsresearch.byu.edu").listen(80, server.http.factory)
    client = network.add_host("client.chaos", ip="10.1.2.3")
    return server, database, client, body, registry


class TestToolSubmitRetries:
    HEADERS = {
        "X-Probed-Host": "origin.chaos",
        "Content-Type": "application/x-pem-file",
    }

    def test_rides_through_injected_5xx_and_429(self, report_world):
        server, database, client, body, registry = report_world
        server.fault_hook = server_fault_hook(
            FaultPlan.parse("server-5xx=0.5,429=0.3", seed=2), registry
        )
        tool = MeasurementTool(registry=registry, report_retry_limit=8)
        http = HttpClient(client)
        delivered = 0
        for _ in range(12):
            outcome = SessionOutcome()
            drive(
                tool._submit_report(
                    http, "origin.chaos", body, dict(self.HEADERS), outcome
                )
            )
            delivered += outcome.reports_delivered
            assert outcome.reports_delivered + outcome.report_failed == 1
        assert delivered == 12  # every injected error was retried through
        assert database.total_measurements == 12
        counters = registry.deterministic_snapshot()["counters"]
        assert counters.get("tool.report_retries{leg=report}", 0) > 0

    def test_retry_after_floors_the_backoff_delay(self, report_world):
        server, _database, client, body, _registry = report_world

        calls = []

        def always_503(request, remote):
            calls.append(1)
            from repro.httpmin.codec import HttpResponse

            return HttpResponse(503, headers={"Retry-After": "40"}, body=b"later")

        server.fault_hook = always_503
        tool = MeasurementTool(report_retry_limit=8, session_deadline_ticks=100)
        outcome = SessionOutcome()
        drive(
            tool._submit_report(
                HttpClient(client), "origin.chaos", body, dict(self.HEADERS), outcome
            )
        )
        # Every wait is >= the served Retry-After (40), so the 100-tick
        # deadline admits exactly two waits before the session gives up.
        assert outcome.report_failed == 1
        assert outcome.report_retries == 2
        assert outcome.deadline_exhausted == 1
        assert 80 <= outcome.backoff_ticks <= 100

    def test_permanent_4xx_fails_without_retry(self, report_world):
        _server, database, client, body, _registry = report_world
        tool = MeasurementTool(report_retry_limit=8)
        outcome = SessionOutcome()
        headers = dict(self.HEADERS, **{"X-Probed-Host": "unknown.example"})
        drive(tool._submit_report(HttpClient(client), "x", body, headers, outcome))
        assert outcome.report_failed == 1
        assert outcome.report_retries == 0
        assert database.total_measurements == 0


class TestWireDrillsViaChaosWorld:
    """End-to-end relay drills using the chaos world builder."""

    def test_recoverable_kinds_preserve_the_signature(self, tmp_path):
        world = _ChaosWorld(3)
        registry = MetricsRegistry()
        world.run_ingest(tmp_path / "ref", registry, None, 24)
        from repro.measure.store import scan_store

        reference = scan_store(tmp_path / "ref").aggregate_signature()
        for rules in ("connect-refused=0.4", "reset=0.4", "server-slow=0.4"):
            plan = FaultPlan.parse(rules, seed=3)
            drill = MetricsRegistry()
            name = rules.split("=")[0]
            stats = world.run_ingest(tmp_path / name, drill, plan, 24)
            assert stats["submitted"] == stats["delivered"] + stats["failed"]
            assert stats["failed"] == 0
            counters = drill.deterministic_snapshot()["counters"]
            assert counters[f"faults.injected{{kind={name}}}"] > 0
            assert scan_store(tmp_path / name).aggregate_signature() == reference

    def test_corrupt_losses_are_exactly_accounted(self, tmp_path):
        world = _ChaosWorld(3)
        registry = MetricsRegistry()
        plan = FaultPlan.parse("corrupt=0.5", seed=3)
        stats = world.run_ingest(tmp_path / "corrupt", registry, plan, 24)
        assert stats["submitted"] == 24
        assert stats["submitted"] == stats["delivered"] + stats["failed"]
        assert stats["failed"] > 0  # the drill actually bit
