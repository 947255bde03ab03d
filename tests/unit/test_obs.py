"""Unit tests for the telemetry layer (`repro.obs`).

The registry's contract has three parts the rest of the suite leans
on: the deterministic/process/timing sections never bleed into each
other, snapshots merge exactly like the report database (fixed-order
counter addition), and the JSON exporter round-trips losslessly.
"""

import json

import pytest

from repro.httpmin import HttpRequest, HttpServer
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.netsim import Network
from repro.obs.events import HandshakeEventLog
from repro.obs.export import read_json, to_json, to_prometheus, write_json
from repro.obs.metrics import Histogram, MetricsRegistry, metric_key


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("proxy.decisions", {}) == "proxy.decisions"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": 2, "a": 1})
        assert key == "x{a=1,b=2}"
        assert key == metric_key("x", {"a": 1, "b": 2})


class TestCountersAndGauges:
    def test_counter_handle_and_inc_agree(self):
        registry = MetricsRegistry()
        handle = registry.counter("events", kind="a")
        handle.inc()
        registry.inc("events", kind="a")
        registry.inc("events", n=3, kind="a")
        assert handle.value == 5
        snap = registry.snapshot()
        assert snap["deterministic"]["counters"] == {"events{kind=a}": 5}

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("vault.entries", seed="7")
        gauge.set(3)
        gauge.set(11)
        assert gauge.value == 11
        assert registry.snapshot()["deterministic"]["gauges"] == {
            "vault.entries{seed=7}": 11
        }

    def test_process_counters_stay_out_of_deterministic_section(self):
        registry = MetricsRegistry()
        registry.process_counter("keystore.generated").inc()
        snap = registry.snapshot()
        assert snap["deterministic"]["counters"] == {}
        assert snap["process"]["counters"] == {"keystore.generated": 1}


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        hist = Histogram((10, 100))
        for value in (1, 10, 11, 100, 101):
            hist.observe(value)
        assert hist.bucket_counts == [2, 2]
        assert hist.inf_count == 1
        assert hist.count == 5
        assert hist.total == 223

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((10, 10))
        with pytest.raises(ValueError):
            Histogram((100, 10))

    def test_dict_round_trip(self):
        hist = Histogram((5, 50))
        for value in (1, 7, 70):
            hist.observe(value)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()

    def test_merge_adds_and_rejects_mismatched_bounds(self):
        left = Histogram((5, 50))
        right = Histogram((5, 50))
        left.observe(1)
        right.observe(100)
        left.merge(right)
        assert left.count == 2
        assert left.inf_count == 1
        with pytest.raises(ValueError):
            left.merge(Histogram((1, 2)))

    def test_registry_rejects_redeclared_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("sizes", (1, 2))
        registry.histogram("sizes", (1, 2)).observe(1)
        with pytest.raises(ValueError):
            registry.histogram("sizes", (1, 2, 3))


class TestSpans:
    def test_nested_paths(self):
        registry = MetricsRegistry()
        with registry.span("study.run"):
            with registry.span("study.plan"):
                pass
            with registry.span("study.merge"):
                pass
        spans = registry.timing_profile()
        assert set(spans) == {
            "study.run",
            "study.run/study.plan",
            "study.run/study.merge",
        }
        assert spans["study.run"]["count"] == 1
        assert spans["study.run"]["total_s"] >= (
            spans["study.run/study.plan"]["total_s"]
        )

    def test_attrs_do_not_change_the_path(self):
        registry = MetricsRegistry()
        with registry.span("study.shard", country="br"):
            pass
        with registry.span("study.shard", country="us"):
            pass
        assert registry.timing_profile()["study.shard"]["count"] == 2


class TestSnapshotMerge:
    def test_counters_add_and_histograms_merge(self):
        shard = MetricsRegistry()
        shard.inc("study.sessions", n=10, mode="fast")
        shard.histogram("study.shard_sessions", (100, 1000)).observe(10)
        parent = MetricsRegistry()
        parent.inc("study.sessions", n=5, mode="fast")
        parent.merge_snapshot(shard.snapshot())
        parent.merge_snapshot(shard.snapshot())
        det = parent.snapshot()["deterministic"]
        assert det["counters"]["study.sessions{mode=fast}"] == 25
        assert det["histograms"]["study.shard_sessions"]["count"] == 2

    def test_sections_filter(self):
        child = MetricsRegistry()
        child.inc("deterministic.thing")
        child.process_counter("process.thing").inc()
        with child.span("phase"):
            pass
        parent = MetricsRegistry()
        parent.merge_snapshot(child.snapshot(), sections=("process", "timing"))
        snap = parent.snapshot()
        assert snap["deterministic"]["counters"] == {}
        assert snap["process"]["counters"] == {"process.thing": 1}
        assert "phase" in snap["timing"]["spans"]

    def test_merge_order_invariance_for_counters(self):
        shards = []
        for n in (1, 2, 3):
            shard = MetricsRegistry()
            shard.inc("c", n=n)
            shards.append(shard.snapshot())
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snap in shards:
            forward.merge_snapshot(snap)
        for snap in reversed(shards):
            backward.merge_snapshot(snap)
        assert (
            forward.deterministic_snapshot() == backward.deterministic_snapshot()
        )


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("events", n=4, kind="a")
    registry.gauge("level").set(2)
    hist = registry.histogram("sizes", (10, 100), kind="a")
    for value in (5, 50, 500):
        hist.observe(value)
    registry.process_counter("local").inc()
    with registry.span("outer"):
        with registry.span("inner"):
            pass
    return registry


class TestExporters:
    def test_json_round_trip_is_lossless(self):
        registry = _populated_registry()
        rebuilt = MetricsRegistry.from_snapshot(json.loads(to_json(registry)))
        assert rebuilt.snapshot() == registry.snapshot()

    def test_write_and_read_json(self, tmp_path):
        registry = _populated_registry()
        path = tmp_path / "metrics.json"
        write_json(registry, path)
        assert read_json(path).snapshot() == registry.snapshot()
        # The file itself is canonical: byte-comparable across runs.
        write_json(registry.snapshot(), tmp_path / "twin.json")
        assert path.read_bytes() == (tmp_path / "twin.json").read_bytes()

    def test_prometheus_rendering(self):
        text = to_prometheus(_populated_registry())
        assert 'repro_events{kind="a",section="deterministic"} 4' in text
        assert 'repro_local{section="process"} 1' in text
        # Histogram buckets are cumulative, with the +Inf catch-all.
        assert 'repro_sizes_bucket{kind="a",le="10"} 1' in text
        assert 'repro_sizes_bucket{kind="a",le="100"} 2' in text
        assert 'repro_sizes_bucket{kind="a",le="+Inf"} 3' in text
        assert 'repro_sizes_count{kind="a"} 3' in text
        assert 'repro_span_count{span="outer/inner"} 1' in text


class TestHandshakeEventLog:
    def test_records_and_connection_ids(self):
        log = HandshakeEventLog()
        first, second = log.connection(), log.connection()
        assert (first, second) == (0, 1)
        log.record(first, "client-hello", ja3="abc")
        log.record(second, "blocked")
        log.record(first, "server-hello")
        assert [e.event for e in log.for_connection(first)] == [
            "client-hello",
            "server-hello",
        ]
        dumped = log.to_dicts()
        assert dumped[0] == {
            "connection": 0,
            "seq": 0,
            "event": "client-hello",
            "detail": {"ja3": "abc"},
        }
        assert [d["seq"] for d in dumped] == [0, 1, 2]

    def test_limit_drops_but_still_counts(self):
        registry = MetricsRegistry()
        log = HandshakeEventLog(limit=2, registry=registry)
        conn = log.connection()
        for _ in range(5):
            log.record(conn, "relay")
        assert len(log) == 2
        assert log.dropped == 3
        counters = registry.snapshot()["deterministic"]["counters"]
        assert counters["handshake.events{event=relay}"] == 5
        assert counters["handshake.events_dropped"] == 3


class TestAbandonedReports:
    def _truncated_post(self, path: str, server: HttpServer) -> None:
        net = Network()
        client = net.add_host("client.example")
        net.add_host("www.example").listen(80, server.factory)
        sock = client.connect("www.example", 80)
        encoded = HttpRequest("POST", path, body=b"x" * 64).encode()
        sock.send(encoded[:-10])  # dies mid-body
        sock.close()

    def test_http_server_fires_abandoned_hook(self):
        server = HttpServer()
        seen = []
        server.on_abandoned = seen.append
        self._truncated_post("/report", server)
        assert server.requests_abandoned == 1
        assert len(seen) == 1
        assert seen[0].startswith(b"POST /report")

    def test_truncated_report_counts_as_report_failure(self):
        database = ReportDatabase()
        reporting = ReportingServer(database, None, study=1)
        self._truncated_post("/report", reporting.http)
        assert database.failures.report_failed == 1
        counters = reporting.metrics.snapshot()["deterministic"]["counters"]
        assert counters["reports.rejected{reason=truncated}"] == 1

    def test_truncated_ad_fetch_is_not_a_report_failure(self):
        database = ReportDatabase()
        reporting = ReportingServer(database, None, study=1)
        self._truncated_post("/ad", reporting.http)
        assert database.failures.report_failed == 0
        assert reporting.http.requests_abandoned == 1


class TestRenderMetricsTable:
    def test_sections_render(self):
        from repro.reporting import render_metrics_table

        text = render_metrics_table(_populated_registry().snapshot())
        assert "== Phase profile (wall clock) ==" in text
        assert "== Deterministic counters ==" in text
        assert "== Process-local counters (scheduling-dependent) ==" in text
        # Nested spans indent under their parent.
        assert "\n  inner" in text or "  inner " in text

    def test_counter_cap(self):
        from repro.reporting import render_metrics_table

        registry = MetricsRegistry()
        for index in range(40):
            registry.inc("series", idx=index)
        text = render_metrics_table(registry.snapshot(), max_counter_rows=30)
        assert "... (10 more series)" in text

    def test_empty_snapshot(self):
        from repro.reporting import render_metrics_table

        assert render_metrics_table(MetricsRegistry().snapshot()) == (
            "(no metrics recorded)"
        )
