"""Unit tests for the cooperative loop and the multi-connection ingest
front end (reporting server + store back-pressure included)."""

import pytest

from repro.data.sites import ProbeSite
from repro.httpmin.client import HttpClient
from repro.measure.ingest import IngestLoop, ReportSubmission
from repro.measure.server import ReportingServer
from repro.measure.store import ReportStore, scan_store
from repro.netsim.loop import CooperativeLoop
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.x509.pem import pem_encode


class TestCooperativeLoop:
    def test_round_robin_interleaves(self):
        trace = []

        def task(name, steps):
            for step in range(steps):
                trace.append((name, step))
                yield

        loop = CooperativeLoop(max_active=4)
        loop.spawn(lambda: task("a", 2))
        loop.spawn(lambda: task("b", 2))
        loop.run()
        assert trace == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert loop.completed == 2
        assert loop.idle

    def test_admission_cap_bounds_active(self):
        active_seen = []

        def task():
            yield
            yield

        loop = CooperativeLoop(max_active=3)
        for _ in range(10):
            loop.spawn(task)
        loop.run(on_tick=lambda lp: active_seen.append(len(lp._active)))
        assert loop.completed == 10
        assert loop.peak_active == 3
        assert max(active_seen) <= 3

    def test_max_ticks_stops_early(self):
        def forever():
            while True:
                yield

        loop = CooperativeLoop()
        loop.spawn(forever)
        assert loop.run(max_ticks=5) == 5
        assert not loop.idle

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            CooperativeLoop(max_active=0)


@pytest.fixture(scope="module")
def origin_chain(intermediate_ca, keystore):
    from repro.x509 import Name
    from repro.x509.model import SubjectPublicKeyInfo

    key = keystore.key("ingest-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="collector.test", organization="BYU"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["collector.test"],
    )
    return [leaf, intermediate_ca.certificate]


def build_world(tmp_path, origin_chain, *, max_pending=None, auto_flush=True,
                flush_every=8, max_connections=8):
    registry = MetricsRegistry()
    store = ReportStore(
        tmp_path / "store",
        registry,
        batch_rows=16,
        max_pending=max_pending,
        auto_flush=auto_flush,
    )
    server = ReportingServer(store, None, study=1, registry=registry)
    body = "".join(pem_encode(c.encode()) for c in origin_chain).encode()
    server.expect("collector.test", origin_chain[0].fingerprint(), "Authors'")
    network = Network()
    network.add_host("collector.test").listen(80, server.http.factory)
    loop = IngestLoop(
        "collector.test",
        store=store,
        registry=registry,
        max_connections=max_connections,
        flush_every=flush_every,
    )
    return network, registry, store, server, loop, body


class TestIngestLoop:
    def test_delivers_concurrently(self, tmp_path, origin_chain):
        network, registry, store, _server, loop, body = build_world(
            tmp_path, origin_chain
        )
        for i in range(40):
            client = network.add_host(f"client-{i}.test", ip=f"10.9.0.{i}")
            loop.submit(
                ReportSubmission(client=client, hostname="collector.test", body=body)
            )
        stats = loop.run()
        store.close()
        assert stats["delivered"] == 40
        assert stats["failed"] == 0
        assert stats["peak_active"] > 1
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["ingest.delivered"] == 40
        aggregator = scan_store(tmp_path / "store")
        assert aggregator.total_measurements == 40
        assert aggregator.mismatch_count == 0

    def test_backpressure_defers_then_recovers(self, tmp_path, origin_chain):
        network, registry, store, _server, loop, body = build_world(
            tmp_path, origin_chain, max_pending=4, auto_flush=False, flush_every=64
        )
        for i in range(30):
            client = network.add_host(f"client-{i}.test", ip=f"10.8.0.{i}")
            loop.submit(
                ReportSubmission(client=client, hostname="collector.test", body=body)
            )
        stats = loop.run()
        store.close()
        assert stats["delivered"] == 30
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["store.backpressure_events"] > 0
        assert counters["ingest.deferred"] == counters["store.backpressure_events"]
        assert scan_store(tmp_path / "store").total_measurements == 30

    def test_server_answers_429_when_overloaded(self, tmp_path, origin_chain):
        registry = MetricsRegistry()
        store = ReportStore(
            tmp_path / "store", registry, max_pending=1, auto_flush=False
        )
        server = ReportingServer(store, None, study=1, registry=registry)
        server.expect("collector.test", origin_chain[0].fingerprint(), "Authors'")
        network = Network()
        network.add_host("collector.test").listen(80, server.http.factory)
        client = network.add_host("client.test", ip="10.7.0.1")
        body = "".join(pem_encode(c.encode()) for c in origin_chain).encode()
        http = HttpClient(client)
        first = http.request(
            "POST", "collector.test", "/report", body=body,
            headers={"X-Probed-Host": "collector.test"},
        )
        assert first.ok
        second = http.request(
            "POST", "collector.test", "/report", body=body,
            headers={"X-Probed-Host": "collector.test"},
        )
        assert second.status == 429
        assert second.headers["retry-after"] == "1"
        store.flush()
        third = http.request(
            "POST", "collector.test", "/report", body=body,
            headers={"X-Probed-Host": "collector.test"},
        )
        assert third.ok
        store.close()
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["store.backpressure_events"] == 1

    def test_submission_exhausts_retries(self, tmp_path, origin_chain):
        network, registry, store, _server, loop, body = build_world(
            tmp_path, origin_chain, max_pending=1, auto_flush=False, flush_every=None
        )
        loop.store = None  # nobody drains the backlog → retries exhaust
        store.add_matched_bulk("US", "Popular", "h", 1)  # pre-fill to the cap
        loop.max_retries = 2
        client = network.add_host("client.test", ip="10.6.0.1")
        loop.submit(
            ReportSubmission(client=client, hostname="collector.test", body=body)
        )
        stats = loop.run()
        assert stats["failed"] == 1
        assert loop.failed[0].retries == 3
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["ingest.failed"] == 1
        store.close()

    def test_server_requires_a_sink(self):
        with pytest.raises(ValueError):
            ReportingServer(None, None, study=1)
