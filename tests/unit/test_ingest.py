"""Unit tests for report ingest: reports submitted as measurement-tool
tasks on the wire scheduler, against one collector and its store."""

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.wire import server_fault_hook
from repro.measure.server import ReportingServer
from repro.measure.store import ReportStore, scan_store
from repro.measure.tool import MeasurementTool
from repro.netsim.loop import WireScheduler
from repro.netsim.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.x509.pem import pem_encode


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


def submit_reports(tmp_path, origin_chain, clients, plan=None):
    """Submit one report per client, 8 in flight; returns the outcomes."""
    registry = MetricsRegistry()
    store = ReportStore(tmp_path / "store", registry, batch_rows=16)
    server = ReportingServer(store, None, study=1, registry=registry)
    if plan is not None:
        server.fault_hook = server_fault_hook(plan, registry)
    server.expect("collector.test", origin_chain[0].fingerprint(), "Authors'")
    network = Network()
    network.add_host("collector.test").listen(80, server.http.factory)
    body = "".join(pem_encode(c.encode()) for c in origin_chain).encode()
    tool = MeasurementTool("collector.test", registry=registry, fault_plan=plan)
    scheduler = WireScheduler(network, max_active=8)
    outcomes = []

    def submit(client):
        def task():
            outcome = yield from tool.report_task(client, "collector.test", body)
            outcomes.append(outcome)

        return task

    for i in range(clients):
        client = network.add_host(f"client-{i}.test", ip=f"10.9.0.{i}")
        scheduler.spawn(submit(client))
    scheduler.run()
    store.close()
    return outcomes, scheduler, registry


class TestIngestLoop:
    """Many clients' report tasks on one scheduler, one collector."""

    def test_delivers_concurrently(self, tmp_path, origin_chain):
        outcomes, scheduler, _registry = submit_reports(tmp_path, origin_chain, 40)
        assert sum(o.reports_delivered for o in outcomes) == 40
        assert sum(o.report_failed for o in outcomes) == 0
        assert scheduler.peak_active > 1
        aggregator = scan_store(tmp_path / "store")
        assert aggregator.total_measurements == 40
        assert aggregator.mismatch_count == 0

    def test_submission_exhausts_retries(self, tmp_path, origin_chain):
        plan = FaultPlan.parse("429=1,retries=2")
        (outcome,), _scheduler, registry = submit_reports(
            tmp_path, origin_chain, 1, plan
        )
        assert outcome.report_failed == 1
        assert outcome.report_retries == 2
        counters = registry.deterministic_snapshot()["counters"]
        assert counters["faults.injected{kind=429}"] == 3
        assert counters["tool.report_retries{leg=report}"] == 2
        assert scan_store(tmp_path / "store").total_measurements == 0

    def test_server_requires_a_sink(self):
        with pytest.raises(ValueError):
            ReportingServer(None, None, study=1)
