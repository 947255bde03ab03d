"""The wire leg of a study: every measurement crosses netsim.

Only a wire-mode :class:`~repro.study.runner.StudyRunner` imports this
module, during construction, so a fast study never loads the TLS
probe and server, the proxy engine, HTTP, the policy servers or the
simulated network.
"""

from __future__ import annotations

import random
from functools import partial
from typing import TYPE_CHECKING

from repro.data import sites as site_data
from repro.data.sites import ProbeSite
from repro.faults.wire import FaultRelay, server_fault_hook
from repro.measure.server import CombinedPolicyHttpServer, ReportingServer
from repro.measure.tool import MeasurementTool
from repro.netsim.loop import WireScheduler
from repro.netsim.network import Network, PathHop
from repro.policy.model import PolicyFile
from repro.policy.server import PolicyServer
from repro.population.model import ClientProfile
from repro.proxy.engine import TlsProxyEngine
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.util import stable_hash

if TYPE_CHECKING:
    from repro.study.runner import StudyResult, StudyRunner
    from repro.x509.store import RootStore


def run_wire(runner: StudyRunner, result: StudyResult) -> None:
    """Wire mode: plan all sessions, then run them on the scheduler.

    Planning and execution are strictly separated so concurrency
    cannot touch the sampling streams: every draw from the session
    rng (client sampling, per-site completion) happens in one
    serial pass, which appends each session to its client host's
    chain.  Each chain is one :class:`WireScheduler` task that runs
    its client's sessions in order, so every interception engine
    sees its connections in plan order and per-engine handshake
    event logs are the same at any admission cap
    (``wire_concurrency``).  So are the report multiset, the
    deterministic metrics and ``aggregate_signature()``; only
    wall-clock and loop ticks change.
    """
    config = runner.config
    obs = runner.obs
    population = result.population
    network = Network()
    with obs.span("study.wire_setup"):
        server = _build_wire_network(runner, network, result)
    rng = random.Random(stable_hash(config.seed, "wire-sessions"))
    plan = config.fault_plan()
    fault_hop = None
    # One store for every client's engine: no engine changes its
    # roots, so a chain verdict reached for one client serves all.
    upstream_trust = runner.pki.root_store()
    tool = MeasurementTool(registry=obs, fault_plan=plan)
    if plan is not None:
        if plan.has_wire_faults():
            # One shared on-path hop: every client's route to the
            # reporting server crosses the fault relay.
            relay = FaultRelay(plan, obs, hostname=site_data.AUTHORS_SITE, port=80)
            fault_hop = PathHop("chaos-relay")
            fault_hop.add_interceptor(relay)
        if plan.has_server_faults():
            server.fault_hook = server_fault_hook(plan, obs)
    client_hosts: dict[tuple[str, int], object] = {}
    client_host = partial(
        _client_host, runner, network, client_hosts, fault_hop, upstream_trust
    )

    n_sessions = runner.total_sessions()
    c_sessions = obs.counter("study.sessions", mode="wire")
    site_odds = list(zip(runner.sites, runner._site_probs.tolist()))
    failures = result.database.failures

    def chain(client, work):
        for product_key, chosen, ordinal in work:
            outcome = yield from tool.session_task(
                client,
                chosen,
                product_key=product_key,
                session_ordinal=ordinal,
            )
            failures.policy_denied += outcome.policy_denied
            failures.connect_failed += outcome.connect_failed
            failures.probe_failed += outcome.probe_failed
            failures.report_failed += outcome.report_failed
            result.sessions_run += 1
            c_sessions.inc()

    with obs.span("study.wire_sessions"):
        # Planning pass: every rng draw, in the historical order.
        chains: dict[object, list[tuple[str | None, list[ProbeSite], int]]] = {}
        for ordinal in range(n_sessions):
            failures.sessions_started += 1
            profile = population.sample_client(rng)
            client = client_host(profile)
            chosen = [site for site, odds in site_odds if rng.random() < odds]
            if chosen:
                chains.setdefault(client, []).append(
                    (profile.product_key, chosen, ordinal)
                )
        scheduler = WireScheduler(
            network, max_active=config.wire_concurrency, shuffle=runner._wire_shuffle
        )
        for client, work in chains.items():
            scheduler.spawn(partial(chain, client, work), label=client.hostname)
        scheduler.run()
    # Task failures are deterministic (a session crash is a bug,
    # not a scheduling artefact), so the counter lives in the
    # deterministic section.  Loop ticks, queue depth and chains
    # in flight depend on the admission cap by definition, so they
    # land in the process section.
    obs.counter("loop.task_failures").inc(scheduler.task_failures)
    obs.process_counter("loop.ticks").inc(scheduler.ticks)
    obs.process_counter("loop.completed").inc(scheduler.completed)
    obs.process_gauge("wire.chains_peak_active").set(scheduler.peak_active)
    obs.process_gauge("wire.queue_depth_peak").set(network.queue.max_depth)
    obs.process_counter("wire.queue_delivered").inc(network.queue.delivered)
    obs.process_counter("wire.queue_dropped").inc(network.queue.dropped)
    result.notes["reporting_server"] = server
    result.notes["wire_concurrency"] = config.wire_concurrency
    result.notes["wire_client_hosts"] = client_hosts


def _build_wire_network(runner: StudyRunner, network: Network, result: StudyResult):
    """Sites, policy servers and the reporting stack."""
    pki = runner.pki
    server = ReportingServer(
        result.database,
        result.population.build_geoip(),
        study=runner.config.study,
        campaign=runner.campaign_for("??"),
        public_roots=pki.root_store(),
        registry=runner.obs,
    )
    permissive = PolicyFile.permissive("443")
    for site in runner.sites:
        host = network.add_host(site.hostname, ip=runner.site_ips[site.hostname])
        tls = TlsCertServer(pki.chain_for(site.hostname))
        host.listen(443, tls.factory)
        if site.hostname == site_data.AUTHORS_SITE:
            combined = CombinedPolicyHttpServer(permissive, server.http)
            host.listen(80, combined.factory)
        else:
            policy = PolicyServer(permissive)
            host.listen(843, policy.factory)
    # Authoritative leaves, captured from a clean vantage point.
    vantage = network.add_host("vantage.measurement.example")
    probe = ProbeClient(vantage, registry=runner.obs)
    for site in runner.sites:
        sample = probe.probe(site.hostname, 443)
        if not sample.ok:
            raise RuntimeError(f"vantage probe failed for {site.hostname}")
        server.expect(site.hostname, sample.leaf.fingerprint(), site.host_type)
    return server


def _client_host(
    runner: StudyRunner,
    network: Network,
    cache: dict,
    fault_hop: PathHop | None,
    upstream_trust: RootStore,
    profile: ClientProfile,
):
    key = (profile.country, profile.client_index)
    host = cache.get(key)
    if host is not None:
        return host
    hostname = f"client-{profile.country}-{profile.client_index}.example"
    host = network.add_host(hostname, ip=profile.ip)
    if fault_hop is not None:
        host.access_path.append(fault_hop)
    if profile.product_key is not None:
        spec = runner._catalog[profile.product_key]
        engine = TlsProxyEngine(
            spec.profile,
            runner.forger,
            upstream_host=host,
            upstream_trust=upstream_trust,
            client_bucket=profile.client_bucket,
            rng=random.Random(
                stable_hash(runner.config.seed, "engine", profile.country, profile.client_index)
            ),
            registry=runner.obs,
        )
        host.add_interceptor(engine)
    cache[key] = host
    return host
