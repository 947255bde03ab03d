"""Wiring that runs one product through the adversarial battery.

For every (product, scenario) pair the harness stands up a fresh
netsim world: the audited origin, a victim whose connections the
product intercepts, and a gateway the product originates its upstream
leg from.  Two probes run per scenario — a warm-up against the genuine
origin, then the attacked one — so products that cache validation
verdicts expose their time-of-check/time-of-use hole on exactly the
same flow every non-caching product handles correctly.

The expensive state (RSA keys, the audit PKI, each product's signing
CA) lives in one :class:`AuditHarness` and is shared across the whole
catalog, which is what makes ``audit_catalog`` cheap enough to run as
a benchmark: scenario chains are minted once per seed and reused for
every product.  Because every byte is derived from the seed, each
worker process of a pooled run builds its own identical harness once
and audits its share of the catalog.
"""

from __future__ import annotations

import random
from functools import partial

from repro.audit.scenarios import (
    AUDIT_HOSTNAME,
    AuditPki,
    AuditScenario,
    BASELINE_KEY,
    OriginSetup,
    SCENARIOS,
)
from repro.audit.scorecard import (
    AuditReport,
    ClientLegObservation,
    MimicryEntry,
    MimicryProbe,
    MimicrySurvey,
    ModernLegObservation,
    OUTCOME_BLOCK,
    OUTCOME_ERROR,
    OUTCOME_INTERCEPT,
    OUTCOME_MASK,
    OUTCOME_PASS,
    ProductScorecard,
    ScenarioObservation,
    ServerLegObservation,
    build_scorecard,
)
from repro.crypto.hashes import hash_by_signature_oid
from repro.crypto.keystore import KeyStore
from repro.crypto.vault import open_vault
from repro.data.products import catalog, catalog_by_key
from repro.netsim.network import Host, Network
from repro.obs.events import HandshakeEventLog
from repro.obs.metrics import (
    SECTION_PROCESS,
    SECTION_TIMING,
    MetricsRegistry,
)
from repro.pool import ordered_map
from repro.tls import codec
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ProxyProfile
from repro.tls.fingerprint import (
    DEFAULT_BROWSER,
    browser_profile,
    fingerprint_client_hello,
    fingerprint_divergence,
    fingerprint_server_hello,
    server_fingerprint_divergence,
)
from repro.tls.probe import ProbeClient, ProbeResult
from repro.tls.server import TlsCertServer
from repro.util import stable_hash

#: The client bucket every rig's engine serves (the probes stand in for
#: one install), so the one signing CA per product the battery reads.
RIG_CLIENT_BUCKET = 0


class AuditHarness:
    """Shared state for auditing many products under one seed."""

    def __init__(
        self,
        seed: int = 42,
        keystore: KeyStore | None = None,
        pki_key_bits: int = 1024,
        vault: str | None = None,
        browser: str = DEFAULT_BROWSER,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.seed = seed
        self.browser = browser_profile(browser)
        self.obs = registry if registry is not None else MetricsRegistry()
        # One pooled handshake history across every rig this harness
        # builds — ``harness.events.to_dicts()`` is the per-connection
        # record the audit CLI dumps alongside the scorecards.
        self.events = HandshakeEventLog(limit=4096, registry=self.obs)
        self.keystore = keystore or KeyStore(
            seed=seed, vault=vault, registry=self.obs
        )
        self.pki = AuditPki(self.keystore, seed=seed, key_bits=pki_key_bits)
        self.forger = SubstituteCertForger(self.keystore, seed=seed)
        # Scenario chains are deterministic per seed; mint them once.
        self._setups: dict[str, OriginSetup] = {
            scenario.key: scenario.build(self.pki, AUDIT_HOSTNAME)
            for scenario in SCENARIOS
        }
        self._baseline = self._setups[BASELINE_KEY]

    # -- single product ---------------------------------------------------

    def warm_product(self, profile: ProxyProfile) -> None:
        """Pre-generate the signing CA the battery reads for ``profile``.

        Every rig's engine serves one client bucket, so of an aggregate
        profile's issuer variants the battery only signs with that
        bucket's.  Warming exactly that CA into a key vault lets pooled
        workers load it from disk instead of generating it mid-battery,
        and generates no key the battery never reads.  Issuer-copying
        profiles mint CAs keyed on upstream issuers and are not warmed.
        """
        if not profile.copies_upstream_issuer:
            self.forger.authority_for(
                profile, profile.issuer_for_bucket(RIG_CLIENT_BUCKET)
            )

    def audit_product(self, profile: ProxyProfile) -> ProductScorecard:
        """Run ``profile`` through the full battery and grade it.

        The grade covers all three observable surfaces: the
        adversarial upstream scenarios, the client-leg
        mimicry/substitute checks, and the server-leg substitute
        ServerHello checks.
        """
        with self.obs.span("audit.product", product=profile.key):
            observations = [
                self.run_scenario(profile, scenario) for scenario in SCENARIOS
            ]
            probe = self.run_mimicry(profile)
        return build_scorecard(
            profile.key,
            profile.category.value,
            observations,
            client_leg=probe.client_leg,
            server_leg=probe.server_leg,
        )

    def run_mimicry(self, profile: ProxyProfile) -> MimicryProbe:
        """Probe ``profile`` with a browser hello against a genuine origin.

        One probe observes both legs.  Client leg: the fingerprint of
        the upstream ClientHello the proxy actually sent vs the
        probing browser's, plus the substitute certificate (key size,
        signature hash) — the de Carné de Carnavalet & van Oorschot /
        Waked et al. methodology.  Server leg: the substitute
        ServerHello served back (chosen cipher, extension set, echoed
        version, compression, session-id policy) vs the browser
        profile's *expected* genuine-origin answer — the JA3S-style
        dual.
        """
        network, origin, victim, engine = self._make_rig(profile, "mimicry")
        probe = ProbeClient(
            victim, rng=self._probe_rng(profile, "mimicry"), browser=self.browser
        )
        with self.obs.span("audit.mimicry"):
            result = probe.probe(AUDIT_HOSTNAME, 443)
            # Capture the upstream hello *before* any resume probe can
            # overwrite it, then collect the TLS 1.3-era facets (which
            # may run a second probe on the same rig).  2014 browsers
            # skip this entirely — their batteries stay byte-identical.
            upstream_hello = engine.last_upstream_hello
            modern = (
                self._observe_modern_leg(profile, victim, result.server_hello)
                if self.browser.offers_tls13
                else None
            )
        expected = self.browser.fingerprint()
        # A hello the product sent upstream is graded even when the
        # probe then failed, as the server leg grades a captured hello.
        observed = (
            fingerprint_client_hello(upstream_hello)
            if upstream_hello is not None
            else None
        )
        leaf = substitute_hash = None
        if not result.ok or upstream_hello is None:
            error = result.error or "no upstream hello observed"
        elif result.leaf is None or result.server_hello is None:
            error = "substitute flight missing ServerHello or Certificate"
        else:
            leaf, error = result.leaf, ""
            try:
                substitute_hash = hash_by_signature_oid(leaf.signature_oid).name
            except KeyError:
                pass
        client_leg = ClientLegObservation(
            browser=self.browser.key,
            expected_ja3=expected.digest(),
            observed_ja3=observed.digest() if observed else None,
            divergent_fields=(
                fingerprint_divergence(expected, observed) if observed else ()
            ),
            substitute_key_bits=leaf.public_key_bits if leaf else None,
            substitute_hash=substitute_hash,
            offered_version=self.browser.version,
            echoed_version=result.server_hello.version if leaf else None,
            error=error,
        )
        return MimicryProbe(
            client_leg=client_leg,
            server_leg=self._observe_server_leg(result.server_hello, error, modern),
        )

    def _observe_modern_leg(
        self, profile: ProxyProfile, victim: Host, served
    ) -> ModernLegObservation:
        """Collect the TLS 1.3-era facets of ``served`` on one rig.

        ``served`` is the substitute ServerHello the first probe
        captured (or None).  When it carried a session id, a *second*
        probe on the same rig presents that id back — the
        resumption-honouring check needs the product's answer to its
        own ticket, which no single handshake can reveal.  The resume
        probe draws from its own deterministic rng stream, so the
        first probe's bytes (and every 2014-era battery) are
        untouched.
        """
        browser = self.browser
        offered_max = browser.client_hello(
            bytes(32), AUDIT_HOSTNAME
        ).max_offered_version
        first_sid = served.session_id if served else b""
        honoured: bool | None = False if served else None
        resume_error = "" if served else "no ServerHello captured"
        if first_sid:
            resume = ProbeClient(
                victim,
                rng=self._probe_rng(profile, "mimicry-resume"),
                browser=browser,
            )
            with self.obs.span("audit.resume"):
                second = resume.probe(AUDIT_HOSTNAME, 443, session_id=first_sid)
            if second.server_hello is None:
                honoured = None
                resume_error = (
                    second.error or "resume probe captured no ServerHello"
                )
            else:
                honoured = second.server_hello.session_id == first_sid
        return ModernLegObservation(
            expected_alpn=browser.expected_alpn,
            served_alpn=served.alpn_protocol if served else None,
            offered_max_version=offered_max,
            negotiated_version=served.selected_version if served else None,
            downgrade_sentinel=(
                bool(served) and codec.has_downgrade_sentinel(served.server_random)
            ),
            session_id_issued=bool(first_sid),
            resumption_honoured=honoured,
            resumption_error=resume_error,
        )

    def _observe_server_leg(
        self, served, error: str = "", modern: ModernLegObservation | None = None
    ) -> ServerLegObservation:
        """Grade-ready view of the substitute ServerHello ``served``.

        ``served`` is the wire-parsed hello the probe received — the
        client's ground truth, not the engine's intent — so anything
        the codec lost would be invisible here; the lossless
        :class:`~repro.tls.codec.ServerHello` is what makes this
        observation possible at all.  A hello that *was* captured is
        graded even when the rest of the probe failed (e.g. a missing
        Certificate message): the server leg was observable, and
        zeroing it would misreport a mimicking stack as detectable.
        ``error`` only applies when no hello arrived at all.
        """
        browser = self.browser
        expected = browser.server_fingerprint()
        observed = fingerprint_server_hello(served) if served else None
        chosen = served.cipher_suite if served else None
        offered = browser.cipher_suites
        return ServerLegObservation(
            browser=browser.key,
            expected_ja3s=expected.digest(),
            observed_ja3s=observed.digest() if observed else None,
            divergent_fields=(
                server_fingerprint_divergence(expected, observed) if observed else ()
            ),
            chosen_cipher=chosen,
            cipher_rank=offered.index(chosen) if chosen in offered else None,
            expected_cipher=browser.expected_server_cipher,
            extension_types=served.extension_types if served else (),
            expected_extension_types=browser.expected_server_extension_types,
            offered_version=browser.version,
            echoed_version=served.version if served else None,
            compression_method=served.compression_method if served else None,
            session_id_length=len(served.session_id) if served else None,
            error="" if served else error or "substitute flight missing ServerHello",
            modern=modern,
        )

    def survey_product(self, spec) -> MimicryEntry:
        """One product's mimicry probe as a survey entry."""
        probe = self.run_mimicry(spec.profile)
        return MimicryEntry(
            product_key=spec.key,
            category=spec.profile.category.value,
            client_leg=probe.client_leg,
            server_leg=probe.server_leg,
        )

    def _make_rig(
        self,
        profile: ProxyProfile,
        scenario_key: str,
        revoked_serials: frozenset[int] = frozenset(),
    ) -> tuple[Network, Host, Host, TlsProxyEngine]:
        """One test-rig world: origin serving the healthy baseline,
        victim behind ``profile``'s engine, gateway for the upstream
        leg.  Both battery legs build their topology here so they can
        never drift apart."""
        network = Network()
        origin = network.add_host(AUDIT_HOSTNAME, ip="203.0.113.77")
        victim = network.add_host("victim.audit.example")
        gateway = network.add_host("gateway.audit.example")
        engine = TlsProxyEngine(
            profile,
            self.forger,
            client_bucket=RIG_CLIENT_BUCKET,
            upstream_host=gateway,
            upstream_trust=self.pki.proxy_store(),
            revoked_serials=revoked_serials,
            rng=random.Random(stable_hash(self.seed, profile.key, scenario_key)),
            registry=self.obs,
            events=self.events,
        )
        victim.add_interceptor(engine)
        origin.listen(443, TlsCertServer(list(self._baseline.chain)).factory)
        return network, origin, victim, engine

    def _probe_rng(self, profile: ProxyProfile, scenario_key: str) -> random.Random:
        return random.Random(
            stable_hash(self.seed, "probe", profile.key, scenario_key)
        )

    def run_scenario(
        self, profile: ProxyProfile, scenario: AuditScenario
    ) -> ScenarioObservation:
        """Probe the product once against a healthy origin, then attack."""
        setup = self._setups[scenario.key]
        network, origin, victim, engine = self._make_rig(
            profile, scenario.key, revoked_serials=setup.revoked_serials
        )
        probe_rng = self._probe_rng(profile, scenario.key)
        with self.obs.span("audit.scenario", scenario=scenario.key):
            # Warm-up: the origin is healthy; validation caches fill here.
            ProbeClient(victim, rng=probe_rng).probe(AUDIT_HOSTNAME, 443)
            # The attack begins: swap in the scenario's origin.
            origin.stop_listening(443)
            origin.listen(
                443,
                TlsCertServer(
                    list(setup.chain),
                    cipher_suite=setup.cipher_suite,
                    max_version=setup.max_version,
                ).factory,
            )
            result = ProbeClient(victim, rng=probe_rng).probe(AUDIT_HOSTNAME, 443)
        return self._classify(scenario, setup, result)

    @staticmethod
    def _classify(
        scenario: AuditScenario, setup: OriginSetup, result: ProbeResult
    ) -> ScenarioObservation:
        leaf = result.leaf
        if result.ok and leaf is None:
            outcome = OUTCOME_ERROR
            evidence = "probe completed, but its Certificate message was empty"
        elif result.ok:
            if leaf.fingerprint() == setup.chain[0].fingerprint():
                outcome = OUTCOME_PASS
                evidence = (
                    "attacked chain relayed verbatim; the client's own "
                    "validation is left to warn"
                )
            elif scenario.defect is None:
                outcome = OUTCOME_INTERCEPT
                evidence = "genuine origin intercepted and re-signed as usual"
            else:
                outcome = OUTCOME_MASK
                evidence = (
                    "attack hidden behind a trusted substitute "
                    f"(issuer {leaf.issuer.rfc4514() or '<empty>'!r})"
                )
        elif f"desc={codec.ALERT_BAD_CERTIFICATE}" in result.error:
            # Only the engine's deliberate verdict counts as a block;
            # a handshake_failure alert means the battery's upstream
            # leg fell over, which must not earn the product marks.
            outcome = OUTCOME_BLOCK
            evidence = f"connection refused with a fatal alert ({result.error})"
        else:
            outcome = OUTCOME_ERROR
            evidence = f"probe failed: {result.error}"
        return ScenarioObservation(
            scenario=scenario.key, outcome=outcome, evidence=evidence
        )


def audit_catalog(
    seed: int = 42,
    workers: int = 1,
    products: list[str] | None = None,
    pki_key_bits: int = 1024,
    vault: str | None = None,
    browser: str = DEFAULT_BROWSER,
    registry: MetricsRegistry | None = None,
) -> AuditReport:
    """Grade every catalog product (or the named subset) under ``seed``.

    ``workers`` > 1 fans products out over a process pool
    (:func:`repro.pool.ordered_map`), sidestepping the GIL that bounds
    the RSA-heavy battery in one process: each worker process rebuilds
    the harness once from the seed and audits its share of the catalog.
    Every certificate byte is derived deterministically from the seed
    and scorecards are returned in catalog order, so the report is
    identical regardless of worker count or scheduling.

    ``vault`` names a persistent key-vault directory
    (:mod:`repro.crypto.vault`).  Before a pool starts, the parent
    warms the vault once — audit PKI plus the signing CA each product's
    battery reads — so each worker's harness rebuild loads its RSA
    material from disk in microseconds instead of regenerating it,
    which is what lets the battery's wall time actually shrink with
    worker count.

    ``browser`` picks the 2014-era profile the client-leg mimicry
    probe impersonates (:data:`repro.tls.fingerprint.BROWSER_PROFILES`).

    ``registry`` collects the run's telemetry.  Deterministic tallies
    (scenario check outcomes, letter grades) are computed here from the
    returned scorecards in catalog order — never from harness-internal
    counters, whose home registry a process pool discards — so the
    deterministic section is identical for any worker count.  At
    ``workers=1`` the harness's timings and keygen counts merge in as
    timing/process metrics; pooled runs export the parent's only.
    """
    scorecards = _fan_out_catalog(
        _audit_task,
        seed=seed,
        workers=workers,
        products=products,
        pki_key_bits=pki_key_bits,
        vault=vault,
        browser=browser,
        registry=registry,
    )
    if registry is not None:
        for card in scorecards:
            registry.inc("audit.products")
            registry.inc("audit.grades", grade=card.grade)
            for check in card.checks:
                registry.inc("audit.checks", outcome=check.outcome)
    return AuditReport(seed=seed, scorecards=tuple(scorecards))


def _resolve_specs(products: list[str] | None):
    """The catalog, or the named subset of it, in catalog order."""
    specs = catalog()
    if products:
        by_key = {spec.key: spec for spec in specs}
        unknown = [key for key in products if key not in by_key]
        if unknown:
            raise KeyError(f"unknown product keys: {', '.join(sorted(unknown))}")
        specs = [by_key[key] for key in products]
    return specs


def _fan_out_catalog(
    task,
    seed: int,
    workers: int,
    products: list[str] | None,
    pki_key_bits: int,
    vault: str | None,
    browser: str,
    registry: MetricsRegistry | None = None,
) -> list:
    """Shared orchestration for per-product catalog fan-outs.

    ``task(harness, product_key)`` runs one product; it is module-level
    so the pool can send it to workers, each of which builds its own
    deterministic harness once.  Results come back in catalog order
    regardless of pool scheduling.
    """
    specs = _resolve_specs(products)
    keys = [spec.key for spec in specs]
    build = partial(
        AuditHarness,
        seed=seed,
        pki_key_bits=pki_key_bits,
        vault=vault,
        browser=browser,
    )
    if workers > 1:
        # Gate the parent warm on the *resolved* vault — an explicit
        # path or the REPRO_KEY_VAULT fallback — so env-attached
        # vaults (the CI cache mechanism) warm exactly like --vault.
        if open_vault(vault) is not None:
            warm_harness = build()
            for spec in specs:
                warm_harness.warm_product(spec.profile)
        return ordered_map(task, keys, workers, build)
    harness = build()
    try:
        return [task(harness, key) for key in keys]
    finally:
        if registry is not None:
            # Only the scheduling-dependent sections: the harness's own
            # deterministic counters (proxy decisions, probe counts)
            # would differ serial-vs-pooled, since worker processes'
            # registries never leave their processes.
            registry.merge_snapshot(
                harness.obs.snapshot(),
                sections=(SECTION_PROCESS, SECTION_TIMING),
            )


def mimicry_catalog(
    seed: int = 42,
    workers: int = 1,
    products: list[str] | None = None,
    pki_key_bits: int = 1024,
    vault: str | None = None,
    browser: str = DEFAULT_BROWSER,
    registry: MetricsRegistry | None = None,
) -> MimicrySurvey:
    """Run only the mimicry probe over the catalog (or a subset).

    The mimicry-prevalence study needs both legs of every product's
    mimicry observation but none of the adversarial scenarios, so this
    is roughly an order of magnitude cheaper than ``audit_catalog``.
    Sharding semantics are identical: entries come back in catalog
    order and are byte-identical for any worker count, and a warm
    ``vault`` spares every worker its keygen.  ``registry`` follows the
    ``audit_catalog`` contract: deterministic tallies derive from the
    returned entries, harness telemetry merges in as timing/process
    only, and only at ``workers=1``.
    """
    entries = _fan_out_catalog(
        _survey_task,
        seed=seed,
        workers=workers,
        products=products,
        pki_key_bits=pki_key_bits,
        vault=vault,
        browser=browser,
        registry=registry,
    )
    if registry is not None:
        for entry in entries:
            registry.inc("mimicry.entries")
            leg = "divergent" if entry.client_leg.divergent_fields else "mimicked"
            registry.inc("mimicry.client_leg", leg=leg)
            server = (
                "divergent" if entry.server_leg.divergent_fields else "mimicked"
            )
            registry.inc("mimicry.server_leg", leg=server)
    return MimicrySurvey(seed=seed, browser=browser, entries=tuple(entries))


def _audit_task(harness: AuditHarness, product_key: str) -> ProductScorecard:
    return harness.audit_product(catalog_by_key()[product_key].profile)


def _survey_task(harness: AuditHarness, product_key: str) -> MimicryEntry:
    return harness.survey_product(catalog_by_key()[product_key])
