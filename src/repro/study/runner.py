"""End-to-end study execution (wire and fast modes).

Both modes share every decision-making component — population,
product profiles, forger, report database — and differ only in
whether bytes actually cross the simulated network:

* **wire** — every measurement runs the full §3 pipeline on netsim
  sockets: policy check, partial TLS handshake through a real MitM
  engine, HTTP report.  Used at small scale and by the tests.  The
  leg lives in :mod:`repro.study.wire`, which only a wire-mode runner
  loads, and only it signs the web PKI.
* **fast** — the same sampling and the same forger, but matched
  traffic is aggregated per (country, site) and substitute
  certificates are forged from each site's key-free
  :class:`~repro.study.webpki.SiteLeaf` without the socket dance.
  Reaches the paper's 12.3M-measurement scale.

Fast mode is *sharded by country, work-stolen by sub-shard*: the
global session multinomial is drawn once, then every country plan
becomes one or more independent sub-shards.  Countries whose session
count exceeds ``StudyConfig.subshard_sessions`` split into fixed
sub-shards (each seeded ``stable_hash(seed, country, sub)``; unsplit
countries keep the historical ``stable_hash(seed, country)`` stream),
so the work units a pool schedules are roughly even instead of
mirroring the paper's heavily skewed country sizes.  Sub-shards run
inline (``workers=1``) or are submitted largest-first to one shared
process-pool queue (:func:`repro.pool.ordered_map`) that idle workers
pull from — work-stealing in effect, so a straggler country no longer
serialises the run.  Results are delivered as one op stream
(:func:`repro.faults.recovery.deliver`) in fixed (plan order, sub
index) order into the in-memory database or the report store, so the
result is byte-identical for any worker count.

With a key vault attached (``StudyConfig.vault``) the parent warms
every RSA key a fast run can touch *once* before the pool spins up;
worker processes then load key material from disk in microseconds
instead of regenerating their shard's CA keys from scratch — the
difference between ``workers=N`` being N-times faster and N-times
slower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.adwords.campaign import AdCampaign, CampaignOutcome, run_study2_campaigns
from repro.crypto.keystore import KeyStore
from repro.faults.plan import FaultPlan
from repro.faults.recovery import FaultGate, ResilientStore, database_ops, deliver
from repro.data import countries as country_data
from repro.data import products as product_data
from repro.data import sites as site_data
from repro.data.sites import ProbeSite
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.store import ReportStore, require_empty_store
from repro.obs.metrics import SHARD_SESSION_BUCKETS, MetricsRegistry
from repro.pool import ordered_map
from repro.population.model import ClientPopulation
from repro.proxy.forger import SubstituteCertForger
from repro.study.webpki import WebPki, build_web_pki, site_leaves
from repro.util import memo_counts, stable_hash

# Per-study completion constants (§4.1/§4.2 totals; see data.sites).
_STUDY1_CLIENT_RUN = 0.65
_STUDY1_SITE_SUCCESS = 0.95


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one study run."""

    study: int  # 1 or 2
    seed: int = 0
    scale: float = 0.01  # fraction of the paper's measurement volume
    mode: str = "fast"  # "fast" or "wire"
    # Process-pool width for fast-mode country shards.  1 = run the
    # shards inline; results are identical either way.  In wire mode
    # ``workers > 1`` is folded into ``wire_concurrency`` (one process
    # multiplexes the sessions instead of a pool).
    workers: int = 1
    # Wire-mode admission cap: how many client session chains the
    # cooperative scheduler keeps in flight at once (at 1, one chain
    # at a time with synchronous delivery).  Any value produces
    # byte-identical signatures, handshake event logs and
    # deterministic metrics — concurrency changes wall-clock and loop
    # ticks, never results.
    wire_concurrency: int = 1
    # Countries above this session count split into even sub-shards so
    # the pool's work units are comparable in size.  The split plan
    # depends only on (counts, this knob), never on worker count.
    subshard_sessions: int = 25_000
    # Directory of a persistent key vault (repro.crypto.vault); None
    # disables disk persistence (the REPRO_KEY_VAULT environment
    # variable still applies).  A plain string keeps the config
    # picklable for worker initialisation.
    vault: str | None = None
    # Directory to stream fast-mode shard outcomes into as segmented
    # JSONL (repro.measure.store) instead of merging them into the
    # in-memory database; analysis then reads the segments.
    report_store: str | None = None
    # A repro.faults plan string ("reset=0.05,429=0.02,crash-flush=3,
    # ..."); None runs fault-free.  A plain string keeps the config
    # picklable; the plan's seed defaults to the study seed.
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.study not in (1, 2):
            raise ValueError("study must be 1 or 2")
        if self.mode not in ("fast", "wire"):
            raise ValueError("mode must be 'fast' or 'wire'")
        if not 0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.wire_concurrency < 1:
            raise ValueError("wire_concurrency must be >= 1")
        if self.wire_concurrency > 1 and self.mode != "wire":
            raise ValueError("wire_concurrency applies to wire mode only")
        if self.workers > 1 and self.mode == "wire":
            # Wire mode runs in one process; a workers request means
            # "run that many sessions concurrently", which the
            # cooperative scheduler does without a pool.
            if self.wire_concurrency == 1:
                object.__setattr__(self, "wire_concurrency", self.workers)
            object.__setattr__(self, "workers", 1)
        if self.subshard_sessions < 1:
            raise ValueError("subshard_sessions must be >= 1")
        if self.report_store is not None and self.mode != "fast":
            raise ValueError("report_store applies to fast mode only")
        if self.faults is not None:
            plan = FaultPlan.parse(self.faults, seed=self.seed)  # syntax check
            if plan.has_crashes() and self.report_store is None:
                raise ValueError(
                    "crash-<point> faults need --report-store (fast mode)"
                )

    def fault_plan(self) -> FaultPlan | None:
        if self.faults is None:
            return None
        return FaultPlan.parse(self.faults, seed=self.seed)


@dataclass
class StudyResult:
    """Everything a study run produces."""

    config: StudyConfig
    database: ReportDatabase
    campaigns: list[CampaignOutcome]
    population: ClientPopulation
    sites: list[ProbeSite]
    sessions_run: int = 0
    notes: dict[str, object] = field(default_factory=dict)
    # Full metrics snapshot (deterministic / process / timing); the
    # deterministic section is worker-invariant.
    metrics: dict = field(default_factory=dict)


class StudyRunner:
    """Builds and executes one study."""

    def __init__(self, config: StudyConfig) -> None:
        self.config = config
        self.obs = MetricsRegistry()
        self.keystore = KeyStore(
            seed=config.seed, vault=config.vault, registry=self.obs
        )
        self.forger = SubstituteCertForger(self.keystore, seed=config.seed)
        self.sites = (
            site_data.study1_probe_sites()
            if config.study == 1
            else site_data.study2_probe_sites()
        )
        # What a proxy reads off each site's leaf; fast mode forges
        # from these and never signs the web PKI (``pki``).
        self.site_leaves = site_leaves(self.sites, config.seed)
        self.site_ips = {
            site.hostname: f"203.0.113.{10 + index}"
            for index, site in enumerate(self.sites)
        }
        self._catalog = product_data.catalog_by_key()
        self._specs = product_data.catalog()
        # (product, site, bucket) → (leaf, chain summaries): ≤ 48 × 17 × 32 cells.
        self._fast_summary_cache: dict[tuple, tuple] = {}
        # Per-site completion probabilities, in site order (fast mode
        # draws them as one vector per shard, wire mode per session).
        self._site_probs = np.array(
            [self.site_success_probability(site) for site in self.sites]
        )
        # RSA generations observed inside worker processes (set by
        # sharded runs; None for inline execution).
        self._worker_keys_generated: int | None = None
        # Test hook: a seeded random.Random here shuffles the wire
        # scheduler's per-tick task order, which the interleaving
        # determinism property uses to prove results are
        # schedule-independent.
        self._wire_shuffle: random.Random | None = None
        self._wire_leg = None
        if config.mode == "wire":
            # Set-up of a wire study: load its leg and sign the web PKI
            # here, so neither is paid inside ``run()``.
            from repro.study import wire

            self._wire_leg = wire
            self.pki

    @cached_property
    def pki(self) -> WebPki:
        """The signed web PKI, built on first use: six CA keys."""
        return build_web_pki(self.keystore, self.sites, seed=self.config.seed)

    def warm_keys(self) -> None:
        """Touch every RSA key a study can need.

        That is the web-PKI keys a wire study signs with, then every
        forging key (:meth:`_warm_forge_keys`).  With a vault attached
        the material persists, so worker processes and later runs load
        it instead of re-running Miller–Rabin.
        """
        self.pki
        self._warm_forge_keys()

    def _warm_forge_keys(self) -> None:
        """Touch every product's signing-CA keys, including issuer
        variants and — for issuer-copying profiles — the CAs minted per
        upstream intermediate, read off the site leaves, so no web-PKI
        key is generated."""
        upstream_issuers = {
            leaf.issuer.rfc4514(): leaf.issuer for leaf in self.site_leaves.values()
        }
        for spec in self._specs:
            profile = spec.profile
            if profile.copies_upstream_issuer:
                for issuer in upstream_issuers.values():
                    self.forger.authority_for(profile, issuer)
            else:
                self.forger.warm(profile)

    # -- shared knobs ---------------------------------------------------------

    def client_run_probability(self) -> float:
        if self.config.study == 1:
            return _STUDY1_CLIENT_RUN
        return site_data.CLIENT_RUN_PROBABILITY

    def site_success_probability(self, site: ProbeSite) -> float:
        """P(a session completes a measurement of ``site``)."""
        if self.config.study == 1:
            return _STUDY1_SITE_SUCCESS
        total_impressions = sum(c.impressions for c in country_data.STUDY2_CAMPAIGNS)
        return site_data.per_site_success_probability(site.host_type, total_impressions)

    def measurements_per_session(self) -> float:
        return sum(self.site_success_probability(site) for site in self.sites)

    def total_sessions(self) -> int:
        if self.config.study == 1:
            impressions = country_data.STUDY1_CAMPAIGN.impressions
        else:
            impressions = sum(c.impressions for c in country_data.STUDY2_CAMPAIGNS)
        return int(impressions * self.client_run_probability() * self.config.scale)

    def campaign_for(self, country: str) -> str:
        if self.config.study == 1:
            return country_data.STUDY1_CAMPAIGN.name
        if country in country_data.TARGETED_COUNTRIES:
            names = {
                "CN": "China",
                "EG": "Egypt",
                "PK": "Pakistan",
                "RU": "Russia",
                "UA": "Ukraine",
            }
            return names[country]
        return "Global"

    # -- entry point -------------------------------------------------------------

    def run(self) -> StudyResult:
        config = self.config
        population = ClientPopulation(
            config.study,
            seed=config.seed,
            scale=config.scale,
            measurements_per_session=self.measurements_per_session(),
        )
        database = ReportDatabase()
        campaign_rng = random.Random(stable_hash(config.seed, "campaigns"))
        if config.study == 1:
            campaigns = [AdCampaign.study1().run(campaign_rng)]
        else:
            campaigns = run_study2_campaigns(campaign_rng)
        result = StudyResult(
            config=config,
            database=database,
            campaigns=campaigns,
            population=population,
            sites=self.sites,
        )
        memos_before = memo_counts()
        with self.obs.span("study.run", mode=config.mode):
            if config.mode == "wire":
                self._wire_leg.run_wire(self, result)
            else:
                self._run_fast(result)
        # The memos are process-global, so their hits depend on what
        # ran earlier in this process: process section, as a delta.  A
        # memo first made during the run counts from 0.
        for name, count in memo_counts().items():
            self.obs.process_counter(name).inc(count - memos_before.get(name, 0))
        result.notes["certificates_forged"] = self.forger.certificates_forged
        result.notes["forge_cache_hits"] = self.forger.cache_hits
        # Forge traffic depends on process boundaries (each worker pays
        # its own cache misses), so it lands in the process section.
        self.obs.process_counter("forger.certificates_forged").inc(
            self.forger.certificates_forged
        )
        self.obs.process_counter("forger.cache_hits").inc(self.forger.cache_hits)
        result.metrics = self.obs.snapshot()
        return result

    # -- fast mode -----------------------------------------------------------------

    def _run_fast(self, result: StudyResult) -> None:
        """Sub-sharded fast mode (inline or work-stealing pool).

        The session multinomial is drawn once from the global stream;
        every country plan then splits into a deterministic sub-shard
        plan (a function of its count and ``subshard_sessions`` only),
        and each sub-shard runs on its own seeded randomness.  Neither
        the split nor the seeding depends on worker count or execution
        order, and outcomes are delivered in fixed (plan, sub) order — so
        the database or store is byte-identical for any ``workers`` value.
        """
        config = self.config
        population = result.population
        faults = config.fault_plan()
        # Open the sink first, so an occupied store directory is refused
        # before any shard runs.
        sink = result.database
        if config.report_store is not None:
            require_empty_store(config.report_store)
            if faults is None:
                sink = ReportStore(config.report_store, registry=self.obs)
            else:
                sink = ResilientStore(config.report_store, faults, registry=self.obs)
        with self.obs.span("study.plan"):
            np_rng = np.random.default_rng(stable_hash(config.seed, "fast"))

            n_sessions = self.total_sessions()
            plans = population.plans
            weights = np.array([plan.measurement_weight for plan in plans])
            session_counts = np_rng.multinomial(n_sessions, weights / weights.sum())
            subshards = [
                shard
                for plan, count in zip(plans, session_counts)
                if count
                for shard in plan_subshards(
                    plan.code, int(count), config.subshard_sessions
                )
            ]
        if config.workers > 1 and len(subshards) > 1:
            outcomes = self._run_fast_sharded(subshards)
        else:
            outcomes = [
                _fast_shard_task((self, population), shard) for shard in subshards
            ]
        # Every shard's ops go out in fixed (plan, sub) order, so the
        # sink's contents and the deterministic section are
        # byte-identical for any worker count.  Fault decisions key on
        # the global op ordinal, which inherits that invariance.
        with self.obs.span("study.merge"):
            for outcome in outcomes:
                result.sessions_run += outcome.sessions_run
                self.obs.merge_snapshot(outcome.metrics)
            delivery = deliver(
                (op for outcome in outcomes for op in database_ops(outcome.database)),
                sink,
                FaultGate(faults, self.obs) if faults is not None else None,
            )
        if faults is not None:
            result.notes["faults"] = {"plan": faults.describe(), **delivery}
        if config.report_store is not None:
            result.notes["report_store"] = config.report_store
        result.notes["fast_workers"] = config.workers
        result.notes["fast_shards"] = len({shard.code for shard in subshards})
        result.notes["fast_subshards"] = len(subshards)
        result.notes["keys_generated"] = self.keystore.keys_generated
        if self._worker_keys_generated is not None:
            result.notes["worker_keys_generated"] = self._worker_keys_generated

    def _run_fast_sharded(self, subshards: list["SubShard"]) -> list["FastShardOutcome"]:
        """Drain the sub-shard queue over worker processes.

        Sub-shards are submitted to one shared pool queue in
        largest-first (LPT) order, and whichever worker goes idle pulls
        the next one — work-stealing, so a skewed country no longer
        pins the whole run to one process.  Results are reassembled in
        the fixed (plan, sub) order regardless of completion order.

        Each worker rebuilds the runner from the (picklable) config —
        every certificate byte is derived from the seed, so the shard
        databases are identical to inline execution.  With a vault
        configured, the parent warms every forging key first so workers
        load material from disk instead of regenerating it (their
        ``keys_generated`` deltas come back in the outcomes, which the
        warm-vault tests pin to zero, and add to this runner's count).
        Forge-counter deltas fold back into this runner's forger so
        ``run()`` notes stay meaningful; cache hits are per-process,
        hence lower than a single shared cache would score.
        """
        config = self.config
        if self.keystore.vault is not None:
            with self.obs.span("study.warm_keys"):
                self._warm_forge_keys()
        queue_order = sorted(
            range(len(subshards)),
            key=lambda i: (-subshards[i].sessions, i),
        )
        outcomes = ordered_map(
            _fast_shard_task,
            subshards,
            config.workers,
            _fast_worker,
            (config,),
            order=queue_order,
        )
        for outcome in outcomes:
            self.forger.certificates_forged += outcome.certificates_forged
            self.forger.cache_hits += outcome.cache_hits
        self._worker_keys_generated = sum(o.keys_generated for o in outcomes)
        # The workers' keygen is this run's keygen: count it here too.
        self.obs.process_counter("keystore.keys_generated").inc(
            self._worker_keys_generated
        )
        return outcomes

    def _run_fast_shard(
        self, population: ClientPopulation, shard: "SubShard"
    ) -> "FastShardOutcome":
        """Run one sub-shard's sessions into a fresh shard database.

        Shard metrics land on a *fresh* registry whose snapshot
        travels back in the outcome, exactly like the shard database —
        the parent merges both in fixed plan order, so worker count
        never shows in the deterministic section.
        """
        config = self.config
        plan = population.plan(shard.code)
        n_country = shard.sessions
        database = ReportDatabase()
        obs = MetricsRegistry()
        np_rng = np.random.default_rng(stable_hash(*shard.seed_parts(config.seed)))
        forged_before = self.forger.certificates_forged
        hits_before = self.forger.cache_hits
        keys_before = self.keystore.keys_generated
        with obs.span("study.shard", country=shard.code):
            database.failures.sessions_started += n_country
            n_proxied = int(np_rng.binomial(n_country, plan.proxy_rate))
            n_clean = n_country - n_proxied
            obs.inc("study.sessions", n=n_country, mode="fast")
            obs.inc("study.sessions_proxied", n=n_proxied)
            obs.histogram("study.shard_sessions", SHARD_SESSION_BUCKETS).observe(
                n_country
            )
            c_matched = obs.counter("study.measurements", verdict="matched")
            # Matched majority: one vectorised draw across all sites.
            for site, count in zip(
                self.sites, np_rng.binomial(n_clean, self._site_probs)
            ):
                database.add_matched_bulk(
                    plan.code, site.host_type, site.hostname, int(count)
                )
                c_matched.inc(int(count))
            if n_proxied:
                self._fast_proxied_sessions(
                    database, population, plan, n_proxied, np_rng, obs
                )
        return FastShardOutcome(
            code=shard.code,
            database=database,
            sessions_run=n_country,
            certificates_forged=self.forger.certificates_forged - forged_before,
            cache_hits=self.forger.cache_hits - hits_before,
            keys_generated=self.keystore.keys_generated - keys_before,
            metrics=obs.snapshot(),
        )

    def _fast_proxied_sessions(
        self,
        database: ReportDatabase,
        population: ClientPopulation,
        plan,
        n_proxied: int,
        np_rng,
        obs: MetricsRegistry,
    ) -> None:
        """Vectorised proxied-session sampling for one country shard.

        Client slots are drawn as one numpy batch per product and
        grouped by bucket; a single Bernoulli matrix per product then
        decides every (session, site) completion at once, so each
        (product, site, bucket) cell realises its binomial count while
        per-session independence across sites — which the
        distinct-IP/dispersion analyses read — is preserved.
        Certificates and summaries are shared per cell, so the
        per-measurement Python work collapses to one record
        construction.
        """
        shares = population.product_share_vector(plan.code)
        if shares.sum() == 0:
            return
        product_counts = np_rng.multinomial(n_proxied, shares / shares.sum())
        campaign = self.campaign_for(plan.code)
        n_buckets = product_data.NUM_CLIENT_BUCKETS
        c_mismatch = obs.counter("study.measurements", verdict="mismatch")
        c_relayed = obs.counter("study.whitelisted_relays")
        # Cells realised in this shard, counted at the `_fast_summaries`
        # call sites: unlike forge/cache counters (whose split depends
        # on which process served which shard) the cell count is a pure
        # function of the shard's own draws.
        c_cells = obs.counter("study.forge_cells")
        for spec, count in zip(self._specs, product_counts):
            count = int(count)
            if not count:
                continue
            profile = spec.profile
            client_indices = np_rng.integers(0, plan.pool_size, size=count)
            buckets = client_indices % n_buckets
            # Stable sort groups each bucket's sessions contiguously in
            # (random) draw order.
            order = np.argsort(buckets, kind="stable")
            grouped = client_indices[order]
            bounds = np.searchsorted(buckets[order], np.arange(n_buckets + 1))
            # Every (session, site) completion in one draw.
            completions = (
                np_rng.random((count, len(self.sites))) < self._site_probs
            )[order]
            for site_index, site in enumerate(self.sites):
                column = completions[:, site_index]
                if profile.is_whitelisted(site.hostname):
                    # The proxy relays untouched: the client sees the
                    # real chain — only the aggregate count matters.
                    database.add_matched_bulk(
                        plan.code, site.host_type, site.hostname, int(column.sum())
                    )
                    c_relayed.inc(int(column.sum()))
                    continue
                for bucket in range(n_buckets):
                    segment = slice(int(bounds[bucket]), int(bounds[bucket + 1]))
                    members = grouped[segment][column[segment]]
                    if not members.size:
                        continue
                    leaf, chain = self._fast_summaries(spec, site, bucket)
                    c_cells.inc()
                    c_mismatch.inc(int(members.size))
                    for client_index in members:
                        database.add_mismatch(
                            MeasurementRecord(
                                study=self.config.study,
                                campaign=campaign,
                                client_ip=population.client_ip(
                                    plan.code, int(client_index), spec.key
                                ),
                                country=plan.code,
                                hostname=site.hostname,
                                host_type=site.host_type,
                                mismatch=True,
                                leaf=leaf,
                                chain=chain,
                                via="fast",
                                product_key=spec.key,
                            )
                        )

    def _fast_summaries(
        self, spec, site: ProbeSite, bucket: int
    ) -> tuple[CertSummary, tuple[CertSummary, ...]]:
        """Forge (or fetch) the (product, site, bucket) substitute chain
        and its analysis summaries — computed once per cell, not per
        measurement."""
        cache_key = (spec.key, site.hostname, bucket)
        cached = self._fast_summary_cache.get(cache_key)
        if cached is not None:
            return cached
        forged = self.forger.forge(
            spec.profile,
            self.site_leaves[site.hostname],
            site.hostname,
            site_ip=self.site_ips[site.hostname],
            client_bucket=bucket,
        )
        summaries = (
            CertSummary.from_certificate(forged.leaf),
            tuple(CertSummary.from_certificate(c) for c in forged.ca_chain),
        )
        self._fast_summary_cache[cache_key] = summaries
        return summaries


@dataclass(frozen=True)
class SubShard:
    """One schedulable unit of fast-mode work: a slice of a country.

    ``n_subs == 1`` means the country was not split; its randomness
    then comes from the historical ``stable_hash(seed, code)`` stream,
    so small-scale runs are unchanged by the sub-shard machinery.
    """

    code: str
    sub: int
    n_subs: int
    sessions: int

    def seed_parts(self, seed: int) -> tuple:
        if self.n_subs == 1:
            return (seed, self.code)
        return (seed, self.code, self.sub)


def plan_subshards(code: str, count: int, target: int) -> list[SubShard]:
    """Split one country's ``count`` sessions into near-even sub-shards.

    The plan is a pure function of ``(count, target)`` — it never sees
    the worker count — so every execution strategy schedules exactly
    the same units with exactly the same per-unit seeds.
    """
    n_subs = max(1, -(-count // target))
    if n_subs == 1:
        return [SubShard(code=code, sub=0, n_subs=1, sessions=count)]
    base, remainder = divmod(count, n_subs)
    return [
        SubShard(
            code=code,
            sub=sub,
            n_subs=n_subs,
            sessions=base + (1 if sub < remainder else 0),
        )
        for sub in range(n_subs)
    ]


@dataclass
class FastShardOutcome:
    """One sub-shard's results plus forge/keygen counter deltas."""

    code: str
    database: ReportDatabase
    sessions_run: int
    certificates_forged: int
    cache_hits: int
    keys_generated: int = 0
    # Shard registry snapshot (plain dicts: picklable across the pool).
    metrics: dict = field(default_factory=dict)


def _fast_worker(config: StudyConfig) -> tuple[StudyRunner, ClientPopulation]:
    """A pool worker's runner and population, built once per process.

    CA key generation thus amortises over every shard the worker
    pulls.
    """
    runner = StudyRunner(config)
    population = ClientPopulation(
        config.study,
        seed=config.seed,
        scale=config.scale,
        measurements_per_session=runner.measurements_per_session(),
    )
    return runner, population


def _fast_shard_task(
    worker: tuple[StudyRunner, ClientPopulation], shard: SubShard
) -> FastShardOutcome:
    runner, population = worker
    return runner._run_fast_shard(population, shard)
