"""Scaling regression tests: sharded/pooled execution must be invisible.

The perf work (process-sharded fast studies, process-pool audit
backend, crypto/DER memoisation) is only acceptable if it changes
nothing observable: same seed → byte-identical forged chains and
identical report aggregates, for any worker count.
"""

import json

import pytest

from repro.analysis.mimicry import mimicry_prevalence
from repro.audit import audit_catalog, mimicry_catalog
from repro.crypto.keystore import KeyStore
from repro.data import products as product_data
from repro.proxy.forger import SubstituteCertForger
from repro.study import StudyConfig, StudyRunner, plan_subshards
from repro.study.webpki import build_web_pki
from repro.data import sites as site_data

SEED = 1337
SCALE = 0.002

AUDIT_SUBSET = ["bitdefender", "kurupira", "other-business-fw"]


@pytest.fixture(scope="module")
def run_w1():
    return StudyRunner(
        StudyConfig(study=1, seed=SEED, scale=SCALE, mode="fast", workers=1)
    ).run()


@pytest.fixture(scope="module")
def run_w4():
    return StudyRunner(
        StudyConfig(study=1, seed=SEED, scale=SCALE, mode="fast", workers=4)
    ).run()


class TestStudyWorkerDeterminism:
    def test_aggregate_signature_identical(self, run_w1, run_w4):
        assert (
            run_w1.database.aggregate_signature()
            == run_w4.database.aggregate_signature()
        )

    def test_matched_counters_identical(self, run_w1, run_w4):
        assert run_w1.database.matched_counts == run_w4.database.matched_counts

    def test_mismatch_records_identical_in_order(self, run_w1, run_w4):
        """Shards merge in fixed plan order, so even the record *list*
        (not just the multiset) must match byte for byte."""
        a = [
            (r.country, r.hostname, r.client_ip, r.leaf, r.chain)
            for r in run_w1.database.records
        ]
        b = [
            (r.country, r.hostname, r.client_ip, r.leaf, r.chain)
            for r in run_w4.database.records
        ]
        assert a == b
        assert len(a) > 0

    def test_failure_counters_and_sessions_identical(self, run_w1, run_w4):
        assert vars(run_w1.database.failures) == vars(run_w4.database.failures)
        assert run_w1.sessions_run == run_w4.sessions_run


class TestForgeEquivalence:
    def test_independent_forgers_emit_identical_der(self):
        """Two forgers built from the same seed must mint substitute
        chains that agree on every byte — the property that makes
        worker processes interchangeable with the parent."""
        sites = site_data.study1_probe_sites()[:3]
        chains = []
        for _ in range(2):
            keystore = KeyStore(seed=SEED)
            forger = SubstituteCertForger(keystore, seed=SEED)
            pki = build_web_pki(keystore, sites, seed=SEED)
            specs = [
                spec
                for spec in product_data.catalog()
                if spec.key in ("bitdefender", "kurupira", "other-business-fw")
            ]
            minted = []
            for spec in specs:
                for site in sites:
                    for bucket in (0, 3):
                        forged = forger.forge(
                            spec.profile,
                            pki.leaf_for(site.hostname),
                            site.hostname,
                            client_bucket=bucket,
                        )
                        minted.append(tuple(c.encode() for c in forged.chain))
            chains.append(minted)
        assert chains[0] == chains[1]

    def test_fast_records_match_direct_forge(self, run_w1):
        """Every fast-mode mismatch record must carry exactly the
        fingerprint a fresh forge of the same (product, host, bucket)
        produces — wire mode calls the same forge path, so this pins
        wire ≡ fast ≡ sharded."""
        runner = StudyRunner(
            StudyConfig(study=1, seed=SEED, scale=SCALE, mode="fast")
        )
        catalog = product_data.catalog_by_key()
        checked = 0
        for record in run_w1.database.records:
            if checked >= 10:
                break
            spec = catalog[record.product_key]
            if spec.egress_plan is not None:
                # Egress IPs collapse the client pool; the bucket is
                # not recoverable from the IP for these products.
                continue
            bucket = _bucket_of(run_w1, record)
            forged = runner.forger.forge(
                spec.profile,
                runner.pki.leaf_for(record.hostname),
                record.hostname,
                site_ip=runner.site_ips[record.hostname],
                client_bucket=bucket,
            )
            assert forged.leaf.fingerprint() == record.leaf.fingerprint
            assert forged.leaf.serial_number == record.leaf.serial_number
            checked += 1
        assert checked > 0


def _bucket_of(result, record):
    from repro.geoip.database import ip_to_int

    plan = result.population.plan(record.country)
    index = ip_to_int(record.client_ip) - plan.block_start
    return index % product_data.NUM_CLIENT_BUCKETS


class TestWorkStealingSubShards:
    """Skew-splitting must be invisible to the database contents."""

    def test_split_plan_is_even_and_exact(self):
        shards = plan_subshards("BR", 100_001, 25_000)
        assert [s.sessions for s in shards] == [20_001, 20_000, 20_000, 20_000, 20_000]
        assert sum(s.sessions for s in shards) == 100_001
        assert [s.sub for s in shards] == list(range(5))
        assert all(s.n_subs == 5 for s in shards)

    def test_small_countries_keep_historical_seed_stream(self):
        (shard,) = plan_subshards("LU", 123, 25_000)
        assert shard.seed_parts(SEED) == (SEED, "LU")
        split = plan_subshards("BR", 50_001, 25_000)
        assert split[1].seed_parts(SEED) == (SEED, "BR", 1)

    def test_plan_ignores_worker_count(self):
        # The plan is a pure function of (count, target): recomputing
        # it can never disagree with what another process computed.
        assert plan_subshards("US", 77_777, 10_000) == plan_subshards(
            "US", 77_777, 10_000
        )

    def test_subsharded_runs_identical_across_workers(self, warm_vault):
        """Force splits at tiny scale: workers ∈ {1, 4} over a
        work-stealing queue must still merge to the same database."""
        results = {
            workers: StudyRunner(
                StudyConfig(
                    study=1,
                    seed=SEED,
                    scale=SCALE,
                    mode="fast",
                    workers=workers,
                    subshard_sessions=50,
                    vault=warm_vault,
                )
            ).run()
            for workers in (1, 4)
        }
        assert results[1].notes["fast_subshards"] > results[1].notes["fast_shards"]
        assert (
            results[1].database.aggregate_signature()
            == results[4].database.aggregate_signature()
        )
        assert results[1].sessions_run == results[4].sessions_run


@pytest.fixture(scope="module")
def warm_vault(tmp_path_factory):
    """A vault warmed by one cold sharded run (parent generates once)."""
    path = str(tmp_path_factory.mktemp("key-vault"))
    StudyRunner(
        StudyConfig(study=1, seed=SEED, scale=SCALE, mode="fast", workers=2, vault=path)
    ).run()
    return path


class TestVaultDeterminism:
    """Acceptance: warm vault → zero per-worker keygen, same bytes."""

    @pytest.fixture(scope="class")
    def vault_runs(self, warm_vault):
        return {
            workers: StudyRunner(
                StudyConfig(
                    study=1,
                    seed=SEED,
                    scale=SCALE,
                    mode="fast",
                    workers=workers,
                    vault=warm_vault,
                )
            ).run()
            for workers in (1, 2, 4)
        }

    def test_signature_identical_across_workers_and_vault_on_off(
        self, vault_runs, run_w1
    ):
        signatures = {
            run.database.aggregate_signature() for run in vault_runs.values()
        }
        signatures.add(run_w1.database.aggregate_signature())  # vault off
        assert len(signatures) == 1

    def test_warm_vault_generates_zero_keys(self, vault_runs):
        inline = vault_runs[1]
        assert inline.notes["keys_generated"] == 0
        for workers in (2, 4):
            sharded = vault_runs[workers]
            # Parent loaded everything from disk...
            assert sharded.notes["keys_generated"] == 0
            # ...and so did every worker process.
            assert sharded.notes["worker_keys_generated"] == 0

    def test_vaultless_run_does_generate(self, run_w1):
        assert run_w1.notes["keys_generated"] > 0

    def test_audit_vault_matches_vaultless(self, warm_vault, serial_audit):
        vaulted = audit_catalog(
            seed=SEED,
            products=AUDIT_SUBSET,
            workers=2,
            pki_key_bits=512,
            vault=warm_vault,
        )
        assert vaulted.scorecards == serial_audit.scorecards


@pytest.fixture(scope="module")
def serial_audit():
    return audit_catalog(
        seed=SEED, products=AUDIT_SUBSET, workers=1, pki_key_bits=512
    )


class TestAuditExecutorDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return audit_catalog(seed=SEED, products=AUDIT_SUBSET, workers=1, pki_key_bits=512)

    def test_process_pool_matches_serial(self, serial_report):
        pooled = audit_catalog(
            seed=SEED, products=AUDIT_SUBSET, workers=2, pki_key_bits=512
        )
        assert pooled.scorecards == serial_report.scorecards

    def test_scorecards_in_catalog_order(self, serial_report):
        assert [c.product_key for c in serial_report.scorecards] == AUDIT_SUBSET


class TestFingerprintStability:
    """ClientHello fingerprints must not depend on execution layout.

    The mimicry grading compares JA3-style digests; if those drifted
    with worker count or seed, the client-leg section would break the
    battery's byte-identical-report guarantee."""

    def test_client_leg_identical_across_workers(self, serial_audit):
        report = audit_catalog(
            seed=SEED, products=AUDIT_SUBSET, workers=2, pki_key_bits=512
        )
        for card, expected in zip(report.scorecards, serial_audit.scorecards):
            assert card.client_leg == expected.client_leg
            assert card.client_checks == expected.client_checks
            assert card.server_leg == expected.server_leg
            assert card.server_checks == expected.server_checks

    def test_mimicry_scenario_present_for_every_product(self, serial_audit):
        for card in serial_audit.scorecards:
            assert "mimicry" in {check.scenario for check in card.client_checks}
            assert "server-cipher" in {
                check.scenario for check in card.server_checks
            }

    def test_fingerprints_independent_of_seed(self, serial_audit):
        """The observed fingerprints — both legs — are a function of
        the product's stack (and the probing browser), not of the run
        seed: randoms and certificates differ across seeds, digests do
        not."""
        other_seed = audit_catalog(
            seed=SEED + 1, products=AUDIT_SUBSET, pki_key_bits=512
        )
        for card, expected in zip(other_seed.scorecards, serial_audit.scorecards):
            assert card.client_leg is not None and expected.client_leg is not None
            assert card.client_leg.observed_ja3 == expected.client_leg.observed_ja3
            assert card.client_leg.expected_ja3 == expected.client_leg.expected_ja3
            assert (
                card.client_leg.divergent_fields
                == expected.client_leg.divergent_fields
            )
            assert card.server_leg is not None and expected.server_leg is not None
            assert (
                card.server_leg.observed_ja3s == expected.server_leg.observed_ja3s
            )
            assert (
                card.server_leg.divergent_fields
                == expected.server_leg.divergent_fields
            )


class TestMimicryPrevalenceDeterminism:
    """Acceptance: ``repro mimicry-prevalence`` output is byte-identical
    for workers ∈ {1, 4}."""

    SUBSET = ["bitdefender", "kurupira", "md5-legacy"]

    @pytest.fixture(scope="class")
    def serial_survey(self):
        return mimicry_catalog(seed=SEED, products=self.SUBSET, pki_key_bits=512)

    def test_survey_identical_across_workers(self, serial_survey):
        survey = mimicry_catalog(
            seed=SEED, products=self.SUBSET, workers=4, pki_key_bits=512
        )
        assert survey == serial_survey

    def test_prevalence_json_identical_across_workers(self, serial_survey):
        baseline = json.dumps(
            mimicry_prevalence(serial_survey, study=1).to_dict(), sort_keys=True
        )
        pooled = mimicry_catalog(
            seed=SEED,
            products=self.SUBSET,
            workers=4,
            pki_key_bits=512,
        )
        assert (
            json.dumps(mimicry_prevalence(pooled, study=1).to_dict(), sort_keys=True)
            == baseline
        )

    def test_cli_output_identical_across_workers(self, capsys):
        """The rendered table itself — not just the survey — must not
        depend on worker count."""
        from repro.cli import main

        outputs = []
        for extra in ([], ["--workers", "4"]):
            code = main(
                [
                    "mimicry-prevalence",
                    "--seed",
                    str(SEED),
                    "--product",
                    "kurupira",
                    "--product",
                    "md5-legacy",
                    *extra,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "Detectable" in outputs[0]

    def test_survey_verdicts_match_catalog_expectations(self, serial_survey):
        by_key = serial_survey.by_key()
        assert not by_key["bitdefender"].detectable  # full server-leg mimic
        assert by_key["kurupira"].detectable
        assert "compression" in by_key["md5-legacy"].detection_reasons


class TestModernAuditDeterminism:
    """The TLS 1.3-era battery obeys the same contract as the 2014 one:
    a chrome-2020 audit — double resumption probe and all — is
    byte-identical for workers ∈ {1, 2, 4}."""

    SUBSET = ["bitdefender", "fortinet", "kurupira"]
    MODERN_KEYS = {"alpn-mismatch", "resumption-honouring", "tls13-downgrade"}

    @pytest.fixture(scope="class")
    def modern_serial(self):
        return audit_catalog(
            seed=SEED,
            products=self.SUBSET,
            workers=1,
            pki_key_bits=512,
            browser="chrome-2020",
        )

    def test_report_identical_across_workers(self, modern_serial):
        baseline = json.dumps(modern_serial.to_dict(), sort_keys=True)
        for workers in (2, 4):
            report = audit_catalog(
                seed=SEED,
                products=self.SUBSET,
                workers=workers,
                pki_key_bits=512,
                browser="chrome-2020",
            )
            assert json.dumps(report.to_dict(), sort_keys=True) == baseline

    def test_modern_checks_graded_for_every_product(self, modern_serial):
        for card in modern_serial.scorecards:
            keys = {check.scenario for check in card.server_checks}
            assert self.MODERN_KEYS <= keys

    def test_2014_battery_carries_no_modern_rows(self, serial_audit):
        """The modern checks must not leak into 2014-era batteries —
        their exported JSON is pinned by earlier PRs."""
        for card in serial_audit.scorecards:
            keys = {check.scenario for check in card.server_checks}
            assert not (self.MODERN_KEYS & keys)
            assert card.server_leg is not None
            assert card.server_leg.modern is None


class TestMetricsDeterminism:
    """The telemetry layer obeys the same contract as the database:
    the *deterministic* metrics section is a pure function of
    (seed, config) — byte-identical for any worker count — while
    process/timing sections are allowed to vary."""

    def test_study_deterministic_section_identical_across_workers(
        self, run_w1, run_w4
    ):
        det_w1 = run_w1.metrics["deterministic"]
        det_w4 = run_w4.metrics["deterministic"]
        assert json.dumps(det_w1, sort_keys=True) == json.dumps(
            det_w4, sort_keys=True
        )
        counters = det_w1["counters"]
        assert counters["study.sessions{mode=fast}"] == run_w1.sessions_run
        # Distinct realised (product, site, bucket) forge cells are a
        # plan property — unlike forge *counts*, which are per-process.
        assert counters["study.forge_cells"] > 0
        hist = det_w1["histograms"]["study.shard_sessions"]
        assert hist["sum"] == run_w1.sessions_run

    def test_study_process_and_timing_sections_populate(self, run_w1, run_w4):
        # keygen happens wherever scheduling put it — both runs must
        # still account for it somewhere, just not identically.
        for run in (run_w1, run_w4):
            proc = run.metrics["process"]["counters"]
            assert proc.get("keystore.keys_generated", 0) > 0
            assert "study.run" in run.metrics["timing"]["spans"]

    def test_audit_deterministic_section_worker_invariant(self):
        from repro.obs import MetricsRegistry

        snapshots = {}
        for workers in (1, 2):
            registry = MetricsRegistry()
            audit_catalog(
                seed=SEED,
                products=AUDIT_SUBSET,
                workers=workers,
                pki_key_bits=512,
                registry=registry,
            )
            snapshots[workers] = json.dumps(
                registry.deterministic_snapshot(), sort_keys=True
            )
        assert snapshots[1] == snapshots[2]
        counters = json.loads(snapshots[1])["counters"]
        assert counters["audit.products"] == len(AUDIT_SUBSET)
        assert sum(
            value
            for key, value in counters.items()
            if key.startswith("audit.grades{")
        ) == len(AUDIT_SUBSET)

    def test_mimicry_deterministic_section_worker_invariant(self):
        from repro.obs import MetricsRegistry

        subset = ["bitdefender", "kurupira"]
        snapshots = []
        for workers in (1, 4):
            registry = MetricsRegistry()
            mimicry_catalog(
                seed=SEED,
                products=subset,
                workers=workers,
                pki_key_bits=512,
                registry=registry,
            )
            snapshots.append(
                json.dumps(registry.deterministic_snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]
        counters = json.loads(snapshots[0])["counters"]
        assert counters["mimicry.entries"] == len(subset)
