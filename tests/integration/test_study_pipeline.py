"""Integration tests: studies end to end, and wire ≡ fast equivalence."""

import pytest

from repro.analysis import (
    classification_table,
    country_breakdown,
    host_type_table,
    issuer_organization_table,
)
from repro.data import products as product_data
from repro.measure import server as server_module
from repro.measure.server import _judge
from repro.proxy.profile import ProxyCategory
from repro.study import StudyConfig, StudyRunner


@pytest.fixture(scope="module")
def study1_fast():
    return StudyRunner(StudyConfig(study=1, seed=5, scale=0.02, mode="fast")).run()


@pytest.fixture(scope="module")
def study1_wire_judged():
    """The wire study and every verdict its reporting server reached."""
    verdicts = []

    def judge(key):
        verdicts.append(_judge(key))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "_judge", judge)
        result = StudyRunner(
            StudyConfig(study=1, seed=5, scale=0.001, mode="wire")
        ).run()
    return result, verdicts


@pytest.fixture(scope="module")
def study1_wire(study1_wire_judged):
    return study1_wire_judged[0]


@pytest.fixture(scope="module")
def study2_fast():
    return StudyRunner(StudyConfig(study=2, seed=5, scale=0.01, mode="fast")).run()


class TestStudy1Fast:
    def test_measurement_volume_scales(self, study1_fast):
        db = study1_fast.database
        # 2.86M measurements at 2% scale ≈ 57k.
        assert 45_000 < db.total_measurements < 70_000

    def test_proxied_rate_near_paper(self, study1_fast):
        rate = study1_fast.database.proxied_rate
        assert 0.0025 < rate < 0.0060  # paper: 0.0041

    def test_every_mismatch_has_country_and_product(self, study1_fast):
        for record in study1_fast.database.mismatches():
            assert record.country is not None
            assert record.product_key is not None
            assert record.via == "fast"

    def test_bitdefender_leads_issuer_table(self, study1_fast):
        rows, _ = issuer_organization_table(study1_fast.database, top_n=5)
        assert rows[0].issuer_organization == "Bitdefender"

    def test_firewalls_dominate_classification(self, study1_fast):
        rows = {r.category: r for r in classification_table(study1_fast.database)}
        bpf = rows[ProxyCategory.BUSINESS_PERSONAL_FIREWALL].percent
        assert 60.0 < bpf < 80.0  # paper: 68.86%

    def test_us_and_brazil_lead_country_table(self, study1_fast):
        breakdown = country_breakdown(study1_fast.database, top_n=5)
        top_countries = {row.country for row in breakdown.rows}
        assert "US" in top_countries
        assert "BR" in top_countries

    def test_campaign_stats_generated(self, study1_fast):
        assert len(study1_fast.campaigns) == 1
        assert study1_fast.campaigns[0].impressions > 3_000_000

    def test_classifier_recovers_ground_truth(self, study1_fast):
        """Issuer-string classification must agree with the simulation's
        ground-truth product categories almost everywhere."""
        from repro.analysis import IssuerClassifier

        classifier = IssuerClassifier()
        catalog = product_data.catalog_by_key()
        agree = total = 0
        for record in study1_fast.database.mismatches():
            truth = catalog[record.product_key].category
            verdict = classifier.classify(record.leaf)
            total += 1
            agree += verdict is truth
        assert total > 0
        assert agree / total > 0.95

    def test_deterministic_given_seed(self):
        a = StudyRunner(StudyConfig(study=1, seed=77, scale=0.002, mode="fast")).run()
        b = StudyRunner(StudyConfig(study=1, seed=77, scale=0.002, mode="fast")).run()
        assert a.database.total_measurements == b.database.total_measurements
        fingerprints_a = sorted(r.leaf.fingerprint for r in a.database.mismatches())
        fingerprints_b = sorted(r.leaf.fingerprint for r in b.database.mismatches())
        assert fingerprints_a == fingerprints_b


class TestStudy1Wire:
    def test_wire_pipeline_produces_reports(self, study1_wire):
        db = study1_wire.database
        assert db.total_measurements > 1000
        assert db.failures.report_failed == 0
        assert db.failures.policy_denied == 0

    def test_wire_rate_plausible(self, study1_wire):
        # Small sample: just require the right order of magnitude.
        assert 0.0 < study1_wire.database.proxied_rate < 0.02

    def test_wire_records_geolocated(self, study1_wire):
        for record in study1_wire.database.mismatches():
            assert record.country is not None
            assert record.via == "wire"

    def test_wire_mismatches_fail_public_validation(self, study1_wire):
        for record in study1_wire.database.mismatches():
            assert not record.chain_valid

    def test_wire_matched_pass_public_validation(self, study1_wire_judged):
        # A matched report is stored as a count, so its chain's verdict
        # is read where the server reached it.
        study, verdicts = study1_wire_judged
        matched = [valid for _, _, mismatch, valid in verdicts if not mismatch]
        assert len(matched) == study.database.matched_count > 0
        assert all(matched)


class TestWireFastEquivalence:
    def test_same_client_same_certificate(self, study1_fast, study1_wire):
        """For identical (product, host, bucket), wire and fast modes
        must record the identical forged certificate."""
        wire_by_key = {}
        for record in study1_wire.database.mismatches():
            bucket = _bucket_of(study1_wire, record)
            wire_by_key[(record.product_key, record.hostname, bucket)] = record
        fast_by_key = {}
        for record in study1_fast.database.mismatches():
            bucket = _bucket_of(study1_fast, record)
            fast_by_key[(record.product_key, record.hostname, bucket)] = record
        overlap = set(wire_by_key) & set(fast_by_key)
        assert overlap, "expected overlapping (product, host, bucket) cells"
        for key in overlap:
            wire_leaf = wire_by_key[key].leaf
            fast_leaf = fast_by_key[key].leaf
            assert wire_leaf.fingerprint == fast_leaf.fingerprint
            assert wire_leaf.serial_number == fast_leaf.serial_number
            assert wire_leaf.public_key_fingerprint == fast_leaf.public_key_fingerprint


def _bucket_of(result, record):
    """Recover the client bucket from the client IP's pool index."""
    from repro.geoip.database import ip_to_int

    plan = result.population.plan(record.country)
    index = ip_to_int(record.client_ip) - plan.block_start
    return index % product_data.NUM_CLIENT_BUCKETS


class TestStudy2Fast:
    def test_all_host_types_measured(self, study2_fast):
        rows = {r.host_type: r for r in host_type_table(study2_fast.database)}
        for host_type in ("Popular", "Business", "Pornographic", "Authors'"):
            assert rows[host_type].connections > 0

    def test_host_type_rates_indistinguishable(self, study2_fast):
        """Table 8's punchline: no blacklisting, all types ≈ equal rates."""
        rows = host_type_table(study2_fast.database)
        rates = [row.percent_proxied for row in rows if row.connections > 1000]
        assert len(rates) >= 4
        assert max(rates) - min(rates) < 0.15  # percentage points

    def test_china_rate_exceptionally_low(self, study2_fast):
        totals = study2_fast.database.totals_by_country()
        cn_proxied, cn_total = totals["CN"]
        us_proxied, us_total = totals["US"]
        assert cn_total > 10_000
        assert cn_proxied / cn_total < 0.001  # paper: 0.02%
        assert us_proxied / us_total > 0.004  # paper: 0.86%

    def test_targeted_countries_dominate_volume(self, study2_fast):
        breakdown = country_breakdown(study2_fast.database, top_n=6, order_by="total")
        top = {row.country for row in breakdown.rows}
        # All five targeted countries in the top six by volume (Table 7).
        assert {"CN", "UA", "RU", "EG", "PK"} <= top

    def test_six_campaigns(self, study2_fast):
        assert len(study2_fast.campaigns) == 6
        assert {c.name for c in study2_fast.campaigns} == {
            "Global",
            "China",
            "Egypt",
            "Pakistan",
            "Russia",
            "Ukraine",
        }

    def test_second_study_malware_present(self, study2_fast):
        from repro.analysis import malware_census

        census = malware_census(study2_fast.database)
        identifiers = {f.identifier for f in census.families}
        assert "Objectify Media Inc" in identifiers
        assert "Superfish, Inc." in identifiers
