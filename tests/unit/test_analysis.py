"""Unit tests for the classifier, tables, negligence and malware analyses."""

import pytest

from repro.analysis import (
    IssuerClassifier,
    analyze_negligence,
    classification_table,
    country_breakdown,
    heatmap_series,
    host_type_table,
    ip_dispersion_oddities,
    issuer_organization_table,
    malware_census,
)
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.proxy.profile import ProxyCategory
from repro.reporting import (
    render_classification_table,
    render_country_table,
    render_heatmap,
    render_host_type_table,
    render_issuer_table,
)
from repro.reporting.render import heat_char


def leaf(
    issuer_org="Bitdefender",
    issuer_cn="Bitdefender CA",
    subject_cn="site.example",
    key_bits=1024,
    sig="sha1WithRSAEncryption",
    key_fp="k1",
    dns=("site.example",),
):
    return CertSummary(
        subject_cn=subject_cn,
        subject_org=None,
        issuer_cn=issuer_cn,
        issuer_org=issuer_org,
        issuer_ou=None,
        serial_number=7,
        key_bits=key_bits,
        signature_algorithm=sig,
        fingerprint="f" + (issuer_org or "x") + subject_cn,
        public_key_fingerprint=key_fp,
        dns_names=dns,
    )


def record(
    leaf_summary,
    country="US",
    ip="11.0.0.1",
    hostname="site.example",
    host_type="Authors'",
    chain_valid=False,
):
    return MeasurementRecord(
        study=1,
        campaign="test",
        client_ip=ip,
        country=country,
        hostname=hostname,
        host_type=host_type,
        mismatch=True,
        leaf=leaf_summary,
        chain_valid=chain_valid,
    )


class TestClassifier:
    def setup_method(self):
        self.classifier = IssuerClassifier()

    def test_known_products(self):
        cases = {
            "Bitdefender": ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            "Kaspersky Lab ZAO": ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            "Qustodio": ProxyCategory.PARENTAL_CONTROL,
            "Sendori Inc": ProxyCategory.MALWARE,
            "Superfish, Inc.": ProxyCategory.MALWARE,
            "POSCO": ProxyCategory.ORGANIZATION,
            "LG UPLUS": ProxyCategory.TELECOM,
            "DigiCert Inc": ProxyCategory.CERTIFICATE_AUTHORITY,
        }
        for org, expected in cases.items():
            assert self.classifier.classify(leaf(issuer_org=org)) is expected

    def test_null_issuer_is_unknown(self):
        assert (
            self.classifier.classify(leaf(issuer_org=None, issuer_cn=None))
            is ProxyCategory.UNKNOWN
        )

    def test_blank_issuer_is_unknown(self):
        assert (
            self.classifier.classify(leaf(issuer_org="  ", issuer_cn=""))
            is ProxyCategory.UNKNOWN
        )

    def test_iopfail_recognized_by_cn(self):
        summary = leaf(issuer_org=None, issuer_cn="IopFailZeroAccessCreate")
        assert self.classifier.classify(summary) is ProxyCategory.MALWARE

    def test_school_heuristic(self):
        summary = leaf(issuer_org="Westfield High School")
        assert self.classifier.classify(summary) is ProxyCategory.SCHOOL

    def test_telecom_heuristic(self):
        summary = leaf(issuer_org="Anatolia Telekom A.S.")
        assert self.classifier.classify(summary) is ProxyCategory.TELECOM

    def test_firewall_heuristic(self):
        summary = leaf(issuer_org="Acme Firewall Appliance")
        assert (
            self.classifier.classify(summary)
            is ProxyCategory.BUSINESS_PERSONAL_FIREWALL
        )

    def test_unidentifiable_is_unknown(self):
        assert self.classifier.classify(leaf(issuer_org="kowsar")) is ProxyCategory.UNKNOWN
        assert (
            self.classifier.classify(leaf(issuer_org="zx81-gateway"))
            is ProxyCategory.UNKNOWN
        )

    def test_display_issuer(self):
        assert self.classifier.display_issuer(leaf(issuer_org=None)) == "Null"
        assert self.classifier.display_issuer(leaf(issuer_org="")) == "Null"
        assert self.classifier.display_issuer(leaf(issuer_org="ESET spol. s r. o.")) == (
            "ESET spol. s r. o."
        )


@pytest.fixture()
def small_db():
    db = ReportDatabase()
    db.add_mismatch(record(leaf(), country="US", ip="11.0.0.1"))
    db.add_mismatch(record(leaf(), country="US", ip="11.0.0.2"))
    db.add_mismatch(record(leaf(issuer_org="Sendori Inc"), country="BR", ip="11.1.0.1"))
    db.add_matched_bulk("US", "Authors'", "site.example", 996)
    db.add_matched_bulk("BR", "Authors'", "site.example", 499)
    return db


class TestTables:
    def test_country_breakdown(self, small_db):
        breakdown = country_breakdown(small_db, top_n=1)
        assert breakdown.rows[0].country == "US"
        assert breakdown.rows[0].proxied == 2
        assert breakdown.rows[0].total == 998
        assert breakdown.other.proxied == 1
        assert breakdown.total.total == 1498
        assert breakdown.total.percent == pytest.approx(0.2, rel=0.01)

    def test_country_breakdown_order_by_total(self, small_db):
        small_db.add_matched_bulk("CN", "Authors'", "site.example", 5000)
        breakdown = country_breakdown(small_db, top_n=2, order_by="total")
        assert breakdown.rows[0].country == "CN"
        assert breakdown.rows[0].proxied == 0

    def test_bad_order_by(self, small_db):
        with pytest.raises(ValueError):
            country_breakdown(small_db, order_by="rank")

    def test_issuer_table(self, small_db):
        rows, other = issuer_organization_table(small_db, top_n=1)
        assert rows[0].issuer_organization == "Bitdefender"
        assert rows[0].connections == 2
        assert other.connections == 1

    def test_classification_table(self, small_db):
        rows = {r.category: r for r in classification_table(small_db)}
        assert rows[ProxyCategory.BUSINESS_PERSONAL_FIREWALL].connections == 2
        assert rows[ProxyCategory.MALWARE].connections == 1
        assert rows[ProxyCategory.MALWARE].percent == pytest.approx(33.33, rel=0.01)
        assert rows[ProxyCategory.TELECOM].connections == 0

    def test_host_type_table(self, small_db):
        rows = {r.host_type: r for r in host_type_table(small_db)}
        assert rows["Authors'"].connections == 1498
        assert rows["Authors'"].proxied == 3

    def test_heatmap_series(self, small_db):
        series = heatmap_series(small_db)
        assert series["US"] == pytest.approx(2 / 998)
        assert series["BR"] == pytest.approx(1 / 500)


class TestNegligence:
    def test_key_downgrades_counted(self):
        db = ReportDatabase()
        db.add_mismatch(record(leaf(key_bits=1024)))
        db.add_mismatch(record(leaf(key_bits=512)))
        db.add_mismatch(record(leaf(key_bits=2048)))
        db.add_mismatch(record(leaf(key_bits=2432)))
        report = analyze_negligence(db)
        assert report.downgraded == 2
        assert report.downgraded_1024 == 1
        assert report.downgraded_512 == 1
        assert report.upgraded == 1
        assert report.key_size_histogram == {512: 1, 1024: 1, 2048: 1, 2432: 1}

    def test_md5_and_sha256_counted(self):
        db = ReportDatabase()
        db.add_mismatch(record(leaf(sig="md5WithRSAEncryption", key_bits=512)))
        db.add_mismatch(record(leaf(sig="sha256WithRSAEncryption")))
        report = analyze_negligence(db)
        assert report.md5_signed == 1
        assert report.md5_and_512 == 1
        assert report.sha256_signed == 1

    def test_false_ca_claim_detected(self):
        db = ReportDatabase()
        db.add_mismatch(record(leaf(issuer_org="DigiCert Inc"), chain_valid=False))
        report = analyze_negligence(db)
        assert report.false_ca_claims == 1
        assert report.false_ca_organizations["DigiCert Inc"] == 1

    def test_genuine_ca_chain_not_flagged(self):
        db = ReportDatabase()
        db.add_mismatch(record(leaf(issuer_org="DigiCert Inc"), chain_valid=True))
        assert analyze_negligence(db).false_ca_claims == 0

    def test_subject_mismatch_and_wildcard(self):
        db = ReportDatabase()
        db.add_mismatch(
            record(leaf(subject_cn="203.0.113.*", dns=("203.0.113.*",)))
        )
        db.add_mismatch(
            record(leaf(subject_cn="mail.google.com", dns=("mail.google.com",)))
        )
        db.add_mismatch(record(leaf()))  # subject matches
        report = analyze_negligence(db)
        assert report.subject_mismatches == 2
        assert report.wildcard_subnet_subjects == 1
        assert report.wrong_domain_subjects["mail.google.com"] == 1

    def test_shared_key_requires_total_reuse(self):
        db = ReportDatabase()
        # Five IopFail-style records: one key everywhere.
        for i in range(5):
            db.add_mismatch(
                record(
                    leaf(
                        issuer_org=None,
                        issuer_cn="IopFailZeroAccessCreate",
                        key_bits=512,
                        key_fp="shared",
                    ),
                    ip=f"11.0.0.{i}",
                )
            )
        # Five Bitdefender records with rotating keys.
        for i in range(5):
            db.add_mismatch(
                record(leaf(key_fp=f"rotating-{i % 2}"), ip=f"11.2.0.{i}")
            )
        report = analyze_negligence(db, shared_key_min_connections=5)
        assert len(report.shared_key_groups) == 1
        group = report.shared_key_groups[0]
        assert group.issuer == "IopFailZeroAccessCreate"
        assert group.key_bits == 512
        assert group.distinct_ips == 5

    def test_single_install_not_flagged(self):
        db = ReportDatabase()
        for _ in range(6):  # same IP probing repeatedly
            db.add_mismatch(record(leaf(key_fp="one"), ip="11.0.0.9"))
        assert analyze_negligence(db).shared_key_groups == []


class TestMalwareAndOddities:
    def test_census_counts_families(self):
        db = ReportDatabase()
        for i in range(3):
            db.add_mismatch(
                record(leaf(issuer_org="Sendori Inc"), ip=f"11.0.{i}.1", country="US")
            )
        db.add_mismatch(
            record(leaf(issuer_org="Superfish, Inc."), ip="11.3.0.1", country="BR")
        )
        db.add_mismatch(record(leaf()))  # benign firewall, not malware
        census = malware_census(db)
        assert census.family_count == 2
        assert census.total_connections == 4
        assert census.family("Sendori Inc").connections == 3
        assert census.family("Sendori Inc").distinct_ips == 3

    def test_census_uses_cn_for_orgless_families(self):
        db = ReportDatabase()
        db.add_mismatch(
            record(leaf(issuer_org=None, issuer_cn="IopFailZeroAccessCreate"))
        )
        census = malware_census(db)
        assert census.family("IopFailZeroAccessCreate") is not None

    def test_single_egress_oddity(self):
        db = ReportDatabase()
        for i in range(25):
            db.add_mismatch(
                record(leaf(issuer_org="DSP"), ip="11.9.0.1", country="IE")
            )
        oddities = ip_dispersion_oddities(db, min_connections=20)
        assert oddities[0].issuer == "DSP"
        assert oddities[0].pattern == "single-egress"

    def test_wide_dispersion_oddity(self):
        db = ReportDatabase()
        countries = ["US", "BR", "FR", "DE", "TR", "IN"]
        for i in range(30):
            db.add_mismatch(
                record(
                    leaf(issuer_org="kowsar"),
                    ip=f"11.8.{i}.1",
                    country=countries[i % len(countries)],
                )
            )
        oddities = ip_dispersion_oddities(db, min_connections=20)
        assert oddities[0].issuer == "kowsar"
        assert oddities[0].pattern == "wide-dispersion"

    def test_identified_categories_excluded(self):
        db = ReportDatabase()
        for i in range(30):
            db.add_mismatch(record(leaf(), ip=f"11.7.{i}.1"))
        assert ip_dispersion_oddities(db) == []


class TestRendering:
    def test_country_table_renders(self, small_db):
        text = render_country_table(country_breakdown(small_db, top_n=5))
        assert "US" in text
        assert "Total" in text
        assert "0.20%" in text

    def test_issuer_table_renders(self, small_db):
        rows, other = issuer_organization_table(small_db, top_n=5)
        text = render_issuer_table(rows, other)
        assert "Bitdefender" in text

    def test_classification_renders(self, small_db):
        text = render_classification_table(classification_table(small_db))
        assert "Business/Personal Firewall" in text
        assert "Malware" in text

    def test_host_type_renders(self, small_db):
        text = render_host_type_table(host_type_table(small_db))
        assert "Authors'" in text

    def test_heatmap_renders(self, small_db):
        text = render_heatmap(heatmap_series(small_db))
        assert "US" in text
        assert "scale" in text

    def test_heat_char_monotone(self):
        chars = [heat_char(rate) for rate in (0.0, 0.01, 0.05, 0.12, 0.5)]
        assert chars[0] == " "
        assert chars[-1] == "@"
