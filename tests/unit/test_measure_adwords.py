"""Unit tests for measurement records/database/server/tool and AdWords."""

import random
from dataclasses import replace

import pytest

from repro.adwords import AdCampaign, run_study2_campaigns
from repro.asn1.der import encode_length
from repro.asn1.oids import OID_EXT_BASIC_CONSTRAINTS, OID_EXT_SUBJECT_ALT_NAME
from repro.crypto.hashes import hash_by_name
from repro.data.countries import STUDY2_CAMPAIGNS
from repro.data.sites import ProbeSite
from repro.faults.recovery import database_ops, deliver
from repro.geoip.database import GeoIpDatabase
from repro.httpmin.client import HttpClient
from repro.httpmin.codec import HttpRequest, HttpResponse
from repro.measure import server as server_module
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.server import (
    REPORT_VERDICTS,
    CombinedPolicyHttpServer,
    ReportingServer,
    _judge,
)
from repro.measure.tool import PEM_BODY_CACHE_SIZE, MeasurementTool, _pem_body
from repro.netsim import Network, drive
from repro.policy.model import PolicyFile
from repro.policy.server import PolicyServer, _parse_policy, fetch_policy
from repro.tls.server import TlsCertServer
from repro.x509 import Name
from repro.x509.ca import _sign_tbs
from repro.x509.model import Extension, SubjectPublicKeyInfo
from repro.x509.pem import pem_encode
from repro.x509.store import RootStore


@pytest.fixture(scope="module")
def origin_chain(intermediate_ca, keystore):
    key = keystore.key("measure-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="tlsresearch.byu.edu", organization="BYU"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["tlsresearch.byu.edu"],
    )
    return [leaf, intermediate_ca.certificate]


def summary_from(chain):
    return CertSummary.from_certificate(chain[0])


class TestCertSummary:
    def test_fields_extracted(self, origin_chain):
        summary = summary_from(origin_chain)
        assert summary.subject_cn == "tlsresearch.byu.edu"
        assert summary.issuer_org == "Repro Trust"
        assert summary.key_bits == 512
        assert summary.signature_algorithm == "sha256WithRSAEncryption"
        assert summary.matches_hostname("tlsresearch.byu.edu")
        assert not summary.matches_hostname("evil.example")

    def test_key_fingerprint_tracks_key(self, origin_chain, root_ca, keystore):
        key = keystore.key("measure-site", 512)  # same pooled key
        other = root_ca.issue(
            Name.build(common_name="other.example"),
            SubjectPublicKeyInfo(key.n, key.e),
        )
        assert (
            summary_from(origin_chain).public_key_fingerprint
            == CertSummary.from_certificate(other).public_key_fingerprint
        )


def make_record(mismatch=True, country="US", ip="11.0.0.1", host="h", htype="Authors'"):
    leaf = CertSummary(
        subject_cn=host,
        subject_org=None,
        issuer_cn="CA",
        issuer_org="Org",
        issuer_ou=None,
        serial_number=1,
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint="f" * 64,
        public_key_fingerprint="k" * 64,
    )
    return MeasurementRecord(
        study=1,
        campaign="test",
        client_ip=ip,
        country=country,
        hostname=host,
        host_type=htype,
        mismatch=mismatch,
        leaf=leaf,
    )


class TestReportDatabase:
    def test_totals(self):
        db = ReportDatabase()
        db.add_mismatch(make_record())
        db.add_matched_bulk("US", "Authors'", "h", 99)
        assert db.total_measurements == 100
        assert db.proxied_rate == pytest.approx(0.01)

    def test_type_guards(self):
        db = ReportDatabase()
        with pytest.raises(ValueError):
            db.add_mismatch(make_record(mismatch=False))
        with pytest.raises(ValueError):
            db.add_matched_bulk("US", "t", "h", -1)

    def test_totals_by_country(self):
        db = ReportDatabase()
        db.add_mismatch(make_record(country="US"))
        db.add_mismatch(make_record(country="BR", ip="11.0.0.2"))
        db.add_matched_bulk("US", "Authors'", "h", 10)
        totals = db.totals_by_country()
        assert totals["US"] == (1, 11)
        assert totals["BR"] == (1, 1)

    def test_totals_by_host_type(self):
        db = ReportDatabase()
        db.add_mismatch(make_record(htype="Popular"))
        db.add_matched_bulk("US", "Popular", "h", 4)
        db.add_matched_bulk("US", "Business", "b", 5)
        totals = db.totals_by_host_type()
        assert totals["Popular"] == (1, 5)
        assert totals["Business"] == (0, 5)

    def test_distinct_ips(self):
        db = ReportDatabase()
        db.add_mismatch(make_record(ip="11.0.0.1"))
        db.add_mismatch(make_record(ip="11.0.0.1"))
        db.add_mismatch(make_record(ip="11.0.0.2"))
        assert db.distinct_proxied_ips() == 2

    def test_merge(self):
        a, b = ReportDatabase(), ReportDatabase()
        a.add_mismatch(make_record())
        b.add_matched_bulk("US", "Authors'", "h", 5)
        b.failures.policy_denied = 2
        deliver(database_ops(b), a)
        assert a.total_measurements == 6
        assert a.failures.policy_denied == 2

    def test_breakdown_caches_match_recomputation(self):
        """Incremental caches agree with a from-scratch rebuild."""
        from collections import Counter

        db = ReportDatabase()
        for i in range(40):
            db.add_mismatch(
                make_record(country="US" if i % 3 else "BR", ip=f"12.0.0.{i % 7}")
            )
        db.add_matched_bulk("US", "Popular", "h", 11)
        db.add_matched_bulk("BR", "Business", "b", 5)
        expected_country: Counter = Counter()
        for record in db.records:
            expected_country[record.country] += 1
        totals = db.totals_by_country()
        assert totals["US"] == (expected_country["US"], expected_country["US"] + 11)
        assert totals["BR"] == (expected_country["BR"], expected_country["BR"] + 5)
        assert db.distinct_proxied_ips() == len({r.client_ip for r in db.records})


def _nested_der(origin_chain, root_ca):
    # 3,000 nested SEQUENCEs (~11.8 KB): once enough to blow the
    # recursion limit in parse_certificate and earn a retryable 500.
    der = b""
    for _ in range(3000):
        der = b"\x30" + encode_length(len(der)) + der
    return [der]


# The next two chains parse: their extension values are malformed, and
# only decode when the chain check or the record summary first reads
# them.


def _bad_san_leaf(origin_chain, root_ca):
    truncated_san = Extension(OID_EXT_SUBJECT_ALT_NAME, False, bytes.fromhex("300582"))
    leaf = root_ca.issue(
        Name.build(common_name="tlsresearch.byu.edu"),
        origin_chain[0].tbs.public_key,
        extra_extensions=(truncated_san,),
    )
    return [leaf.raw]


def _non_digit_year_leaf(origin_chain, root_ca):
    # notBefore's UTCTime year "A4": int() raised a plain ValueError,
    # which no report handler caught, and the post drew a 500.
    raw = origin_chain[0].raw
    year = raw.index(b"\x17\x0d") + 2
    return [raw[:year] + b"A" + raw[year + 1 :], origin_chain[1].raw]


def _extension_without_value_leaf(origin_chain, root_ca):
    # The critical basicConstraints Extension SEQUENCE cut from 12 to 8
    # bytes: {OID, BOOLEAN}, the value OCTET STRING left outside.  The
    # parser indexed past the BOOLEAN, and IndexError drew a 500.
    raw = origin_chain[0].raw
    at = raw.index(bytes.fromhex("300c0603551d130101ff0402")) + 1
    return [raw[:at] + b"\x08" + raw[at + 1 :], origin_chain[1].raw]


def _bad_basic_constraints_intermediate(origin_chain, root_ca):
    intermediate = origin_chain[1]
    extensions = tuple(
        replace(ext, value=bytes.fromhex("300301"))
        if ext.oid == OID_EXT_BASIC_CONSTRAINTS
        else ext
        for ext in intermediate.tbs.extensions
    )
    tbs = replace(intermediate.tbs, extensions=extensions)
    bad = _sign_tbs(tbs, root_ca.key, hash_by_name("sha256"))
    return [origin_chain[0].raw, bad.raw]


class MeasurementWorld:
    """Origin site + reporting server + a client, fully wired."""

    def __init__(self, origin_chain, root_ca):
        from repro.population.model import ClientPopulation
        from repro.x509.store import RootStore

        self.network = Network()
        self.database = ReportDatabase()
        self.site = ProbeSite("tlsresearch.byu.edu", "Authors'")

        origin = self.network.add_host("tlsresearch.byu.edu", ip="203.0.113.10")
        origin.listen(443, TlsCertServer(origin_chain).factory)

        self.server = ReportingServer(
            self.database,
            geoip=None,
            study=1,
            public_roots=RootStore([root_ca.certificate]),
        )
        self.server.expect(
            "tlsresearch.byu.edu", origin_chain[0].fingerprint(), "Authors'"
        )
        self.combined = CombinedPolicyHttpServer(
            PolicyFile.permissive("443"), self.server.http
        )
        origin.listen(80, self.combined.factory)
        self.client = self.network.add_host("client.example", ip="11.0.0.5")
        self.tool = MeasurementTool()


class TestMeasurementToolWire:
    def test_clean_session_records_match(self, origin_chain, root_ca, monkeypatch):
        verdicts = []

        def judge(key):
            verdicts.append(_judge(key))
            return verdicts[-1]

        monkeypatch.setattr(server_module, "_judge", judge)
        world = MeasurementWorld(origin_chain, root_ca)
        outcome = drive(world.tool.session_task(world.client, [world.site]))
        assert outcome.reports_delivered == 1
        # A matched report is a count of one; no geoip, so country "??".
        assert world.database.matched_counts == {
            ("??", "Authors'", "tlsresearch.byu.edu"): 1
        }
        assert world.database.mismatch_count == 0
        [(leaf, _, mismatch, chain_valid)] = verdicts
        assert leaf.fingerprint == origin_chain[0].fingerprint()
        assert not mismatch
        assert chain_valid  # genuine chain validates publicly

    def test_policy_gate_blocks_unpolicied_host(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        # A host with TLS but no policy file anywhere.
        bare = world.network.add_host("bare.example")
        bare.listen(443, TlsCertServer(origin_chain).factory)
        outcome = drive(
            world.tool.session_task(world.client, [ProbeSite("bare.example", "Business")])
        )
        assert outcome.policy_denied == 1
        assert outcome.reports_delivered == 0

    def test_restrictive_policy_blocks(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        locked = world.network.add_host("locked.example")
        locked.listen(443, TlsCertServer(origin_chain).factory)
        from repro.policy.model import PolicyRule

        restrictive = PolicyFile((PolicyRule(domain="partner.example", to_ports="443"),))
        locked.listen(843, PolicyServer(restrictive).factory)
        outcome = drive(
            world.tool.session_task(world.client, [ProbeSite("locked.example", "Business")])
        )
        assert outcome.policy_denied == 1

    def test_report_rejected_for_unknown_host(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        http = HttpClient(world.client)
        response = http.request(
            "POST",
            "tlsresearch.byu.edu",
            "/report",
            body=b"junk",
            headers={"X-Probed-Host": "never-registered.example"},
        )
        assert response.status == 400

    def test_report_rejects_garbage_pem(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        http = HttpClient(world.client)
        response = http.request(
            "POST",
            "tlsresearch.byu.edu",
            "/report",
            body=b"-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----",
            headers={"X-Probed-Host": "tlsresearch.byu.edu"},
        )
        assert response.status == 400
        assert world.database.failures.report_failed == 1

    @pytest.mark.parametrize(
        "hostile_chain",
        [
            _nested_der,
            _bad_san_leaf,
            _bad_basic_constraints_intermediate,
            _non_digit_year_leaf,
            _extension_without_value_leaf,
        ],
        ids=[
            "nested-der",
            "bad-subject-alt-name",
            "bad-basic-constraints",
            "utctime-year-A4",
            "extension-without-value",
        ],
    )
    def test_deeply_nested_der_is_a_counted_rejection(
        self, origin_chain, root_ca, hostile_chain
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        body = "".join(pem_encode(der) for der in hostile_chain(origin_chain, root_ca))
        # Failures are never cached: the same hostile report sent twice
        # is parsed, rejected and counted twice.
        for _ in range(2):
            response = HttpClient(world.client).request(
                "POST",
                "tlsresearch.byu.edu",
                "/report",
                body=body.encode(),
                headers={"X-Probed-Host": "tlsresearch.byu.edu"},
            )
            assert response.status == 400
        assert world.database.failures.report_failed == 2
        counters = world.server.metrics.deterministic_snapshot()["counters"]
        assert counters["reports.rejected{reason=x509}"] == 2

    def test_combined_port_serves_policy_and_http(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        policy = fetch_policy(world.client, "tlsresearch.byu.edu", port=80)
        assert policy.is_permissive_for_tls
        response = HttpClient(world.client).get("tlsresearch.byu.edu", "/ad")
        assert response.ok

    def test_combined_port_counts_policy_requests_on_its_template(
        self, origin_chain, root_ca
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        for _ in range(3):
            fetch_policy(world.client, "tlsresearch.byu.edu", port=80)
        assert world.combined.policy_server.requests_served == 3


def _post_twice(world, body: bytes) -> list[int]:
    return [
        HttpClient(world.client)
        .request(
            "POST",
            "tlsresearch.byu.edu",
            "/report",
            body=body,
            headers={"X-Probed-Host": "tlsresearch.byu.edu"},
        )
        .status
        for _ in range(2)
    ]


def _rejected(world, reason: str) -> int:
    counters = world.server.metrics.deterministic_snapshot()["counters"]
    return counters.get(f"reports.rejected{{reason={reason}}}", 0)


def _ingest(world, *bodies: bytes, hostname="tlsresearch.byu.edu", remote=None, product=None):
    """Hand each body straight to the report handler; the statuses."""
    headers = {"x-probed-host": hostname}
    if product is not None:
        headers["x-sim-product"] = product
    return [
        world.server._ingest_report(
            HttpRequest("POST", "/report", headers=dict(headers), body=body), remote
        ).status
        for body in bodies
    ]


class TestReportLegMemos:
    """The wire leg derives once per distinct input and never remembers
    a failure: the same bad input is refused and counted every time."""

    def test_non_der_intermediate_is_a_counted_rejection(
        self, origin_chain, root_ca, non_der_intermediate
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        body = _pem_body((origin_chain[0].encode(), non_der_intermediate))
        assert _post_twice(world, body) == [400, 400]
        assert world.database.failures.report_failed == 2
        assert _rejected(world, "x509") == 2

    @pytest.mark.parametrize(
        "body,reason",
        [
            (b"-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----\n", "pem"),
            (b"", "empty"),
        ],
        ids=["garbage-pem", "empty"],
    )
    def test_failing_body_is_refused_every_time(
        self, origin_chain, root_ca, body, reason
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        misses = _judge.cache_info().misses
        assert _post_twice(world, body) == [400, 400]
        assert world.database.failures.report_failed == 2
        assert _rejected(world, reason) == 2
        assert _judge.cache_info().misses == misses + 2

    def test_bad_policy_is_denied_every_time(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        host = world.network.add_host("bad-policy.example")
        host.listen(443, TlsCertServer(origin_chain).factory)

        class Garbage(PolicyServer):
            def data_received(self, sock, data):
                sock.send(b"<cross-domain-policy>\x00")
                sock.close()

        host.listen(843, lambda: Garbage(PolicyFile()))
        site = ProbeSite("bad-policy.example", "Business")
        misses = _parse_policy.cache_info().misses
        outcome = drive(world.tool.session_task(world.client, [site, site]))
        assert outcome.policy_denied == 2
        assert _parse_policy.cache_info().misses == misses + 2

    def test_report_memo_stays_within_its_bound(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        pem = _pem_body(tuple(c.encode() for c in origin_chain))
        # Text outside the PEM blocks is ignored, so each body is a
        # distinct key for the same chain.
        bodies = [b"report %d\n" % index + pem for index in range(REPORT_VERDICTS + 3)]
        _judge.cache_clear()
        assert _ingest(world, *bodies) == [200] * len(bodies)
        assert _judge.cache_info().currsize == REPORT_VERDICTS
        hits, misses = _judge.cache_info()[:2]
        # The newest is kept; the oldest went first.
        assert _ingest(world, bodies[-1], bodies[0]) == [200, 200]
        assert _judge.cache_info()[:2] == (hits + 1, misses + 1)

    def test_oversized_body_is_decoded_but_not_cached(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        pem = _pem_body(tuple(c.encode() for c in origin_chain))
        oversized = b"x" * _judge.max_key_bytes + b"\n" + pem
        _judge.cache_clear()
        assert _ingest(world, oversized, oversized) == [200, 200]
        assert _judge.cache_info()[:2] == (0, 2)
        assert _judge.cache_info().currsize == 0
        assert world.database.matched_count == 2
        assert _ingest(world, pem) == [200]
        assert _judge.cache_info().currsize == 1

    def test_pem_memo_stays_within_its_bound(self):
        for index in range(PEM_BODY_CACHE_SIZE + 3):
            _pem_body((b"der %d" % index,))
        info = _pem_body.cache_info()
        assert info.currsize == info.maxsize == PEM_BODY_CACHE_SIZE

    def test_oversized_chain_is_encoded_but_not_cached(self):
        half = _pem_body.max_key_bytes // 2
        chain = (b"\x30" * half, b"\x31" * (half + 1))
        currsize = _pem_body.cache_info().currsize
        body = _pem_body(chain)
        assert body == "".join(pem_encode(der) for der in chain).encode("ascii")
        assert _pem_body(chain) is not body
        assert _pem_body.cache_info().currsize == currsize


class TestReportVerdicts:
    """Each distinct report is judged once per (hostname, expected leaf,
    root store generation): the key holds everything the judgement reads."""

    @staticmethod
    def genuine(origin_chain) -> bytes:
        return _pem_body(tuple(c.encode() for c in origin_chain))

    def test_repeated_report_is_judged_once(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        hits, misses = _judge.cache_info()[:2]
        assert _ingest(world, *[self.genuine(origin_chain)] * 3) == [200] * 3
        assert _judge.cache_info()[:2] == (hits + 2, misses + 1)
        assert world.database.matched_count == 3

    def test_the_hostname_is_part_of_the_key(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        world.server.expect("other.example", "0" * 64, "Business")
        body = self.genuine(origin_chain)
        assert _ingest(world, body) == [200]
        assert _ingest(world, body, hostname="other.example") == [200]
        assert world.database.matched_count == 1
        [record] = world.database.records
        assert (record.hostname, record.mismatch, record.chain_valid) == (
            "other.example",
            True,
            False,
        )

    def test_expect_judges_again(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        body = self.genuine(origin_chain)
        assert _ingest(world, body) == [200]
        world.server.expect("tlsresearch.byu.edu", "0" * 64, "Authors'")
        assert _ingest(world, body) == [200]
        assert (world.database.matched_count, world.database.mismatch_count) == (1, 1)

    def test_a_root_change_flips_chain_valid_on_the_next_identical_report(
        self, origin_chain, root_ca
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        server = world.server
        # Every report is a mismatch, so every record lands in ``records``.
        server.expect("tlsresearch.byu.edu", "0" * 64, "Authors'")
        body = self.genuine(origin_chain)
        roots = server.public_roots
        assert _ingest(world, body) == [200]
        roots.remove(root_ca.certificate)
        assert _ingest(world, body) == [200]
        roots.inject(root_ca.certificate)
        assert _ingest(world, body) == [200]
        server.public_roots = RootStore()
        assert _ingest(world, body) == [200]
        server.public_roots = None
        assert _ingest(world, body) == [200]
        assert [record.chain_valid for record in world.database.records] == [
            True,
            False,
            True,
            False,
            False,
        ]

    def test_each_report_keeps_its_own_client_country_and_product(
        self, origin_chain, root_ca
    ):
        world = MeasurementWorld(origin_chain, root_ca)
        geoip = GeoIpDatabase()
        geoip.add_range("11.0.0.0", "11.0.0.255", "BR")
        geoip.add_range("12.0.0.0", "12.0.0.255", "US")
        geoip.freeze()
        world.server.geoip = geoip
        world.server.expect("tlsresearch.byu.edu", "0" * 64, "Authors'")
        body = self.genuine(origin_chain)
        sent = [("11.0.0.7", "avast"), ("12.0.0.9", None), ("13.0.0.1", "kaspersky")]
        for index, (ip, product) in enumerate(sent):
            client = world.network.add_host(f"reporter-{index}.example", ip=ip)
            assert _ingest(world, body, remote=client, product=product) == [200]
        assert [
            (record.client_ip, record.country, record.product_key)
            for record in world.database.records
        ] == [
            ("11.0.0.7", "BR", "avast"),
            ("12.0.0.9", "US", None),
            ("13.0.0.1", None, "kaspersky"),
        ]

    def test_the_fault_hook_runs_before_the_store(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        body = self.genuine(origin_chain)
        assert _ingest(world, body) == [200]
        seen = []

        def hook(request, remote):
            seen.append(request.headers["x-probed-host"])
            return HttpResponse(503)

        world.server.fault_hook = hook
        hits = _judge.cache_info().hits
        assert _ingest(world, body) == [503]
        assert _ingest(world, body, hostname="never-registered.example") == [503]
        assert seen == ["tlsresearch.byu.edu", "never-registered.example"]
        assert _judge.cache_info().hits == hits
        assert world.database.matched_count == 1
        assert _rejected(world, "unknown-host") == 0

    def test_servers_on_one_root_store_share_verdicts(self, origin_chain, root_ca):
        world = MeasurementWorld(origin_chain, root_ca)
        first = world.server
        second = ReportingServer(
            ReportDatabase(), geoip=None, study=1, public_roots=first.public_roots
        )
        hostname = "tlsresearch.byu.edu"
        second.expect(hostname, first.expected_leaves[hostname], "Authors'")
        body = self.genuine(origin_chain)
        assert _ingest(world, body) == [200]
        hits, misses = _judge.cache_info()[:2]
        assert second._ingest_report(
            HttpRequest("POST", "/report", headers={"x-probed-host": hostname}, body=body),
            None,
        ).status == 200
        assert _judge.cache_info()[:2] == (hits + 1, misses)
        assert second.sink.matched_count == 1
        # Another expected leaf is another key, and so is a root change.
        first.expect(hostname, "0" * 64, "Authors'")
        assert _ingest(world, body) == [200]
        assert _judge.cache_info()[:2] == (hits + 1, misses + 1)
        first.public_roots.inject(root_ca.certificate)
        assert _ingest(world, body) == [200]
        assert _judge.cache_info()[:2] == (hits + 1, misses + 2)
        assert world.database.mismatch_count == 2


class TestAdwords:
    def test_study2_campaign_totals_near_paper(self):
        rng = random.Random(1)
        outcomes = run_study2_campaigns(rng)
        by_name = {o.name: o for o in outcomes}
        for calibration in STUDY2_CAMPAIGNS:
            outcome = by_name[calibration.name]
            assert outcome.impressions == pytest.approx(
                calibration.impressions, rel=0.15
            )
            assert outcome.clicks == pytest.approx(calibration.clicks, rel=0.3)
            assert outcome.cost_usd == pytest.approx(calibration.cost_usd, rel=0.15)

    def test_study1_campaign_totals_near_paper(self):
        outcome = AdCampaign.study1().run(random.Random(2))
        assert outcome.impressions == pytest.approx(4634386, rel=0.15)
        assert outcome.cost_usd == pytest.approx(4911.97, rel=0.15)
        assert len(outcome.days) == 24

    def test_geo_target_carried(self):
        rng = random.Random(3)
        outcomes = run_study2_campaigns(rng)
        targets = {o.name: o.geo_target for o in outcomes}
        assert targets["China"] == "CN"
        assert targets["Global"] is None

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            AdCampaign.study1().run(random.Random(0), scale=0.0)

    def test_effective_cpm_sane(self):
        outcome = AdCampaign.study1().run(random.Random(4))
        assert 0.5 < outcome.effective_cpm < 2.0
