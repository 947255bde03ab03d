"""Edge-case tests for the MitM engine and supporting layers."""

import datetime as dt
import random
from dataclasses import replace

import pytest

from repro.crypto.keystore import KeyStore, shared_keystore
from repro.data.keywords import STUDY1_KEYWORDS, STUDY2_KEYWORDS, keywords_for_study
from repro.data.products import catalog
from repro.netsim import Network
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import (
    DEFECT_PROTOCOL_DOWNGRADE,
    ForgedUpstreamPolicy,
    ProxyCategory,
    ProxyProfile,
    UpstreamHelloPolicy,
)
from repro.tls import codec
from repro.tls.codec import ClientHello
from repro.tls.fingerprint import BROWSER_PROFILES
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore
from repro.x509.model import SubjectPublicKeyInfo


@pytest.fixture(scope="module")
def forger():
    return SubstituteCertForger(KeyStore(seed=71), seed=71)


@pytest.fixture(scope="module")
def origin_chain(intermediate_ca, keystore):
    key = keystore.key("edge-site", 512)
    leaf = intermediate_ca.issue(
        Name.build(common_name="edge.example", organization="Edge"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["edge.example", "alias.example"],
    )
    return [leaf, intermediate_ca.certificate]


def proxied_world(profile, origin_chain, trust, forger, origin_version=codec.TLS_1_2):
    network = Network()
    client = network.add_host("victim.example")
    origin = network.add_host("edge.example", ip="203.0.113.42")
    origin.listen(443, TlsCertServer(origin_chain, max_version=origin_version).factory)
    engine = TlsProxyEngine(
        profile, forger, upstream_host=client, upstream_trust=trust
    )
    client.add_interceptor(engine)
    return network, client, engine


def default_profile(**overrides):
    base = dict(
        key="edge-product",
        issuer=Name.build(common_name="Edge CA", organization="EdgeProduct"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    base.update(overrides)
    return ProxyProfile(**base)


class TestEngineEdgeCases:
    def test_sni_differs_from_destination(
        self, forger, origin_chain, root_ca
    ):
        """The proxy keys interception on the SNI name, not the TCP peer."""
        profile = default_profile(whitelist=frozenset({"alias.example"}))
        network, client, engine = proxied_world(
            profile, origin_chain, RootStore([root_ca.certificate]), forger
        )
        # Destination edge.example, SNI alias.example (whitelisted).
        sock = client.connect("edge.example", 443)
        hello = ClientHello(
            client_random=random.Random(1).getrandbits(256).to_bytes(32, "big"),
            server_name="alias.example",
        )
        sock.send(codec.encode_handshake_record(hello))
        records, _ = codec.decode_records(sock.recv())
        messages, _ = codec.decode_handshakes(
            b"".join(
                r.payload
                for r in records
                if r.content_type == codec.CONTENT_HANDSHAKE
            )
        )
        der = next(
            codec.Certificate.from_body(m.body).der_chain
            for m in messages
            if m.msg_type == codec.HS_CERTIFICATE
        )
        assert der[0] == origin_chain[0].encode()  # relayed, not forged
        assert engine.whitelisted == 1

    def test_garbage_from_client_closes_connection(
        self, forger, origin_chain, root_ca
    ):
        network, client, engine = proxied_world(
            default_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("edge.example", 443)
        sock.send(b"\x99\x99not tls at all")
        records, _ = codec.decode_records(sock.recv())
        assert records and records[0].content_type == codec.CONTENT_ALERT
        assert codec.Alert.from_payload(records[0].payload) == codec.Alert(
            2, codec.ALERT_HANDSHAKE_FAILURE
        )
        assert sock.closed

    def test_second_client_hello_ignored(self, forger, origin_chain, root_ca):
        network, client, engine = proxied_world(
            default_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        sock = client.connect("edge.example", 443)
        hello = ClientHello(
            client_random=bytes(32), server_name="edge.example"
        )
        sock.send(codec.encode_handshake_record(hello))
        first_flight = sock.recv()
        sock.send(codec.encode_handshake_record(hello))
        second_flight = sock.recv()
        assert first_flight  # served once
        assert second_flight == b""  # renegotiation not entertained
        assert engine.intercepted == 1

    def test_expired_upstream_counts_as_forged(
        self, forger, keystore, intermediate_ca, root_ca
    ):
        """A stale origin certificate fails the proxy's validation and is
        treated per the forged-upstream policy."""
        key = keystore.key("expired-site", 512)
        expired = intermediate_ca.issue(
            Name.build(common_name="edge.example"),
            SubjectPublicKeyInfo(key.n, key.e),
            dns_names=["edge.example"],
            not_before=dt.datetime(2010, 1, 1, tzinfo=dt.timezone.utc),
            not_after=dt.datetime(2011, 1, 1, tzinfo=dt.timezone.utc),
        )
        network, client, engine = proxied_world(
            default_profile(forged_upstream=ForgedUpstreamPolicy.BLOCK),
            [expired, intermediate_ca.certificate],
            RootStore([root_ca.certificate]),
            forger,
        )
        result = ProbeClient(client).probe("edge.example", 443)
        assert not result.ok
        assert engine.blocked_forged_upstream == 1

    def test_forged_upstream_policies_counted_exclusively(
        self, forger, origin_chain, root_ca
    ):
        network, client, engine = proxied_world(
            default_profile(), origin_chain, RootStore([root_ca.certificate]), forger
        )
        ProbeClient(client).probe("edge.example", 443)
        assert engine.intercepted == 1
        assert engine.blocked_forged_upstream == 0
        assert engine.masked_forged_upstream == 0
        assert engine.whitelisted == 0


class TestNonAsciiSni:
    """A host_name byte above 0x7F yields no name, so the engine targets the destination."""

    def _hellos(self):
        ascii_name, name = b"cafe.example", b"caf\xe9.example"
        plain = ClientHello(bytes(32), server_name=ascii_name.decode())
        browsers = (
            profile.client_hello(bytes(32), ascii_name.decode(), b"")
            for profile in BROWSER_PROFILES.values()
        )
        for hello in (plain, *browsers):
            record = codec.encode_handshake_record(hello, version=hello.version)
            assert record.count(ascii_name) == 1
            yield record.replace(ascii_name, name)

    def test_every_catalog_product_answers_without_raising(self, origin_chain, root_ca):
        forger = SubstituteCertForger(KeyStore(seed=72), seed=72)
        hellos = list(self._hellos())
        targets = set()
        for spec in catalog():
            # 512-bit CA keys keep keygen cheap; the hello policy stays.
            profile = replace(spec.profile, ca_key_bits=512)
            network, client, engine = proxied_world(
                profile, origin_chain, RootStore([root_ca.certificate]), forger
            )
            for record in hellos:
                sock = client.connect("edge.example", 443)
                sock.send(record)
                records, _ = codec.decode_records(sock.recv())
                assert records[0].content_type in (
                    codec.CONTENT_HANDSHAKE,
                    codec.CONTENT_ALERT,
                ), spec.key
            targets.update(
                dict(event.detail)["target"]
                for event in engine.events.records
                if event.event == "client-hello"
            )
        assert targets == {"edge.example"}


class TestTls13Origin:
    """The engine observes the version a TLS 1.3 origin selected, not its legacy field."""

    def _intercept(self, profile, origin_chain, root_ca, forger):
        network, client, engine = proxied_world(
            profile,
            origin_chain,
            RootStore([root_ca.certificate]),
            forger,
            origin_version=codec.TLS_1_3,
        )
        hello = BROWSER_PROFILES["chrome-2020"].client_hello(bytes(32), "edge.example")
        sock = client.connect("edge.example", 443)
        sock.send(codec.encode_handshake_record(hello, version=hello.version))
        sock.recv()
        return engine

    def test_upstream_certificate_logs_tls13(self, forger, origin_chain, root_ca):
        profile = default_profile(
            upstream_hello=UpstreamHelloPolicy.MIMIC, max_tls_version=codec.TLS_1_3
        )
        engine = self._intercept(profile, origin_chain, root_ca, forger)
        observed = [
            dict(event.detail)["version"]
            for event in engine.events.records
            if event.event == "upstream-certificate"
        ]
        assert observed == ["TLSv1.3"]
        assert engine.intercepted == 1

    def test_tls13_floor_notices_no_downgrade(self, forger, origin_chain, root_ca):
        profile = default_profile(
            upstream_hello=UpstreamHelloPolicy.MIMIC,
            max_tls_version=codec.TLS_1_3,
            min_tls_version=codec.TLS_1_3,
        )
        assert profile.notices_defect(DEFECT_PROTOCOL_DOWNGRADE)
        engine = self._intercept(profile, origin_chain, root_ca, forger)
        assert engine.blocked_forged_upstream == 0
        assert engine.intercepted == 1
        assert not [event for event in engine.events.records if event.event == "blocked"]


class TestSharedKeystore:
    def test_memoised_per_seed(self):
        """Every seed gets exactly one process-wide store — mismatched
        -seed callers amortise keygen too, instead of the old
        first-caller-wins behaviour handing them throwaway stores."""
        import repro.crypto.keystore as keystore_module

        keystore_module._SHARED.clear()
        first = shared_keystore(seed=5)
        assert shared_keystore(seed=5) is first
        other = shared_keystore(seed=6)
        assert other is not first
        assert shared_keystore(seed=6) is other
        assert shared_keystore(seed=5) is first
        keystore_module._SHARED.clear()


class TestKeywords:
    def test_study_keyword_sets(self):
        assert keywords_for_study(1) == STUDY1_KEYWORDS
        assert keywords_for_study(2) == STUDY2_KEYWORDS
        assert "Snowden" in STUDY1_KEYWORDS
        assert "TLS Proxies" in STUDY2_KEYWORDS  # the authors' easter egg

    def test_invalid_study(self):
        with pytest.raises(ValueError):
            keywords_for_study(3)

    def test_campaigns_carry_keywords(self):
        from repro.adwords import AdCampaign
        from repro.data.countries import STUDY2_CAMPAIGNS

        assert AdCampaign.study1().keywords == STUDY1_KEYWORDS
        campaign = AdCampaign.from_calibration(STUDY2_CAMPAIGNS[0])
        assert campaign.keywords == STUDY2_KEYWORDS


class TestX509ParserEdgeCases:
    def test_multi_attribute_rdn_parses(self):
        """Some real names pack several attributes into one RDN SET."""
        from repro.asn1 import oids
        from repro.asn1.types import (
            ObjectIdentifier,
            Sequence,
            Set,
            Utf8String,
            decode,
        )
        from repro.x509.parse import parse_name

        multi_rdn = Sequence(
            [
                Set(
                    [
                        Sequence(
                            [ObjectIdentifier(oids.OID_ORGANIZATION), Utf8String("O1")]
                        ),
                        Sequence(
                            [ObjectIdentifier(oids.OID_COMMON_NAME), Utf8String("CN1")]
                        ),
                    ]
                )
            ]
        )
        decoded, rest = decode(multi_rdn.encode())
        assert rest == b""
        name = parse_name(decoded)
        assert name.organization == "O1"
        assert name.common_name == "CN1"

    def test_generalized_time_validity_parses(
        self, root_ca, keystore
    ):
        """Roots often use GeneralizedTime; the parser must accept it."""
        import datetime as dtm

        from repro.asn1.types import GeneralizedTime, Sequence
        from repro.x509.model import Validity
        from repro.x509.parse import _parse_validity

        seq = Sequence(
            [
                GeneralizedTime(dtm.datetime(2050, 1, 1, tzinfo=dtm.timezone.utc)),
                GeneralizedTime(dtm.datetime(2060, 1, 1, tzinfo=dtm.timezone.utc)),
            ]
        )
        from repro.asn1.types import decode

        decoded, _ = decode(seq.encode())
        validity = _parse_validity(decoded)
        assert isinstance(validity, Validity)
        assert validity.not_before.year == 2050

    def test_teletex_name_attribute(self):
        from repro.asn1 import oids
        from repro.asn1.types import (
            ObjectIdentifier,
            Sequence,
            Set,
            TeletexString,
            decode,
        )
        from repro.x509.parse import parse_name

        name_seq = Sequence(
            [
                Set(
                    [
                        Sequence(
                            [
                                ObjectIdentifier(oids.OID_ORGANIZATION),
                                TeletexString("Ol\xe9 Corp"),
                            ]
                        )
                    ]
                )
            ]
        )
        decoded, _ = decode(name_seq.encode())
        assert parse_name(decoded).organization == "Ol\xe9 Corp"
