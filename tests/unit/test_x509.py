"""Unit tests for the X.509 model, codec, issuance and validation."""

import datetime as dt

import pytest

from repro.asn1 import oids
from repro.crypto.keystore import KeyStore
from repro.x509 import (
    CertificateAuthority,
    Name,
    RootStore,
    SelfSignedParams,
    X509Error,
    collect_chain_defects,
    parse_certificate,
    pem_decode,
    pem_decode_all,
    pem_encode,
    validate_chain,
    verify_certificate_signature,
)
from repro.x509.model import Certificate, SubjectPublicKeyInfo, Validity
from repro.util import memo_counts
from repro.x509.parse import PARSE_CACHE_MAX_DER, PARSE_CACHE_SIZE, _parse_der
from repro.x509.pem import PemError
from repro.x509.store import VERDICT_MEMO_SIZE
from repro.x509.verify import DEFECT_BAD_SIGNATURE


def chain_memo_counts() -> tuple[int, int]:
    """Process-wide (hits, misses) of every root store's chain verdicts."""
    counts = memo_counts()
    return counts["x509.chain_memo.hits"], counts["x509.chain_memo.misses"]


@pytest.fixture(scope="module")
def site_cert(intermediate_ca, keystore):
    key = keystore.key("site", 512)
    return intermediate_ca.issue(
        Name.build(common_name="tlsresearch.byu.edu", organization="BYU"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["tlsresearch.byu.edu", "www.tlsresearch.byu.edu"],
    )


class TestName:
    def test_build_and_accessors(self):
        name = Name.build(
            common_name="example.com", organization="Example Corp", country="US"
        )
        assert name.common_name == "example.com"
        assert name.organization == "Example Corp"
        assert name.country == "US"
        assert name.organizational_unit is None

    def test_rfc4514_rendering(self):
        name = Name.build(common_name="a", organization="b")
        assert name.rfc4514() == "O=b, CN=a"

    def test_empty_name_is_null_issuer(self):
        name = Name()
        assert name.is_empty
        assert name.rfc4514() == ""
        assert name.organization is None

    def test_encode_decode_round_trip(self):
        from repro.asn1.types import decode
        from repro.x509.parse import parse_name

        name = Name.build(common_name="x", organization="y", country="US")
        decoded, rest = decode(name.encode())
        assert rest == b""
        assert parse_name(decoded) == name


class TestIssuance:
    def test_self_signed_root_verifies_itself(self, root_ca):
        assert verify_certificate_signature(root_ca.certificate, root_ca.certificate)

    def test_root_is_ca(self, root_ca):
        assert root_ca.certificate.is_ca

    def test_leaf_is_not_ca(self, site_cert):
        assert not site_cert.is_ca

    def test_issued_cert_fields(self, site_cert, intermediate_ca):
        assert site_cert.subject.common_name == "tlsresearch.byu.edu"
        assert site_cert.issuer == intermediate_ca.name
        assert site_cert.public_key_bits == 512
        assert site_cert.signature_algorithm == "sha256WithRSAEncryption"
        assert site_cert.serial_number > 0

    def test_dns_names(self, site_cert):
        assert site_cert.dns_names == [
            "tlsresearch.byu.edu",
            "www.tlsresearch.byu.edu",
        ]
        # Memoised, but every caller still gets a list of its own.
        site_cert.dns_names.append("evil.example")
        assert site_cert.dns_names == [
            "tlsresearch.byu.edu",
            "www.tlsresearch.byu.edu",
        ]

    def test_issue_with_md5(self, root_ca, keystore):
        key = keystore.key("md5-leaf", 512)
        cert = root_ca.issue(
            Name.build(common_name="weak.example"),
            SubjectPublicKeyInfo(key.n, key.e),
            hash_name="md5",
        )
        assert cert.signature_algorithm == "md5WithRSAEncryption"
        assert verify_certificate_signature(cert, root_ca.certificate)

    def test_serial_numbers_unique(self, root_ca, keystore):
        key = keystore.key("serial-test", 512)
        spki = SubjectPublicKeyInfo(key.n, key.e)
        serials = {
            root_ca.issue(Name.build(common_name=f"s{i}.example"), spki).serial_number
            for i in range(10)
        }
        assert len(serials) == 10


class TestParse:
    def test_round_trip_preserves_bytes(self, site_cert):
        parsed = parse_certificate(site_cert.encode())
        assert parsed.encode() == site_cert.encode()
        assert parsed.fingerprint() == site_cert.fingerprint()

    def test_parsed_fields_match(self, site_cert):
        parsed = parse_certificate(site_cert.encode())
        assert parsed.subject == site_cert.subject
        assert parsed.issuer == site_cert.issuer
        assert parsed.serial_number == site_cert.serial_number
        assert parsed.public_key_bits == site_cert.public_key_bits
        assert parsed.signature == site_cert.signature
        assert parsed.tbs.validity == site_cert.tbs.validity

    def test_parsed_signature_still_verifies(self, site_cert, intermediate_ca):
        parsed = parse_certificate(site_cert.encode())
        assert verify_certificate_signature(parsed, intermediate_ca.certificate)

    def test_truncated_rejected(self, site_cert):
        with pytest.raises(X509Error):
            parse_certificate(site_cert.encode()[:40])

    def test_trailing_bytes_rejected(self, site_cert):
        with pytest.raises(X509Error, match="trailing"):
            parse_certificate(site_cert.encode() + b"\x00")

    def test_garbage_rejected(self):
        with pytest.raises(X509Error):
            parse_certificate(b"not a certificate")

    def test_non_sequence_rejected(self):
        from repro.asn1.types import Integer

        with pytest.raises(X509Error, match="expected Sequence"):
            parse_certificate(Integer(5).encode())

    # asn1.types.Set subclasses Sequence; a SET outer tag (0x31) parsed,
    # and the fingerprint covered bytes no CA signed.
    def test_set_is_not_a_certificate(self, site_cert):
        der = site_cert.encode()
        assert der[0] == 0x30
        with pytest.raises(X509Error, match="expected Sequence for Certificate"):
            parse_certificate(b"\x31" + der[1:])

    def test_set_is_not_a_tbs_certificate(self, site_cert):
        der = site_cert.encode()
        start = der.index(site_cert.tbs_der)
        assert der[start] == 0x30
        with pytest.raises(X509Error, match="expected Sequence for TBSCertificate"):
            parse_certificate(der[:start] + b"\x31" + der[start + 1 :])


class TestStrictDer:
    """Fields BER accepts and DER forbids are refused, not re-encoded."""

    def test_non_der_intermediate_is_refused(self, non_der_intermediate):
        # The CA flag's BOOLEAN sits in an extension value, which
        # decodes on first access; the rest fail the certificate parse.
        with pytest.raises(X509Error):
            parse_certificate(non_der_intermediate).is_ca

    def test_primitive_extensions_tag_is_refused(self, intermediate_ca):
        der = intermediate_ca.certificate.encode()
        block = intermediate_ca.certificate.tbs.to_asn1().items[-1].encode()
        assert block[0] == 0xA3 and der.count(block) == 1
        with pytest.raises(X509Error, match=r"extensions \[3\]"):
            parse_certificate(der.replace(block, b"\x83" + block[1:]))


class TestPem:
    def test_round_trip(self, site_cert):
        pem = pem_encode(site_cert.encode())
        assert pem.startswith("-----BEGIN CERTIFICATE-----")
        assert pem_decode(pem) == site_cert.encode()

    def test_concatenated_chain(self, site_cert, root_ca):
        blob = pem_encode(site_cert.encode()) + pem_encode(root_ca.certificate.encode())
        decoded = pem_decode_all(blob)
        assert decoded == [site_cert.encode(), root_ca.certificate.encode()]

    def test_lines_are_wrapped(self, site_cert):
        pem = pem_encode(site_cert.encode())
        for line in pem.splitlines():
            assert len(line) <= 64

    def test_unterminated_rejected(self):
        with pytest.raises(PemError, match="unterminated"):
            pem_decode_all("-----BEGIN CERTIFICATE-----\nYWJj\n")

    def test_end_without_begin_rejected(self):
        with pytest.raises(PemError):
            pem_decode_all("-----END CERTIFICATE-----\n")

    def test_bad_base64_rejected(self):
        text = "-----BEGIN CERTIFICATE-----\n!!!\n-----END CERTIFICATE-----\n"
        with pytest.raises(PemError, match="base64"):
            pem_decode_all(text)

    def test_decode_one_rejects_many(self, site_cert):
        blob = pem_encode(site_cert.encode()) * 2
        with pytest.raises(PemError, match="exactly one"):
            pem_decode(blob)


class TestHostnameMatching:
    def test_exact_match(self, site_cert):
        assert site_cert.matches_hostname("tlsresearch.byu.edu")

    def test_mismatch(self, site_cert):
        assert not site_cert.matches_hostname("evil.example")

    def test_wildcard(self, root_ca, keystore):
        key = keystore.key("wild", 512)
        cert = root_ca.issue(
            Name.build(common_name="*.example.com"),
            SubjectPublicKeyInfo(key.n, key.e),
        )
        assert cert.matches_hostname("www.example.com")
        assert not cert.matches_hostname("example.com")
        assert not cert.matches_hostname("a.b.example.com")


class TestChainValidation:
    def test_valid_chain(self, site_cert, intermediate_ca, root_ca, now):
        store = RootStore([root_ca.certificate])
        result = validate_chain(
            [site_cert, intermediate_ca.certificate],
            store,
            hostname="tlsresearch.byu.edu",
            at_time=now,
        )
        assert result.valid
        assert result.trust_root.fingerprint() == root_ca.certificate.fingerprint()
        assert not result.trusted_via_injected_root

    def test_untrusted_root_rejected(self, site_cert, intermediate_ca, now):
        result = validate_chain(
            [site_cert, intermediate_ca.certificate], RootStore(), at_time=now
        )
        assert not result.valid
        assert "no trusted root" in result.reason

    def test_injected_root_flagged(self, site_cert, intermediate_ca, root_ca, now):
        store = RootStore()
        store.inject(root_ca.certificate)
        result = validate_chain(
            [site_cert, intermediate_ca.certificate], store, at_time=now
        )
        assert result.valid
        assert result.trusted_via_injected_root

    def test_hostname_mismatch_fails(self, site_cert, intermediate_ca, root_ca, now):
        store = RootStore([root_ca.certificate])
        result = validate_chain(
            [site_cert, intermediate_ca.certificate],
            store,
            hostname="other.example",
            at_time=now,
        )
        assert not result.valid
        assert "hostname" in result.reason

    def test_expired_cert_fails(self, site_cert, intermediate_ca, root_ca):
        store = RootStore([root_ca.certificate])
        result = validate_chain(
            [site_cert, intermediate_ca.certificate],
            store,
            at_time=dt.datetime(2030, 1, 1, tzinfo=dt.timezone.utc),
        )
        assert not result.valid
        assert "validity" in result.reason

    def test_broken_chain_order_fails(self, site_cert, root_ca, now):
        # Missing intermediate: leaf's issuer is not in the store.
        store = RootStore([root_ca.certificate])
        result = validate_chain([site_cert], store, at_time=now)
        assert not result.valid

    def test_empty_chain(self, root_ca):
        assert not validate_chain([], RootStore([root_ca.certificate]))

    def test_intermediate_without_ca_flag_fails(
        self, root_ca, keystore, now
    ):
        # Issue a "CA" without the CA bit, then use it to sign a leaf.
        bad_int_key = keystore.key("bad-intermediate", 512)
        bad_int_cert = root_ca.issue(
            Name.build(common_name="Bad Intermediate"),
            SubjectPublicKeyInfo(bad_int_key.n, bad_int_key.e),
            is_ca=False,
        )
        bad_ca = CertificateAuthority(bad_int_cert, bad_int_key)
        leaf_key = keystore.key("bad-leaf", 512)
        leaf = bad_ca.issue(
            Name.build(common_name="victim.example"),
            SubjectPublicKeyInfo(leaf_key.n, leaf_key.e),
        )
        store = RootStore([root_ca.certificate])
        result = validate_chain([leaf, bad_int_cert], store, at_time=now)
        assert not result.valid
        assert any("CA flag" in error for error in result.errors)

    def test_tampered_leaf_signature_fails(
        self, site_cert, intermediate_ca, root_ca, now
    ):
        from repro.x509.model import Certificate

        tampered = Certificate(
            tbs=site_cert.tbs,
            signature_oid=site_cert.signature_oid,
            signature=bytes(64),
        )
        store = RootStore([root_ca.certificate])
        result = validate_chain(
            [tampered, intermediate_ca.certificate], store, at_time=now
        )
        assert not result.valid
        assert any("signature" in error for error in result.errors)


class TestRootStore:
    def test_copy_is_independent(self, root_ca, keystore):
        store = RootStore([root_ca.certificate])
        clone = store.copy()
        extra_key = keystore.key("extra-root", 512)
        extra = CertificateAuthority.self_signed(
            SelfSignedParams(subject=Name.build(common_name="Extra"), key=extra_key)
        )
        clone.inject(extra.certificate)
        assert not store.contains(extra.certificate)
        assert clone.contains(extra.certificate)
        assert clone.injected_count == 1
        assert store.injected_count == 0

    def test_remove(self, root_ca):
        store = RootStore([root_ca.certificate])
        store.remove(root_ca.certificate)
        assert len(store) == 0

    def test_find_issuer_roots(self, site_cert, intermediate_ca, root_ca):
        store = RootStore([root_ca.certificate])
        assert store.find_issuer_roots(intermediate_ca.certificate) == [
            root_ca.certificate
        ]
        assert store.find_issuer_roots(site_cert) == []


class TestCertificateMemoisation:
    """encode()/fingerprint() are memoised on the frozen dataclass."""

    def test_encode_returns_raw_and_is_cached(self, root_ca):
        cert = root_ca.certificate
        assert cert.encode() == cert.raw
        assert cert.encode() is cert.encode()  # same object, no re-encode

    def test_fingerprint_matches_fresh_hash(self, root_ca):
        import hashlib

        cert = root_ca.certificate
        fresh = hashlib.sha256(cert.to_asn1().encode()).hexdigest()
        assert cert.fingerprint() == fresh
        assert cert.fingerprint() is cert.fingerprint()

    def test_memo_survives_pickling(self, root_ca):
        import pickle

        cert = root_ca.certificate
        fingerprint = cert.fingerprint()
        clone = pickle.loads(pickle.dumps(cert))
        assert clone == cert
        assert clone.fingerprint() == fingerprint
        assert clone.encode() == cert.encode()

    def test_rawless_certificate_encodes_consistently(self, root_ca):
        from dataclasses import replace

        cert = root_ca.certificate
        bare = replace(cert, raw=b"")
        assert bare.encode() == cert.encode()
        assert bare.fingerprint() == cert.fingerprint()


class TestParseCache:
    def test_equal_der_yields_the_same_object(self, site_cert):
        der = site_cert.encode()
        first = parse_certificate(bytes(bytearray(der)))
        assert parse_certificate(der) is first
        assert parse_certificate(bytearray(der)) is first

    def test_failures_are_not_cached(self, site_cert):
        truncated = site_cert.encode()[:40]
        for _ in range(2):
            misses = _parse_der.cache_info().misses
            with pytest.raises(X509Error):
                parse_certificate(truncated)
            assert _parse_der.cache_info().misses == misses + 1

    def test_oversized_der_is_parsed_but_not_cached(
        self, site_cert, intermediate_ca, keystore
    ):
        key = keystore.key("site", 512)
        oversized = intermediate_ca.issue(
            Name.build(common_name="big.example"),
            SubjectPublicKeyInfo(key.n, key.e),
            dns_names=[f"host-{i:05d}.big.example" for i in range(1000)],
        ).encode()
        assert len(oversized) > PARSE_CACHE_MAX_DER
        currsize = _parse_der.cache_info().currsize
        first = parse_certificate(oversized)
        second = parse_certificate(oversized)
        assert first == second
        assert first is not second
        assert _parse_der.cache_info().currsize == currsize
        der = site_cert.encode()
        assert parse_certificate(der) is parse_certificate(der)

    def test_cache_stays_within_its_bound(self, site_cert):
        from dataclasses import replace

        for serial in range(PARSE_CACHE_SIZE + 8):
            tbs = replace(site_cert.tbs, serial_number=10**9 + serial)
            parse_certificate(replace(site_cert, tbs=tbs, raw=b"").encode())
        info = _parse_der.cache_info()
        assert info.maxsize == PARSE_CACHE_SIZE
        assert info.currsize <= PARSE_CACHE_SIZE


class TestChainMemo:
    """validate_chain/collect_chain_defects memoise verdicts on the store."""

    @pytest.fixture()
    def chain(self, site_cert, intermediate_ca):
        return [site_cert, intermediate_ca.certificate]

    @pytest.fixture()
    def fixture_chains(self, site_cert, intermediate_ca, root_ca, keystore, now):
        """(chain, roots, injected, hostname, at_time) from TestChainValidation."""
        chain = [site_cert, intermediate_ca.certificate]
        root = root_ca.certificate
        bad_int_key = keystore.key("bad-intermediate", 512)
        bad_int_cert = root_ca.issue(
            Name.build(common_name="Bad Intermediate"),
            SubjectPublicKeyInfo(bad_int_key.n, bad_int_key.e),
            is_ca=False,
        )
        leaf_key = keystore.key("bad-leaf", 512)
        bad_leaf = CertificateAuthority(bad_int_cert, bad_int_key).issue(
            Name.build(common_name="victim.example"),
            SubjectPublicKeyInfo(leaf_key.n, leaf_key.e),
        )
        tampered = Certificate(
            tbs=site_cert.tbs,
            signature_oid=site_cert.signature_oid,
            signature=bytes(64),
        )
        later = dt.datetime(2030, 1, 1, tzinfo=dt.timezone.utc)
        return [
            (chain, [root], [], "tlsresearch.byu.edu", now),
            (chain, [], [], None, now),
            (chain, [], [root], None, now),
            (chain, [root], [], "other.example", now),
            (chain, [root], [], None, later),
            ([site_cert], [root], [], None, now),
            ([], [root], [], None, None),
            ([bad_leaf, bad_int_cert], [root], [], None, now),
            ([tampered, intermediate_ca.certificate], [root], [], None, now),
            ([root], [root], [], None, now),
        ]

    @staticmethod
    def store_of(roots, injected) -> RootStore:
        store = RootStore(roots)
        for root in injected:
            store.inject(root)
        return store

    def test_views_agree_on_every_fixture_chain(self, fixture_chains):
        for chain, roots, injected, hostname, at_time in fixture_chains:
            cold_result = validate_chain(
                chain, self.store_of(roots, injected), hostname, at_time
            )
            cold_defects = collect_chain_defects(
                chain, self.store_of(roots, injected), hostname, at_time
            )
            assert cold_result.valid == (not cold_defects)
            assert cold_result.errors == tuple(str(d) for d in cold_defects)
            # The second view on one store is served from the memo.
            store = self.store_of(roots, injected)
            assert collect_chain_defects(chain, store, hostname, at_time) == cold_defects
            hits = chain_memo_counts()[0]
            assert validate_chain(chain, store, hostname, at_time) == cold_result
            assert chain_memo_counts()[0] == hits + (1 if chain else 0)

    def test_root_changes_forget_verdicts(self, chain, root_ca, now):
        root = root_ca.certificate
        store = RootStore()
        assert not validate_chain(chain, store, at_time=now).valid
        store.inject(root)
        result = validate_chain(chain, store, at_time=now)
        assert result.valid and result.trusted_via_injected_root
        store.remove(root)
        assert not validate_chain(chain, store, at_time=now).valid
        store.add(root)
        result = validate_chain(chain, store, at_time=now)
        assert result.valid and not result.trusted_via_injected_root

    def test_verdicts_key_on_chain_hostname_and_time(self, chain, root_ca, now):
        store = RootStore([root_ca.certificate])
        later = dt.datetime(2030, 1, 1, tzinfo=dt.timezone.utc)
        assert validate_chain(chain, store, "tlsresearch.byu.edu", now).valid
        assert not validate_chain(chain[:1], store, "tlsresearch.byu.edu", now).valid
        assert not validate_chain(chain, store, "other.example", now).valid
        assert not validate_chain(chain, store, "tlsresearch.byu.edu", later).valid

    def test_copy_starts_with_no_memo(self, chain, root_ca, now):
        store = RootStore([root_ca.certificate])
        validate_chain(chain, store, at_time=now)
        clone = store.copy()
        hits, misses = chain_memo_counts()
        assert validate_chain(chain, clone, at_time=now).valid
        assert chain_memo_counts() == (hits, misses + 1)

    def test_tampered_signature_after_genuine_chain(
        self, chain, site_cert, intermediate_ca, root_ca, now
    ):
        store = RootStore([root_ca.certificate])
        assert validate_chain(chain, store, at_time=now).valid
        tampered = Certificate(
            tbs=site_cert.tbs,
            signature_oid=site_cert.signature_oid,
            signature=bytes(64),
        )
        defects = collect_chain_defects(
            [tampered, intermediate_ca.certificate], store, at_time=now
        )
        assert [defect.code for defect in defects] == [DEFECT_BAD_SIGNATURE]

    def test_memo_stays_within_its_bound(self, chain, root_ca, now):
        store = RootStore([root_ca.certificate])
        for index in range(VERDICT_MEMO_SIZE + 8):
            validate_chain(chain, store, hostname=f"h{index}.example", at_time=now)
        assert len(store.verdicts) <= VERDICT_MEMO_SIZE
