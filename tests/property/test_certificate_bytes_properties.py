"""Property-based tests: each certificate byte string is paid once, same bytes.

An issued certificate frames its DER around the TBS bytes it signed,
and keeps those bytes as ``tbs_der``; both must equal the per-call
encoding through ``to_asn1()``.  A parsed certificate's ``tbs_der`` is
its re-encoded TBS.
"""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import oids
from repro.crypto.hashes import HASH_ALGORITHMS
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import RsaPublicKey, pkcs1_verify
from repro.x509.ca import CertificateAuthority, SelfSignedParams, _sign_tbs
from repro.x509.model import (
    Name,
    NameAttribute,
    SubjectPublicKeyInfo,
    TbsCertificate,
    Validity,
    basic_constraints_extension,
    key_usage_extension,
    subject_alt_name_extension,
)
from repro.x509.parse import parse_certificate
from repro.x509.verify import verify_certificate_signature

# --- strategies -----------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz .-", min_size=1, max_size=40)
name_oids = st.sampled_from(
    [
        oids.OID_COUNTRY,
        oids.OID_ORGANIZATION,
        oids.OID_ORG_UNIT,
        oids.OID_COMMON_NAME,
        oids.OID_LOCALITY,
    ]
)
names = st.lists(st.builds(NameAttribute, name_oids, words), max_size=5).map(
    lambda attributes: Name(tuple(attributes))
)
# UTCTime spans 1950-2049 and keeps whole seconds.
moments = st.datetimes(
    min_value=dt.datetime(1950, 1, 1), max_value=dt.datetime(2049, 12, 31)
).map(lambda moment: moment.replace(microsecond=0, tzinfo=dt.timezone.utc))
hostnames = st.from_regex(r"[a-z0-9]{1,12}(\.[a-z0-9]{1,12}){0,3}", fullmatch=True)
extensions = st.lists(
    st.one_of(
        st.builds(basic_constraints_extension, st.booleans(), st.booleans()),
        st.builds(
            key_usage_extension,
            st.sampled_from(
                [("digitalSignature", "keyEncipherment"), ("keyCertSign", "cRLSign"), ()]
            ),
        ),
        st.builds(subject_alt_name_extension, st.lists(hostnames, max_size=4)),
    ),
    max_size=4,
).map(tuple)
hash_algorithms = st.sampled_from(sorted(HASH_ALGORITHMS.values(), key=lambda h: h.name))


@st.composite
def tbs_certificates(draw):
    hash_alg = draw(hash_algorithms)
    tbs = TbsCertificate(
        serial_number=draw(st.integers(1, 2**63)),
        signature_oid=hash_alg.signature_oid,
        issuer=draw(names),
        validity=Validity(draw(moments), draw(moments)),
        subject=draw(names),
        public_key=SubjectPublicKeyInfo(
            draw(st.integers(3, 2**1024)), draw(st.sampled_from([3, 65537]))
        ),
        extensions=draw(extensions),
    )
    return tbs, hash_alg


@pytest.fixture(scope="module")
def signer_ca():
    return CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(common_name="TBS Signer"),
            key=KeyStore(seed=2121).key("tbs-signer", 512),
        )
    )


class TestIssuedCertificateBytes:
    @given(drawn=tbs_certificates())
    @settings(max_examples=60, deadline=None)
    def test_raw_is_framed_from_the_signed_bytes(self, signer_ca, drawn):
        tbs, hash_alg = drawn
        signer = signer_ca.key
        certificate = _sign_tbs(tbs, signer, hash_alg)
        assert certificate.tbs_der == tbs.encode()
        assert certificate.raw == certificate.to_asn1().encode()
        assert pkcs1_verify(
            RsaPublicKey(signer.n, signer.e),
            hash_alg,
            tbs.encode(),
            certificate.signature,
        )

    @given(drawn=tbs_certificates())
    @settings(max_examples=40, deadline=None)
    def test_parsed_certificate_checks_the_reencoded_tbs(self, signer_ca, drawn):
        tbs, hash_alg = drawn
        issued = _sign_tbs(tbs, signer_ca.key, hash_alg)
        parsed = parse_certificate(issued.raw)
        assert parsed.tbs_der == parsed.tbs.encode() == issued.tbs_der
        assert verify_certificate_signature(parsed, signer_ca.certificate)
