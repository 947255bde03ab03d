"""Property-based tests: each certificate byte string is paid once, same bytes.

An issued certificate frames its DER around the TBS bytes it signed,
and keeps those bytes as ``tbs_der``; both must equal the per-call
encoding through ``to_asn1()``.  A parsed certificate's ``tbs_der`` is
its re-encoded TBS.  ``TbsCertificate.encode()`` frames the DER kept
for each distinct part (``x509.der_parts``), which must be the
reference bytes with the memo cold, warm, or warmed by an equal value
built another way.
"""

import datetime as dt
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import oids
from repro.crypto.hashes import HASH_ALGORITHMS
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import RsaPublicKey, pkcs1_verify
from repro.x509.ca import CertificateAuthority, SelfSignedParams, _sign_tbs
from repro.x509.model import (
    Extension,
    Name,
    NameAttribute,
    SubjectPublicKeyInfo,
    TbsCertificate,
    Validity,
    _part_der,
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


# --- kept parts -----------------------------------------------------------

PRINTABLE = string.ascii_letters + string.digits + " '()+,-./:=?"
kept_attributes = st.one_of(
    st.builds(
        NameAttribute,
        st.sampled_from([oids.OID_COUNTRY, oids.OID_SERIAL_NUMBER]),
        st.text(alphabet=PRINTABLE, max_size=12),
    ),
    st.builds(
        NameAttribute,
        st.sampled_from(
            [oids.OID_COMMON_NAME, oids.OID_ORGANIZATION, oids.OID_ORG_UNIT]
        ),
        st.text(max_size=12),
    ),
)
kept_names = st.lists(kept_attributes, max_size=4).map(
    lambda attributes: Name(tuple(attributes))
)
# Naive, UTC or another fixed offset, microseconds kept.
zones = st.none() | st.just(dt.timezone.utc) | st.integers(-840, 840).map(
    lambda minutes: dt.timezone(dt.timedelta(minutes=minutes))
)
bounds = st.builds(
    lambda moment, zone: moment.replace(tzinfo=zone),
    st.datetimes(dt.datetime(1950, 1, 2), dt.datetime(2049, 12, 30)),
    zones,
)
kept_extensions = st.lists(
    st.builds(
        Extension,
        st.sampled_from(
            [oids.OID_EXT_BASIC_CONSTRAINTS, oids.OID_EXT_KEY_USAGE, "1.3.6.1.4.1.9.1"]
        ),
        st.sampled_from([True, 1, False, 0]),
        st.binary(max_size=16),
    ),
    max_size=4,
).map(tuple)


@st.composite
def kept_tbs(draw) -> TbsCertificate:
    return TbsCertificate(
        serial_number=draw(st.integers(1, 2**63)),
        signature_oid=draw(hash_algorithms).signature_oid,
        issuer=draw(kept_names),
        validity=Validity(draw(bounds), draw(bounds)),
        subject=draw(kept_names),
        public_key=SubjectPublicKeyInfo(
            draw(st.integers(3, 2**1024)), draw(st.sampled_from([3, 65537]))
        ),
        extensions=draw(kept_extensions),
    )


def _elsewhere(moment: dt.datetime) -> dt.datetime:
    """An equal moment built another way: a naive copy, or another offset."""
    if moment.tzinfo is None:
        return dt.datetime(*moment.timetuple()[:6], moment.microsecond)
    return moment.astimezone(dt.timezone(dt.timedelta(hours=-3, minutes=-30)))


def rebuilt(tbs: TbsCertificate) -> TbsCertificate:
    """A value equal to ``tbs`` that shares none of its part objects."""

    def name(value: Name) -> Name:
        return Name(tuple(NameAttribute(a.oid, a.value) for a in value.attributes))

    return TbsCertificate(
        serial_number=tbs.serial_number,
        signature_oid=tbs.signature_oid,
        issuer=name(tbs.issuer),
        validity=Validity(
            _elsewhere(tbs.validity.not_before), _elsewhere(tbs.validity.not_after)
        ),
        subject=name(tbs.subject),
        public_key=SubjectPublicKeyInfo(tbs.public_key.n, tbs.public_key.e),
        extensions=tuple(
            Extension(ext.oid, _swapped(ext.critical), bytes(bytearray(ext.value)))
            for ext in tbs.extensions
        ),
    )


def _swapped(critical):
    """1 for True and True for 1 (0 and False alike): an equal key of another type."""
    return int(critical) if isinstance(critical, bool) else bool(critical)


class _FoldZone(dt.tzinfo):
    """UTC+1 at fold 0 and UTC at fold 1: the repeated hour of a clock change."""

    def utcoffset(self, moment):
        return dt.timedelta(hours=0 if moment.fold else 1)

    def dst(self, moment):
        return dt.timedelta(0)


class TestKeptParts:
    @given(tbs=kept_tbs())
    @settings(max_examples=150, deadline=None)
    def test_encode_is_the_reference_cold_warm_and_after_an_equal_twin(self, tbs):
        reference = tbs.to_asn1().encode()
        _part_der.cache_clear()
        assert tbs.encode() == reference
        assert tbs.encode() == reference
        twin = rebuilt(tbs)
        assert twin == tbs
        assert twin.to_asn1().encode() == reference
        _part_der.cache_clear()
        assert twin.encode() == reference
        assert tbs.encode() == reference

    def test_a_window_equal_but_for_fold_keeps_its_own_bytes(self):
        # Equal and equally hashed, yet an hour apart in UTC.
        early = dt.datetime(2014, 10, 26, 1, 30, tzinfo=_FoldZone())
        late = early.replace(fold=1)
        assert early == late and hash(early) == hash(late)
        for first, second in ((early, late), (late, early)):
            _part_der.cache_clear()
            for moment in (first, second):
                tbs = TbsCertificate(
                    serial_number=1,
                    signature_oid=oids.OID_SHA256_WITH_RSA,
                    issuer=Name(),
                    validity=Validity(moment, moment),
                    subject=Name(),
                    public_key=SubjectPublicKeyInfo(65537 * 3, 3),
                )
                assert tbs.encode() == tbs.to_asn1().encode()
