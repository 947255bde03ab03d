"""Shared fixtures.

Key generation is the only expensive operation in the code base, so a
single session-scoped :class:`KeyStore` hands out deterministic keys;
tests request small (512-bit) keys unless the behaviour under test is
size-specific.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.crypto.keystore import KeyStore
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Name


@pytest.fixture(scope="session")
def keystore() -> KeyStore:
    return KeyStore(seed=1234)


@pytest.fixture(scope="session")
def root_ca(keystore: KeyStore) -> CertificateAuthority:
    """A trusted root CA with a 512-bit key (fast, sufficient for tests)."""
    return CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(
                common_name="Repro Test Root CA", organization="Repro Trust"
            ),
            key=keystore.key("test-root", 512),
        )
    )


@pytest.fixture(scope="session")
def intermediate_ca(
    keystore: KeyStore, root_ca: CertificateAuthority
) -> CertificateAuthority:
    return root_ca.issue_intermediate(
        Name.build(common_name="Repro Test Intermediate", organization="Repro Trust"),
        keystore.key("test-intermediate", 512),
    )


@pytest.fixture()
def now() -> dt.datetime:
    return dt.datetime(2014, 6, 1, tzinfo=dt.timezone.utc)


_BASIC_CONSTRAINTS = bytes.fromhex("0603551d13")  # extnID 2.5.29.19
_KEY_USAGE = bytes.fromhex("0603551d0f")  # extnID 2.5.29.15
_DER_TRUE = b"\x01\x01\xff"

# One edit each to the intermediate's DER: (signed bytes, received bytes).
# The BOOLEAN edits re-encode to the signed bytes, so only a strict
# decoder can tell them apart; the NULL edit breaks the extensions [3].
NON_DER_INTERMEDIATE_EDITS = {
    "basic-constraints-critical-01": (
        _BASIC_CONSTRAINTS + _DER_TRUE,
        _BASIC_CONSTRAINTS + b"\x01\x01\x01",
    ),
    "ca-flag-01": (
        _BASIC_CONSTRAINTS + _DER_TRUE + b"\x04\x05\x30\x03" + _DER_TRUE,
        _BASIC_CONSTRAINTS + _DER_TRUE + b"\x04\x05\x30\x03\x01\x01\x01",
    ),
    "key-usage-critical-01": (_KEY_USAGE + _DER_TRUE, _KEY_USAGE + b"\x01\x01\x01"),
    "key-usage-critical-null": (_KEY_USAGE + _DER_TRUE, _KEY_USAGE + b"\x05\x01\xff"),
}


@pytest.fixture(params=sorted(NON_DER_INTERMEDIATE_EDITS))
def non_der_intermediate(request, intermediate_ca) -> bytes:
    """The intermediate's DER with one field that is BER but not DER."""
    signed, received = NON_DER_INTERMEDIATE_EDITS[request.param]
    der = intermediate_ca.certificate.encode()
    assert der.count(signed) == 1
    return der.replace(signed, received)
