"""Measurement records and certificate summaries.

A :class:`CertSummary` captures exactly the certificate fields the
paper's analysis reads — issuer identification strings, key size,
signature algorithm, subject/SAN, fingerprints — so the analysis layer
never needs to re-parse DER.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.x509.model import Certificate


@dataclass(frozen=True)
class CertSummary:
    """The analysis-relevant fields of one certificate."""

    subject_cn: str | None
    subject_org: str | None
    issuer_cn: str | None
    issuer_org: str | None
    issuer_ou: str | None
    serial_number: int
    key_bits: int
    signature_algorithm: str  # e.g. "sha1WithRSAEncryption"
    fingerprint: str  # SHA-256 of the DER
    public_key_fingerprint: str  # SHA-256 of (n, e) — key-sharing signal
    dns_names: tuple[str, ...] = ()
    is_ca: bool = False

    @classmethod
    def from_certificate(cls, certificate: Certificate) -> "CertSummary":
        spki = certificate.tbs.public_key
        key_material = f"{spki.n}:{spki.e}".encode("ascii")
        return cls(
            subject_cn=certificate.subject.common_name,
            subject_org=certificate.subject.organization,
            issuer_cn=certificate.issuer.common_name,
            issuer_org=certificate.issuer.organization,
            issuer_ou=certificate.issuer.organizational_unit,
            serial_number=certificate.serial_number,
            key_bits=certificate.public_key_bits,
            signature_algorithm=certificate.signature_algorithm,
            fingerprint=certificate.fingerprint(),
            public_key_fingerprint=hashlib.sha256(key_material).hexdigest(),
            dns_names=tuple(certificate.dns_names),
            is_ca=certificate.is_ca,
        )

    def matches_hostname(self, hostname: str) -> bool:
        """RFC 6125-lite matching over recorded SAN/CN."""
        from repro.x509.model import _hostname_matches

        names = self.dns_names or ((self.subject_cn,) if self.subject_cn else ())
        return any(_hostname_matches(name, hostname) for name in names)


@dataclass(frozen=True)
class MeasurementRecord:
    """One completed certificate test.

    ``product_key`` is simulation ground truth (which product actually
    intercepted).  The analysis pipeline never reads it; validation
    tests use it to check that the classifier recovers the truth from
    certificate fields alone.
    """

    study: int
    campaign: str
    client_ip: str
    country: str | None  # geolocated at ingest (the MaxMind step)
    hostname: str
    host_type: str
    mismatch: bool
    leaf: CertSummary
    chain: tuple[CertSummary, ...] = ()
    # Whether the presented chain validates back to the *public* web
    # PKI roots (substitute chains validate only to the proxy's own CA,
    # so this is False for proxied connections — which is what exposes
    # falsified CA claims, §5.2).
    chain_valid: bool = False
    via: str = "wire"  # "wire" or "fast"
    product_key: str | None = field(default=None, compare=False)
