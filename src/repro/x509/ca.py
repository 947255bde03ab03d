"""Certificate issuance.

:class:`CertificateAuthority` is used three ways in the reproduction:

* the legitimate web PKI (roots → intermediates → site leaves),
* every TLS interception product (its injected root signs substitute
  certificates on the fly), and
* attackers whose CA is *not* in the victim's root store (the forged
  certificates of the Kurupira experiment, §5.2).
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass
from functools import cached_property

from repro.asn1.der import TAG_SEQUENCE, encode_tlv
from repro.asn1.types import BitString
from repro.crypto.hashes import HashAlgorithm, hash_by_name, signature_algorithm_der
from repro.crypto.rsa import RsaKeyPair, pkcs1_sign
from repro.x509.model import (
    Certificate,
    Extension,
    Name,
    SubjectPublicKeyInfo,
    TbsCertificate,
    Validity,
    authority_key_identifier_extension,
    basic_constraints_extension,
    key_usage_extension,
    subject_alt_name_extension,
    subject_key_identifier_extension,
)

_DEFAULT_NOT_BEFORE = _dt.datetime(2014, 1, 1, tzinfo=_dt.timezone.utc)
_DEFAULT_NOT_AFTER = _dt.datetime(2016, 1, 1, tzinfo=_dt.timezone.utc)

# The extensions every CA and every leaf certificate carries.
_CA_CONSTRAINTS = basic_constraints_extension(ca=True)
_LEAF_CONSTRAINTS = basic_constraints_extension(ca=False)
_CA_KEY_USAGE = key_usage_extension(("keyCertSign", "cRLSign"))
_LEAF_KEY_USAGE = key_usage_extension(("digitalSignature", "keyEncipherment"))


@dataclass(frozen=True)
class SelfSignedParams:
    """Knobs for creating a self-signed certificate.

    Usually a root (``is_ca=True``), but the audit battery also mints
    self-signed *leaves* — the classic misconfigured-or-attacked origin
    — by setting ``is_ca=False`` and naming the host in ``dns_names``.
    """

    subject: Name
    key: RsaKeyPair
    hash_name: str = "sha256"
    not_before: _dt.datetime = _DEFAULT_NOT_BEFORE
    not_after: _dt.datetime = _DEFAULT_NOT_AFTER
    serial_number: int | None = None
    is_ca: bool = True
    dns_names: tuple[str, ...] = ()


class CertificateAuthority:
    """A signing authority: a subject name plus a private key.

    ``issue`` signs end-entity or CA certificates; ``self_signed``
    bootstraps a root.  Serial numbers come from the authority's own
    deterministic RNG stream.
    """

    def __init__(
        self,
        certificate: Certificate,
        key: RsaKeyPair,
        serial_rng: random.Random | None = None,
    ) -> None:
        self.certificate = certificate
        self.key = key
        self._serial_rng = serial_rng or random.Random(key.n & 0xFFFFFFFF)

    @property
    def name(self) -> Name:
        return self.certificate.subject

    @cached_property
    def _authority_key_id(self) -> Extension:
        """The authorityKeyIdentifier of every certificate this CA issues."""
        return authority_key_identifier_extension(
            SubjectPublicKeyInfo(self.key.n, self.key.e)
        )

    @classmethod
    def self_signed(cls, params: SelfSignedParams) -> "CertificateAuthority":
        """Create a root CA whose certificate signs itself."""
        serial = params.serial_number
        if serial is None:
            serial = random.Random(params.key.n & 0xFFFFFFF).getrandbits(63) | 1
        hash_alg = hash_by_name(params.hash_name)
        extensions = [_CA_CONSTRAINTS if params.is_ca else _LEAF_CONSTRAINTS]
        if params.dns_names:
            extensions.append(subject_alt_name_extension(list(params.dns_names)))
        tbs = TbsCertificate(
            serial_number=serial,
            signature_oid=hash_alg.signature_oid,
            issuer=params.subject,
            validity=Validity(params.not_before, params.not_after),
            subject=params.subject,
            public_key=SubjectPublicKeyInfo(params.key.n, params.key.e),
            extensions=tuple(extensions),
        )
        certificate = _sign_tbs(tbs, params.key, hash_alg)
        return cls(certificate, params.key)

    def issue(
        self,
        subject: Name,
        public_key: SubjectPublicKeyInfo,
        hash_name: str = "sha256",
        is_ca: bool = False,
        dns_names: list[str] | None = None,
        not_before: _dt.datetime = _DEFAULT_NOT_BEFORE,
        not_after: _dt.datetime = _DEFAULT_NOT_AFTER,
        serial_number: int | None = None,
        extra_extensions: tuple[Extension, ...] = (),
    ) -> Certificate:
        """Issue a certificate for ``subject`` signed by this authority."""
        hash_alg = hash_by_name(hash_name)
        if serial_number is None:
            serial_number = self._serial_rng.getrandbits(63) | 1
        if is_ca:
            extensions = [_CA_CONSTRAINTS, _CA_KEY_USAGE]
        else:
            extensions = [_LEAF_CONSTRAINTS, _LEAF_KEY_USAGE]
        extensions.append(subject_key_identifier_extension(public_key))
        extensions.append(self._authority_key_id)
        if dns_names:
            extensions.append(subject_alt_name_extension(dns_names))
        extensions.extend(extra_extensions)
        tbs = TbsCertificate(
            serial_number=serial_number,
            signature_oid=hash_alg.signature_oid,
            issuer=self.name,
            validity=Validity(not_before, not_after),
            subject=subject,
            public_key=public_key,
            extensions=tuple(extensions),
        )
        return _sign_tbs(tbs, self.key, hash_alg)

    def issue_intermediate(
        self, subject: Name, key: RsaKeyPair, hash_name: str = "sha256"
    ) -> "CertificateAuthority":
        """Issue a CA certificate and wrap it as a new authority."""
        certificate = self.issue(
            subject,
            SubjectPublicKeyInfo(key.n, key.e),
            hash_name=hash_name,
            is_ca=True,
        )
        return CertificateAuthority(certificate, key)


def _sign_tbs(
    tbs: TbsCertificate, key: RsaKeyPair, hash_alg: HashAlgorithm
) -> Certificate:
    tbs_der = tbs.encode()
    signature = pkcs1_sign(key, hash_alg, tbs_der)
    # Frame .raw around the signed bytes (the layout of
    # Certificate.to_asn1), so an issued certificate encodes its TBS once.
    algorithm = signature_algorithm_der(hash_alg.signature_oid)
    certificate = Certificate(
        tbs=tbs,
        signature_oid=hash_alg.signature_oid,
        signature=signature,
        raw=encode_tlv(
            TAG_SEQUENCE, tbs_der + algorithm + BitString(signature).encode()
        ),
    )
    certificate.__dict__["tbs_der"] = tbs_der  # seed the cached property
    return certificate
