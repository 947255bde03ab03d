"""Digest registry tying hash names to hashlib, OIDs and signature OIDs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.asn1 import oids
from repro.asn1.types import Null, ObjectIdentifier, Sequence


@dataclass(frozen=True)
class HashAlgorithm:
    """A digest algorithm usable inside PKCS#1 v1.5 signatures."""

    name: str
    digest_oid: str
    signature_oid: str  # <hash>WithRSAEncryption
    digest_size: int

    def digest(self, data: bytes) -> bytes:
        """Hash ``data`` and return the raw digest."""
        return hashlib.new(self.name, data).digest()


MD5 = HashAlgorithm("md5", oids.OID_MD5, oids.OID_MD5_WITH_RSA, 16)
SHA1 = HashAlgorithm("sha1", oids.OID_SHA1, oids.OID_SHA1_WITH_RSA, 20)
SHA256 = HashAlgorithm("sha256", oids.OID_SHA256, oids.OID_SHA256_WITH_RSA, 32)

HASH_ALGORITHMS: dict[str, HashAlgorithm] = {
    "md5": MD5,
    "sha1": SHA1,
    "sha256": SHA256,
}

_BY_SIGNATURE_OID = {alg.signature_oid: alg for alg in HASH_ALGORITHMS.values()}


def _encode_signature_algorithm(signature_oid: str) -> bytes:
    return Sequence([ObjectIdentifier(signature_oid), Null()]).encode()


_SIGNATURE_ALGORITHM_DER = {
    oid: _encode_signature_algorithm(oid) for oid in _BY_SIGNATURE_OID
}


def signature_algorithm_der(signature_oid: str) -> bytes:
    """The DER AlgorithmIdentifier ``SEQUENCE { signature_oid, NULL }``.

    Each registered hash's is encoded once, at import; any other OID is
    encoded per call.
    """
    der = _SIGNATURE_ALGORITHM_DER.get(signature_oid)
    if der is None:
        der = _encode_signature_algorithm(signature_oid)
    return der


def hash_by_name(name: str) -> HashAlgorithm:
    """Look up a digest by name (``md5``/``sha1``/``sha256``)."""
    try:
        return HASH_ALGORITHMS[name.lower()]
    except KeyError:
        raise KeyError(f"unsupported hash algorithm: {name!r}") from None


def hash_by_signature_oid(dotted: str) -> HashAlgorithm:
    """Map a ``<hash>WithRSAEncryption`` OID to its digest algorithm."""
    try:
        return _BY_SIGNATURE_OID[dotted]
    except KeyError:
        raise KeyError(f"unsupported signature algorithm OID: {dotted}") from None
