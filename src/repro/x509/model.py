"""X.509 v3 certificate object model with DER encoding.

The model covers the RFC 5280 fields the paper's analysis touches:
distinguished names (Issuer Organization / Common Name / OU are the
classification signals), validity, the RSA public key (key-size
downgrades), the signature algorithm (MD5 findings), and the
basicConstraints / subjectAltName extensions.

Every model class is a frozen value, and equal values encode to equal
DER, so :meth:`TbsCertificate.encode` keeps the DER of each distinct
name, validity window, public key and extension in a bounded content
memo keyed on the value itself (``x509.der_parts``, which also keeps
each key's SHA-1 key identifier), and encodes only the version, serial
number and signature algorithm of each certificate afresh.  A CA
issuing hundreds of substitutes re-encodes none of its own name, key
or constant extensions after the first.  ``to_asn1()`` stays the
reference encoding that the kept parts are tested against.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from repro.asn1 import oids
from repro.asn1.der import CLASS_CONTEXT, CONSTRUCTED, TAG_SEQUENCE, encode_tlv
from repro.asn1.types import (
    Asn1Value,
    BitString,
    Boolean,
    ContextExplicit,
    ContextPrimitive,
    Integer,
    Null,
    ObjectIdentifier,
    OctetString,
    PrintableString,
    Sequence,
    Set,
    UtcTime,
    Utf8String,
)
from repro.util import content_memo

# Attribute OIDs that are encoded as PrintableString by convention.
_PRINTABLE_ATTRS = {oids.OID_COUNTRY, oids.OID_SERIAL_NUMBER}


@dataclass(frozen=True)
class NameAttribute:
    """A single AttributeTypeAndValue inside an RDN."""

    oid: str
    value: str

    @property
    def short_name(self) -> str:
        return oids.oid_name(self.oid)

    def to_asn1(self) -> Set:
        if self.oid in _PRINTABLE_ATTRS:
            string: Asn1Value = PrintableString(self.value)
        else:
            string = Utf8String(self.value)
        return Set([Sequence([ObjectIdentifier(self.oid), string])])


@dataclass(frozen=True)
class Name:
    """An X.501 distinguished name: an ordered list of attributes.

    Each attribute occupies its own RDN, which matches how virtually
    every real certificate is encoded.  An empty attribute list is a
    legal, empty SEQUENCE — exactly what the paper calls a "null"
    issuer.
    """

    attributes: tuple[NameAttribute, ...] = ()

    @classmethod
    def build(
        cls,
        common_name: str | None = None,
        organization: str | None = None,
        organizational_unit: str | None = None,
        country: str | None = None,
        locality: str | None = None,
        state: str | None = None,
        email: str | None = None,
    ) -> "Name":
        """Build a name from keyword fields, in stable C/ST/L/O/OU/CN order."""
        attrs = []
        if country is not None:
            attrs.append(NameAttribute(oids.OID_COUNTRY, country))
        if state is not None:
            attrs.append(NameAttribute(oids.OID_STATE, state))
        if locality is not None:
            attrs.append(NameAttribute(oids.OID_LOCALITY, locality))
        if organization is not None:
            attrs.append(NameAttribute(oids.OID_ORGANIZATION, organization))
        if organizational_unit is not None:
            attrs.append(NameAttribute(oids.OID_ORG_UNIT, organizational_unit))
        if common_name is not None:
            attrs.append(NameAttribute(oids.OID_COMMON_NAME, common_name))
        if email is not None:
            attrs.append(NameAttribute(oids.OID_EMAIL, email))
        return cls(tuple(attrs))

    def get(self, oid: str) -> str | None:
        """Return the first value for ``oid``, or None if absent."""
        for attr in self.attributes:
            if attr.oid == oid:
                return attr.value
        return None

    @property
    def common_name(self) -> str | None:
        return self.get(oids.OID_COMMON_NAME)

    @property
    def organization(self) -> str | None:
        return self.get(oids.OID_ORGANIZATION)

    @property
    def organizational_unit(self) -> str | None:
        return self.get(oids.OID_ORG_UNIT)

    @property
    def country(self) -> str | None:
        return self.get(oids.OID_COUNTRY)

    @property
    def is_empty(self) -> bool:
        return not self.attributes

    def to_asn1(self) -> Sequence:
        return Sequence([attr.to_asn1() for attr in self.attributes])

    def encode(self) -> bytes:
        return self.to_asn1().encode()

    def rfc4514(self) -> str:
        """OpenSSL-style one-line rendering, e.g. ``O=Bitdefender, CN=...``."""
        if not self.attributes:
            return ""
        return ", ".join(f"{a.short_name}={a.value}" for a in self.attributes)

    def __str__(self) -> str:
        return self.rfc4514()


@dataclass(frozen=True)
class Validity:
    """Certificate validity window (UTCTime encoding, like real leaf certs)."""

    not_before: _dt.datetime
    not_after: _dt.datetime

    def contains(self, moment: _dt.datetime) -> bool:
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=_dt.timezone.utc)
        return self.not_before <= moment <= self.not_after

    def to_asn1(self) -> Sequence:
        return Sequence([UtcTime(self.not_before), UtcTime(self.not_after)])


@dataclass(frozen=True)
class SubjectPublicKeyInfo:
    """An RSA public key wrapped in the SPKI structure."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus bit length — the "public key size" in the paper's tables."""
        return self.n.bit_length()

    def to_asn1(self) -> Sequence:
        algorithm = Sequence([ObjectIdentifier(oids.OID_RSA_ENCRYPTION), Null()])
        rsa_key = Sequence([Integer(self.n), Integer(self.e)]).encode()
        return Sequence([algorithm, BitString(rsa_key)])


@dataclass(frozen=True)
class Extension:
    """A certificate extension: OID, criticality, raw DER value."""

    oid: str
    critical: bool
    value: bytes

    @property
    def short_name(self) -> str:
        return oids.oid_name(self.oid)

    def to_asn1(self) -> Sequence:
        items: list[Asn1Value] = [ObjectIdentifier(self.oid)]
        if self.critical:
            items.append(Boolean(True))
        items.append(OctetString(self.value))
        return Sequence(items)


def basic_constraints_extension(ca: bool, critical: bool = True) -> Extension:
    """Build a basicConstraints extension (path length omitted)."""
    inner = Sequence([Boolean(True)]) if ca else Sequence([])
    return Extension(oids.OID_EXT_BASIC_CONSTRAINTS, critical, inner.encode())


# RFC 5280 KeyUsage named bits (MSB-first within the BIT STRING).
KEY_USAGE_BITS = (
    "digitalSignature",
    "nonRepudiation",
    "keyEncipherment",
    "dataEncipherment",
    "keyAgreement",
    "keyCertSign",
    "cRLSign",
    "encipherOnly",
    "decipherOnly",
)


def key_usage_extension(usages: tuple[str, ...], critical: bool = True) -> Extension:
    """Build a keyUsage extension from named flags.

    DER requires named-bit-list BIT STRINGs to drop trailing zero bits,
    which drives the unused_bits computation below.
    """
    indices = []
    for usage in usages:
        try:
            indices.append(KEY_USAGE_BITS.index(usage))
        except ValueError:
            raise ValueError(f"unknown key usage {usage!r}") from None
    if not indices:
        bits = BitString(b"", 0)
    else:
        highest = max(indices)
        byte_count = highest // 8 + 1
        raw = bytearray(byte_count)
        for index in indices:
            raw[index // 8] |= 0x80 >> (index % 8)
        unused = 7 - (highest % 8)
        bits = BitString(bytes(raw), unused)
    return Extension(oids.OID_EXT_KEY_USAGE, critical, bits.encode())


#: Distinct parts whose DER (and keys whose identifier) is kept; past
#: the bound the oldest goes.
DER_PARTS_SIZE = 4096


def _part_bytes(part) -> int:
    """About how many bytes a kept part holds: its strings, octets or key."""
    if isinstance(part, Name):
        return sum(len(attr.oid) + len(attr.value) for attr in part.attributes)
    if isinstance(part, Extension):
        return len(part.oid) + len(part.value)
    if isinstance(part, SubjectPublicKeyInfo):
        return (part.n.bit_length() + part.e.bit_length()) // 8
    return 0  # a Validity: two datetimes


@content_memo("x509.der_parts", DER_PARTS_SIZE, size=_part_bytes)
def _part_der(part) -> bytes:
    """The DER of a frozen Name, Validity, SubjectPublicKeyInfo or Extension."""
    return part.to_asn1().encode()


@content_memo("x509.der_parts", DER_PARTS_SIZE, size=_part_bytes)
def _key_identifier(public_key: "SubjectPublicKeyInfo") -> bytes:
    """RFC 5280 method 1: SHA-1 of the subjectPublicKey BIT STRING body."""
    rsa_key = Sequence(
        [Integer(public_key.n), Integer(public_key.e)]
    ).encode()
    return hashlib.sha1(rsa_key).digest()


def subject_key_identifier_extension(public_key: "SubjectPublicKeyInfo") -> Extension:
    return Extension(
        oids.OID_EXT_SUBJECT_KEY_ID,
        False,
        OctetString(_key_identifier(public_key)).encode(),
    )


def authority_key_identifier_extension(
    issuer_public_key: "SubjectPublicKeyInfo",
) -> Extension:
    # AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }
    inner = Sequence(
        [ContextPrimitive(0, _key_identifier(issuer_public_key))]
    )
    return Extension(oids.OID_EXT_AUTHORITY_KEY_ID, False, inner.encode())


def subject_alt_name_extension(dns_names: list[str]) -> Extension:
    """Build a subjectAltName extension of dNSName entries."""
    general_names = Sequence(
        [ContextPrimitive(2, name.encode("ascii")) for name in dns_names]
    )
    return Extension(oids.OID_EXT_SUBJECT_ALT_NAME, False, general_names.encode())


@dataclass(frozen=True)
class TbsCertificate:
    """The to-be-signed portion of a certificate."""

    serial_number: int
    signature_oid: str
    issuer: Name
    validity: Validity
    subject: Name
    public_key: SubjectPublicKeyInfo
    extensions: tuple[Extension, ...] = ()
    version: int = 2  # X.509 v3

    def to_asn1(self) -> Sequence:
        items: list[Asn1Value] = [
            ContextExplicit(0, Integer(self.version)),
            Integer(self.serial_number),
            Sequence([ObjectIdentifier(self.signature_oid), Null()]),
            self.issuer.to_asn1(),
            self.validity.to_asn1(),
            self.subject.to_asn1(),
            self.public_key.to_asn1(),
        ]
        if self.extensions:
            ext_list = Sequence([ext.to_asn1() for ext in self.extensions])
            items.append(ContextExplicit(3, ext_list))
        return Sequence(items)

    def encode(self) -> bytes:
        """``to_asn1().encode()``, framed around the kept DER of each part."""
        validity = self.validity
        if validity.not_before.fold or validity.not_after.fold:
            # Equal to a fold-0 window, yet it may fall an hour apart in UTC.
            validity_der = validity.to_asn1().encode()
        else:
            validity_der = _part_der(validity)
        parts = [
            ContextExplicit(0, Integer(self.version)).encode(),
            Integer(self.serial_number).encode(),
            Sequence([ObjectIdentifier(self.signature_oid), Null()]).encode(),
            _part_der(self.issuer),
            validity_der,
            _part_der(self.subject),
            _part_der(self.public_key),
        ]
        if self.extensions:
            extensions = b"".join(map(_part_der, self.extensions))
            parts.append(
                encode_tlv(
                    CLASS_CONTEXT | CONSTRUCTED | 3,
                    encode_tlv(TAG_SEQUENCE, extensions),
                )
            )
        return encode_tlv(TAG_SEQUENCE, b"".join(parts))


@dataclass(frozen=True)
class Certificate:
    """A signed certificate.

    ``raw`` holds the exact DER this certificate was parsed from (or
    encoded to at issuance), so re-serialisation is byte-exact — the
    property the reporting pipeline depends on for mismatch detection.
    """

    tbs: TbsCertificate
    signature_oid: str
    signature: bytes
    raw: bytes = field(repr=False, compare=False, default=b"")

    # -- convenience accessors used throughout the analysis ------------

    @property
    def subject(self) -> Name:
        return self.tbs.subject

    @property
    def issuer(self) -> Name:
        return self.tbs.issuer

    @property
    def serial_number(self) -> int:
        return self.tbs.serial_number

    @property
    def public_key_bits(self) -> int:
        return self.tbs.public_key.bits

    @property
    def validity(self) -> Validity:
        return self.tbs.validity

    @property
    def signature_algorithm(self) -> str:
        """Short name, e.g. ``sha256WithRSAEncryption``."""
        return oids.oid_name(self.signature_oid)

    # is_ca and dns_names decode an extension, and every report that
    # repeats a shared (parse-cached) certificate asks for both again
    # (hostname matching, report summaries) — memoise them too.

    @cached_property
    def is_ca(self) -> bool:
        """True if a basicConstraints extension asserts CA=TRUE."""
        from repro.x509.parse import parse_basic_constraints

        for ext in self.tbs.extensions:
            if ext.oid == oids.OID_EXT_BASIC_CONSTRAINTS:
                return parse_basic_constraints(ext.value)
        return False

    @property
    def dns_names(self) -> list[str]:
        """dNSName entries of subjectAltName (empty if absent), as a new list."""
        return list(self._dns_names)

    @cached_property
    def _dns_names(self) -> tuple[str, ...]:
        from repro.x509.parse import parse_subject_alt_name

        for ext in self.tbs.extensions:
            if ext.oid == oids.OID_EXT_SUBJECT_ALT_NAME:
                return tuple(parse_subject_alt_name(ext.value))
        return ()

    @property
    def key_usage(self) -> tuple[str, ...]:
        """Named keyUsage flags (empty if the extension is absent)."""
        from repro.asn1.types import BitString as _BitString, decode as _decode

        for ext in self.tbs.extensions:
            if ext.oid != oids.OID_EXT_KEY_USAGE:
                continue
            value, _ = _decode(ext.value)
            if not isinstance(value, _BitString):
                return ()
            flags = []
            for index, name in enumerate(KEY_USAGE_BITS):
                byte_index, bit = index // 8, 0x80 >> (index % 8)
                if byte_index < len(value.data) and value.data[byte_index] & bit:
                    flags.append(name)
            return tuple(flags)
        return ()

    @property
    def subject_key_identifier(self) -> bytes | None:
        from repro.asn1.types import OctetString as _OctetString, decode as _decode

        for ext in self.tbs.extensions:
            if ext.oid == oids.OID_EXT_SUBJECT_KEY_ID:
                value, _ = _decode(ext.value)
                return value.data if isinstance(value, _OctetString) else None
        return None

    @property
    def authority_key_identifier(self) -> bytes | None:
        from repro.asn1.types import (
            ContextPrimitive as _ContextPrimitive,
            Sequence as _Sequence,
            decode as _decode,
        )

        for ext in self.tbs.extensions:
            if ext.oid == oids.OID_EXT_AUTHORITY_KEY_ID:
                value, _ = _decode(ext.value)
                if isinstance(value, _Sequence):
                    for item in value:
                        if isinstance(item, _ContextPrimitive) and item.number == 0:
                            return item.data
                return None
        return None

    def to_asn1(self) -> Sequence:
        return Sequence(
            [
                self.tbs.to_asn1(),
                Sequence([ObjectIdentifier(self.signature_oid), Null()]),
                BitString(self.signature),
            ]
        )

    # The DER and its SHA-256 are immutable once the certificate
    # exists, and the forge cache, audit classifier and reporting
    # server all ask for them repeatedly — memoise both on the
    # instance (``cached_property`` writes straight into ``__dict__``,
    # which the frozen dataclass permits).

    @cached_property
    def _der(self) -> bytes:
        if self.raw:
            return self.raw
        return self.to_asn1().encode()

    @cached_property
    def tbs_der(self) -> bytes:
        """The bytes the signature covers: the TBSCertificate's DER.

        Issuance seeds this with the bytes it signed; any other
        certificate encodes its TBS once, on first use.
        """
        return self.tbs.encode()

    @cached_property
    def _sha256_hex(self) -> str:
        return hashlib.sha256(self._der).hexdigest()

    def encode(self) -> bytes:
        """DER bytes; prefers the captured raw encoding when present."""
        return self._der

    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the DER encoding (hex)."""
        return self._sha256_hex

    def matches_hostname(self, hostname: str) -> bool:
        """RFC 6125-lite host matching over SAN (preferred) then CN."""
        names = self.dns_names or (
            [self.subject.common_name] if self.subject.common_name else []
        )
        return any(_hostname_matches(pattern, hostname) for pattern in names)


def _hostname_matches(pattern: str, hostname: str) -> bool:
    pattern = pattern.lower().rstrip(".")
    hostname = hostname.lower().rstrip(".")
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[1:]  # ".example.com"
        return hostname.endswith(suffix) and hostname.count(".") == pattern.count(".")
    return False
