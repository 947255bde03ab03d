"""DER certificate parser.

Parses the structures produced by :mod:`repro.x509.model` and, more
importantly, anything a proxy on the wire may hand us.  The original
DER is retained on the parsed object so reports round-trip byte-exactly
and fingerprints are stable.

Parsed certificates are frozen, so one object per distinct DER is
shared process-wide: the probe client, the reporting server and every
proxy engine's upstream leg see the same few genuine chains over and
over, and each would otherwise decode them afresh.
"""

from __future__ import annotations

from repro.asn1 import oids
from repro.asn1.der import CLASS_CONTEXT, CONSTRUCTED, Asn1Error
from repro.asn1.types import (
    Asn1Value,
    BitString,
    Boolean,
    ContextExplicit,
    ContextPrimitive,
    GeneralizedTime,
    Integer,
    Null,
    ObjectIdentifier,
    OctetString,
    Sequence,
    Set,
    UtcTime,
    decode,
)
from repro.util import MEMO_KEY_BYTES, content_memo
from repro.x509.model import (
    Certificate,
    Extension,
    Name,
    NameAttribute,
    SubjectPublicKeyInfo,
    TbsCertificate,
    Validity,
)


class X509Error(ValueError):
    """Raised when bytes do not parse as the expected X.509 structure."""


def _expect(value: Asn1Value, kind: type, what: str):
    # The exact type: a SET (a Sequence subclass) is never a SEQUENCE.
    if type(value) is not kind:
        raise X509Error(f"expected {kind.__name__} for {what}, got {type(value).__name__}")
    return value


#: Distinct DER blobs whose parsed :class:`Certificate` is kept for
#: reuse; past the bound the oldest is dropped.
PARSE_CACHE_SIZE = 1024

#: Longest DER the parse cache keeps (16 KiB), so it holds at most
#: :data:`~repro.util.MEMO_KEY_BYTES` (16 MiB) of DER however large
#: the certificates in a hostile report.
PARSE_CACHE_MAX_DER = MEMO_KEY_BYTES // PARSE_CACHE_SIZE


def parse_certificate(data: bytes) -> Certificate:
    """Parse one DER certificate; raises :class:`X509Error` on malformed input.

    Equal DER bytes yield the same :class:`Certificate` object, unless
    they are longer than :data:`PARSE_CACHE_MAX_DER`: those are parsed
    afresh on every call.  Input that fails to parse is never cached:
    every hostile blob pays a full (linear) parse and raises again.
    """
    return _parse_der(bytes(data))


@content_memo("x509.parse_cache", PARSE_CACHE_SIZE)
def _parse_der(data: bytes) -> Certificate:
    try:
        top, rest = decode(data)
    except Asn1Error as exc:
        raise X509Error(f"bad certificate DER: {exc}") from exc
    if rest:
        raise X509Error("trailing bytes after certificate")
    outer = _expect(top, Sequence, "Certificate")
    if len(outer) != 3:
        raise X509Error(f"Certificate must have 3 elements, has {len(outer)}")
    tbs = _parse_tbs(_expect(outer[0], Sequence, "TBSCertificate"))
    sig_alg = _parse_algorithm_identifier(outer[1])
    sig_bits = _expect(outer[2], BitString, "signatureValue")
    if sig_bits.unused_bits:
        raise X509Error("signature BIT STRING has unused bits")
    return Certificate(
        tbs=tbs,
        signature_oid=sig_alg,
        signature=sig_bits.data,
        raw=data,
    )


# extensions [3] EXPLICIT, and the primitive [3] tag no valid TBS has.
_EXTENSIONS_TAGS = (CLASS_CONTEXT | CONSTRUCTED | 3, CLASS_CONTEXT | 3)


def _parse_tbs(seq: Sequence) -> TbsCertificate:
    items = list(seq.items)
    index = 0
    version = 0
    if items and isinstance(items[0], ContextExplicit) and items[0].number == 0:
        version_int = _expect(items[0].inner, Integer, "version")
        version = version_int.value
        index = 1
    if len(items) - index < 6:
        raise X509Error("TBSCertificate too short")
    serial = _expect(items[index], Integer, "serialNumber").value
    signature_oid = _parse_algorithm_identifier(items[index + 1])
    issuer = parse_name(items[index + 2])
    validity = _parse_validity(items[index + 3])
    subject = parse_name(items[index + 4])
    public_key = _parse_spki(items[index + 5])
    extensions: tuple[Extension, ...] = ()
    for extra in items[index + 6 :]:
        if extra.tag in _EXTENSIONS_TAGS:
            # A [3] whose content failed to decode arrives as Raw, not
            # ContextExplicit; skipping it would drop every extension.
            extensions = _parse_extensions(
                _expect(extra, ContextExplicit, "extensions [3]").inner
            )
    return TbsCertificate(
        serial_number=serial,
        signature_oid=signature_oid,
        issuer=issuer,
        validity=validity,
        subject=subject,
        public_key=public_key,
        extensions=extensions,
        version=version,
    )


def _parse_algorithm_identifier(value: Asn1Value) -> str:
    seq = _expect(value, Sequence, "AlgorithmIdentifier")
    if not seq.items:
        raise X509Error("empty AlgorithmIdentifier")
    oid = _expect(seq[0], ObjectIdentifier, "algorithm OID")
    return oid.dotted


def parse_name(value: Asn1Value) -> Name:
    """Parse an X.501 Name (SEQUENCE OF RDN)."""
    seq = _expect(value, Sequence, "Name")
    attributes: list[NameAttribute] = []
    for rdn in seq.items:
        rdn_set = _expect(rdn, Set, "RDN")
        for atv in rdn_set.items:
            atv_seq = _expect(atv, Sequence, "AttributeTypeAndValue")
            if len(atv_seq) != 2:
                raise X509Error("AttributeTypeAndValue must have 2 elements")
            oid = _expect(atv_seq[0], ObjectIdentifier, "attribute type")
            attr_value = atv_seq[1]
            text = getattr(attr_value, "value", None)
            if not isinstance(text, str):
                raise X509Error(
                    f"unsupported attribute value type {type(attr_value).__name__}"
                )
            attributes.append(NameAttribute(oid.dotted, text))
    return Name(tuple(attributes))


def _parse_time(value: Asn1Value):
    if isinstance(value, (UtcTime, GeneralizedTime)):
        return value.value
    raise X509Error(f"bad time type {type(value).__name__}")


def _parse_validity(value: Asn1Value) -> Validity:
    seq = _expect(value, Sequence, "Validity")
    if len(seq) != 2:
        raise X509Error("Validity must have 2 elements")
    return Validity(_parse_time(seq[0]), _parse_time(seq[1]))


def _parse_spki(value: Asn1Value) -> SubjectPublicKeyInfo:
    seq = _expect(value, Sequence, "SubjectPublicKeyInfo")
    if len(seq) != 2:
        raise X509Error("SubjectPublicKeyInfo must have 2 elements")
    algorithm = _parse_algorithm_identifier(seq[0])
    if algorithm != oids.OID_RSA_ENCRYPTION:
        raise X509Error(f"unsupported public key algorithm {algorithm}")
    key_bits = _expect(seq[1], BitString, "subjectPublicKey")
    try:
        key_value, rest = decode(key_bits.data)
    except Asn1Error as exc:
        raise X509Error(f"bad RSAPublicKey: {exc}") from exc
    if rest:
        raise X509Error("trailing bytes after RSAPublicKey")
    key_seq = _expect(key_value, Sequence, "RSAPublicKey")
    if len(key_seq) != 2:
        raise X509Error("RSAPublicKey must have 2 elements")
    n = _expect(key_seq[0], Integer, "modulus").value
    e = _expect(key_seq[1], Integer, "publicExponent").value
    if n <= 0 or e <= 0:
        raise X509Error("non-positive RSA parameters")
    return SubjectPublicKeyInfo(n=n, e=e)


def _parse_extensions(value: Asn1Value) -> tuple[Extension, ...]:
    seq = _expect(value, Sequence, "Extensions")
    extensions = []
    for item in seq.items:
        ext_seq = _expect(item, Sequence, "Extension")
        if len(ext_seq) not in (2, 3):
            raise X509Error("Extension must have 2 or 3 elements")
        oid = _expect(ext_seq[0], ObjectIdentifier, "extension OID").dotted
        # {extnID, extnValue} or {extnID, critical BOOLEAN, extnValue}.
        critical = False
        if len(ext_seq) == 3:
            critical = _expect(ext_seq[1], Boolean, "extension criticality").value
        octets = _expect(ext_seq[-1], OctetString, "extension value")
        extensions.append(Extension(oid, critical, octets.data))
    return tuple(extensions)


def parse_basic_constraints(value: bytes) -> bool:
    """Return the CA flag from a basicConstraints extension value."""
    try:
        top, rest = decode(value)
    except Asn1Error as exc:
        raise X509Error(f"bad basicConstraints: {exc}") from exc
    if rest:
        raise X509Error("trailing bytes in basicConstraints")
    seq = _expect(top, Sequence, "BasicConstraints")
    if seq.items and isinstance(seq[0], Boolean):
        return seq[0].value
    return False


def parse_subject_alt_name(value: bytes) -> list[str]:
    """Return the dNSName entries from a subjectAltName extension value."""
    try:
        top, rest = decode(value)
    except Asn1Error as exc:
        raise X509Error(f"bad subjectAltName: {exc}") from exc
    if rest:
        raise X509Error("trailing bytes in subjectAltName")
    seq = _expect(top, Sequence, "GeneralNames")
    names = []
    for item in seq.items:
        if isinstance(item, ContextPrimitive) and item.number == 2:
            names.append(item.data.decode("ascii", errors="replace"))
    return names
