"""ASN.1 DER encoding and decoding.

This package implements the subset of ASN.1 Distinguished Encoding Rules
needed to build, parse and byte-exactly round-trip X.509 certificates:
the universal types used by RFC 5280 (INTEGER, BIT STRING, OCTET STRING,
NULL, OBJECT IDENTIFIER, the string families, UTCTime/GeneralizedTime,
SEQUENCE, SET) plus explicit context-specific tagging.

The public object model lives in :mod:`repro.asn1.types`; every value
knows how to ``encode()`` itself to DER and the module-level
:func:`decode` parses one value from a byte string.  OID names used by
the X.509 layer are registered in :mod:`repro.asn1.oids`.
"""

from repro.asn1.der import (
    Asn1Error,
    decode_length,
    encode_length,
    read_tlv,
    split_tlvs,
)
from repro.asn1.oids import (
    OID_NAMES,
    oid_name,
)
from repro.asn1.types import (
    Asn1Value,
    BitString,
    Boolean,
    ContextExplicit,
    ContextPrimitive,
    GeneralizedTime,
    IA5String,
    Integer,
    Null,
    ObjectIdentifier,
    OctetString,
    PrintableString,
    Raw,
    Sequence,
    Set,
    TeletexString,
    UtcTime,
    Utf8String,
    decode,
    decode_all,
)

__all__ = [
    "Asn1Error",
    "Asn1Value",
    "BitString",
    "Boolean",
    "ContextExplicit",
    "ContextPrimitive",
    "GeneralizedTime",
    "IA5String",
    "Integer",
    "Null",
    "ObjectIdentifier",
    "OctetString",
    "OID_NAMES",
    "PrintableString",
    "Raw",
    "Sequence",
    "Set",
    "TeletexString",
    "UtcTime",
    "Utf8String",
    "decode",
    "decode_all",
    "decode_length",
    "encode_length",
    "oid_name",
    "read_tlv",
    "split_tlvs",
]
