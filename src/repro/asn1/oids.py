"""OID registry for the X.509 subset used by the reproduction.

Names follow OpenSSL's short names where they exist so the analysis
output reads like the paper's OpenSSL-derived data.
"""

from __future__ import annotations

# Distinguished-name attribute types.
OID_COMMON_NAME = "2.5.4.3"
OID_SURNAME = "2.5.4.4"
OID_SERIAL_NUMBER = "2.5.4.5"
OID_COUNTRY = "2.5.4.6"
OID_LOCALITY = "2.5.4.7"
OID_STATE = "2.5.4.8"
OID_STREET = "2.5.4.9"
OID_ORGANIZATION = "2.5.4.10"
OID_ORG_UNIT = "2.5.4.11"
OID_EMAIL = "1.2.840.113549.1.9.1"

# Public-key algorithms.
OID_RSA_ENCRYPTION = "1.2.840.113549.1.1.1"

# Signature algorithms (PKCS#1 v1.5 with various digests).
OID_MD5_WITH_RSA = "1.2.840.113549.1.1.4"
OID_SHA1_WITH_RSA = "1.2.840.113549.1.1.5"
OID_SHA256_WITH_RSA = "1.2.840.113549.1.1.11"

# Digest algorithms (for DigestInfo).
OID_MD5 = "1.2.840.113549.2.5"
OID_SHA1 = "1.3.14.3.2.26"
OID_SHA256 = "2.16.840.1.101.3.4.2.1"

# Certificate extensions.
OID_EXT_SUBJECT_KEY_ID = "2.5.29.14"
OID_EXT_KEY_USAGE = "2.5.29.15"
OID_EXT_SUBJECT_ALT_NAME = "2.5.29.17"
OID_EXT_BASIC_CONSTRAINTS = "2.5.29.19"
OID_EXT_AUTHORITY_KEY_ID = "2.5.29.35"
OID_EXT_EXTENDED_KEY_USAGE = "2.5.29.37"

OID_NAMES: dict[str, str] = {
    OID_COMMON_NAME: "CN",
    OID_SURNAME: "SN",
    OID_SERIAL_NUMBER: "serialNumber",
    OID_COUNTRY: "C",
    OID_LOCALITY: "L",
    OID_STATE: "ST",
    OID_STREET: "street",
    OID_ORGANIZATION: "O",
    OID_ORG_UNIT: "OU",
    OID_EMAIL: "emailAddress",
    OID_RSA_ENCRYPTION: "rsaEncryption",
    OID_MD5_WITH_RSA: "md5WithRSAEncryption",
    OID_SHA1_WITH_RSA: "sha1WithRSAEncryption",
    OID_SHA256_WITH_RSA: "sha256WithRSAEncryption",
    OID_MD5: "md5",
    OID_SHA1: "sha1",
    OID_SHA256: "sha256",
    OID_EXT_SUBJECT_KEY_ID: "subjectKeyIdentifier",
    OID_EXT_KEY_USAGE: "keyUsage",
    OID_EXT_SUBJECT_ALT_NAME: "subjectAltName",
    OID_EXT_BASIC_CONSTRAINTS: "basicConstraints",
    OID_EXT_AUTHORITY_KEY_ID: "authorityKeyIdentifier",
    OID_EXT_EXTENDED_KEY_USAGE: "extendedKeyUsage",
}

def oid_name(dotted: str) -> str:
    """Return the registered short name for ``dotted``, or ``dotted`` itself."""
    return OID_NAMES.get(dotted, dotted)

