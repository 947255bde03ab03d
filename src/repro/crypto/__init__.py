"""Public-key cryptography for certificate issuance, on the standard library alone.

The paper's substitute certificates are interesting precisely because
of their cryptographic properties — 512/1024-bit key downgrades, MD5
signatures, signatures that do or do not validate back to a trusted
root.  This package implements just enough real RSA (Miller–Rabin key
generation, PKCS#1 v1.5 signing over a DER ``DigestInfo``) that every
certificate in the reproduction carries a genuine, verifiable (or
genuinely broken) signature.

The arithmetic is Python's own integers, except the big modular
exponentiations of key generation and signing and the prime screen's
stage-2 remainder: :mod:`repro.crypto.bignum` runs them in the
libcrypto that ``hashlib`` already loads, and falls back to builtin
``pow`` and ``%``, with the same results, where it cannot.

Key generation is deterministic given a seed, and :class:`KeyStore`
pools keys by (bits, label) so that a 2048-bit key is generated at most
once per process — mirroring reality, where an interception product
has one CA key, and the IopFail malware famously shipped a single
512-bit key to every victim.
"""

from repro.crypto.hashes import HASH_ALGORITHMS, HashAlgorithm, hash_by_name
from repro.crypto.keystore import KeyStore, shared_keystore
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.vault import KeyVault, open_vault
from repro.crypto.rsa import (
    CryptoError,
    RsaKeyPair,
    RsaPublicKey,
    generate_rsa_key,
    pkcs1_sign,
    pkcs1_verify,
)

__all__ = [
    "CryptoError",
    "HASH_ALGORITHMS",
    "HashAlgorithm",
    "KeyStore",
    "KeyVault",
    "open_vault",
    "shared_keystore",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_prime",
    "generate_rsa_key",
    "hash_by_name",
    "is_probable_prime",
    "pkcs1_sign",
    "pkcs1_verify",
]
