"""RSA key generation and PKCS#1 v1.5 signatures.

Signatures are computed over a DER ``DigestInfo`` exactly as RFC 8017
§9.2 specifies, so every certificate signature in the reproduction can
be verified (or shown broken) by independent code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from repro.asn1.types import Null, ObjectIdentifier, OctetString, Sequence
from repro.crypto.bignum import powmod
from repro.crypto.hashes import HashAlgorithm
from repro.crypto.primes import generate_prime

DEFAULT_PUBLIC_EXPONENT = 65537


class CryptoError(ValueError):
    """Raised on invalid keys, padding errors, or size mismatches."""


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        """Modulus size in bits — the 'public key size' the paper reports."""
        return self.n.bit_length()

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaKeyPair:
    """An RSA key pair; ``d`` is the private exponent."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    # CRT constants are fixed by (d, p, q); one key signs every
    # substitute certificate of its product, so they are computed once
    # per key instead of once per signature.  ``cached_property``
    # stores them on the instance without thawing the dataclass.

    @cached_property
    def dp(self) -> int:
        return self.d % (self.p - 1)

    @cached_property
    def dq(self) -> int:
        return self.d % (self.q - 1)

    @cached_property
    def q_inv(self) -> int:
        return pow(self.q, -1, self.p)

    @classmethod
    def with_cached_crt(
        cls, *, n: int, e: int, d: int, p: int, q: int,
        dp: int, dq: int, q_inv: int,
    ) -> "RsaKeyPair":
        """Rebuild a key pair with its CRT constants pre-installed.

        Deserialisers (the key vault) carry ``dp``/``dq``/``q_inv``
        alongside the key so a loaded key signs at full speed without
        recomputing the modular inverse.  ``cached_property`` reads the
        instance ``__dict__`` first, which is also how it writes its
        own cache — seeding it here bypasses the frozen-dataclass
        ``__setattr__`` exactly the way the property itself does.
        """
        pair = cls(n=n, e=e, d=d, p=p, q=q)
        pair.__dict__.update(dp=dp, dq=dq, q_inv=q_inv)
        return pair


def generate_rsa_key(bits: int, rng: random.Random) -> RsaKeyPair:
    """Generate an RSA key pair with an exactly ``bits``-bit modulus."""
    if bits < 32 or bits % 2:
        raise CryptoError(f"unsupported RSA key size: {bits}")
    e = DEFAULT_PUBLIC_EXPONENT
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RsaKeyPair(n=n, e=e, d=d, p=p, q=q)


# DigestInfo DER for a given algorithm differs only in the trailing
# digest bytes (the digest length is fixed per algorithm), so the
# constant prefix is built once and signatures just append the digest.
_DIGEST_INFO_PREFIXES: dict[str, bytes] = {}


def _digest_info_prefix(hash_alg: HashAlgorithm) -> bytes:
    prefix = _DIGEST_INFO_PREFIXES.get(hash_alg.name)
    if prefix is None:
        algorithm = Sequence([ObjectIdentifier(hash_alg.digest_oid), Null()])
        placeholder = bytes(hash_alg.digest_size)
        encoded = Sequence([algorithm, OctetString(placeholder)]).encode()
        assert encoded.endswith(placeholder)
        prefix = encoded[: len(encoded) - hash_alg.digest_size]
        _DIGEST_INFO_PREFIXES[hash_alg.name] = prefix
    return prefix


def _digest_info(hash_alg: HashAlgorithm, data: bytes) -> bytes:
    """DER DigestInfo ::= SEQUENCE { AlgorithmIdentifier, OCTET STRING }."""
    return _digest_info_prefix(hash_alg) + hash_alg.digest(data)


def _pkcs1_pad(digest_info: bytes, key_bytes: int) -> bytes:
    """EMSA-PKCS1-v1_5 padding: 00 01 FF..FF 00 || DigestInfo."""
    padding_len = key_bytes - len(digest_info) - 3
    if padding_len < 8:
        raise CryptoError(
            f"key too small for digest: {key_bytes * 8}-bit key, "
            f"{len(digest_info)}-byte DigestInfo"
        )
    return b"\x00\x01" + b"\xff" * padding_len + b"\x00" + digest_info


def pkcs1_sign(key: RsaKeyPair, hash_alg: HashAlgorithm, data: bytes) -> bytes:
    """Sign ``data`` with RSASSA-PKCS1-v1_5; returns a key-sized signature.

    Uses the CRT optimisation (two half-size exponentiations) — the
    study signs one substitute certificate per proxied connection, so
    the private operation is the hot path of full-scale runs.
    """
    key_bytes = (key.n.bit_length() + 7) // 8
    padded = _pkcs1_pad(_digest_info(hash_alg, data), key_bytes)
    message = int.from_bytes(padded, "big")
    signature = _crt_power(message, key)
    return signature.to_bytes(key_bytes, "big")


def _crt_power(message: int, key: RsaKeyPair) -> int:
    """m^d mod n via the Chinese Remainder Theorem."""
    m1 = powmod(message % key.p, key.dp, key.p)
    m2 = powmod(message % key.q, key.dq, key.q)
    h = (key.q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


def synthetic_public_key(bits: int, rng: random.Random) -> tuple[int, int]:
    """A random odd modulus of exactly ``bits`` bits, with e=65537.

    End-entity keys in this reproduction never perform a private
    operation (the probe aborts before the key exchange), so the leaf
    "key" only needs the right *size* — which is what the paper's
    key-strength analysis measures.  Skipping primality testing makes
    full-scale substitute-certificate generation feasible.
    """
    if bits < 16:
        raise CryptoError(f"synthetic key too small: {bits}")
    n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return n, DEFAULT_PUBLIC_EXPONENT


def pkcs1_verify(
    key: RsaPublicKey, hash_alg: HashAlgorithm, data: bytes, signature: bytes
) -> bool:
    """Verify an RSASSA-PKCS1-v1_5 signature; returns False on any mismatch."""
    key_bytes = key.byte_length
    if len(signature) != key_bytes:
        return False
    value = int.from_bytes(signature, "big")
    if value >= key.n:
        return False
    recovered = pow(value, key.e, key.n).to_bytes(key_bytes, "big")
    try:
        expected = _pkcs1_pad(_digest_info(hash_alg, data), key_bytes)
    except CryptoError:
        return False
    # Constant-time comparison is irrelevant in a simulator, but cheap.
    return recovered == expected
