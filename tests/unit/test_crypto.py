"""Unit tests for primes, RSA and the key store."""

import random

import pytest

from repro.crypto.hashes import HASH_ALGORITHMS, hash_by_name
from repro.crypto.hashes import hash_by_signature_oid
from repro.crypto.keystore import KeyStore
from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rsa import (
    CryptoError,
    generate_rsa_key,
    pkcs1_sign,
    pkcs1_verify,
)


class TestPrimes:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 11, 97, 1999):
            assert is_probable_prime(p)

    def test_small_composites_rejected(self):
        for n in (0, 1, 4, 9, 100, 561, 1105, 6601):  # includes Carmichaels
            assert not is_probable_prime(n)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2**127 - 1)

    def test_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * 3)

    def test_generated_prime_has_exact_bits(self):
        rng = random.Random(7)
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_determinism(self):
        assert generate_prime(96, random.Random(42)) == generate_prime(
            96, random.Random(42)
        )

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


class TestRsa:
    def test_keygen_properties(self):
        key = generate_rsa_key(512, random.Random(1))
        assert key.bits == 512
        assert key.n == key.p * key.q
        assert (key.d * key.e) % ((key.p - 1) * (key.q - 1)) == 1

    def test_odd_size_rejected(self):
        with pytest.raises(CryptoError):
            generate_rsa_key(513, random.Random(1))

    @pytest.mark.parametrize("hash_name", sorted(HASH_ALGORITHMS))
    def test_sign_verify_round_trip(self, hash_name):
        key = generate_rsa_key(512, random.Random(2))
        message = b"The quick brown fox"
        signature = pkcs1_sign(key, hash_by_name(hash_name), message)
        assert len(signature) == 64
        assert pkcs1_verify(key.public, hash_by_name(hash_name), message, signature)

    def test_verify_rejects_tampered_message(self):
        key = generate_rsa_key(512, random.Random(3))
        alg = hash_by_name("sha256")
        signature = pkcs1_sign(key, alg, b"original")
        assert not pkcs1_verify(key.public, alg, b"tampered", signature)

    def test_verify_rejects_tampered_signature(self):
        key = generate_rsa_key(512, random.Random(4))
        alg = hash_by_name("sha1")
        signature = bytearray(pkcs1_sign(key, alg, b"msg"))
        signature[10] ^= 0xFF
        assert not pkcs1_verify(key.public, alg, b"msg", bytes(signature))

    def test_verify_rejects_wrong_key(self):
        key_a = generate_rsa_key(512, random.Random(5))
        key_b = generate_rsa_key(512, random.Random(6))
        alg = hash_by_name("sha256")
        signature = pkcs1_sign(key_a, alg, b"msg")
        assert not pkcs1_verify(key_b.public, alg, b"msg", signature)

    def test_verify_rejects_wrong_hash(self):
        key = generate_rsa_key(512, random.Random(7))
        signature = pkcs1_sign(key, hash_by_name("sha256"), b"msg")
        assert not pkcs1_verify(key.public, hash_by_name("md5"), b"msg", signature)

    def test_verify_rejects_wrong_length_signature(self):
        key = generate_rsa_key(512, random.Random(8))
        alg = hash_by_name("sha256")
        assert not pkcs1_verify(key.public, alg, b"msg", b"\x00" * 63)

    def test_sign_with_tiny_key_rejected(self):
        key = generate_rsa_key(128, random.Random(9))
        with pytest.raises(CryptoError, match="too small"):
            pkcs1_sign(key, hash_by_name("sha256"), b"msg")

    def test_512_bit_key_signs_md5(self):
        # The IopFail malware's exact configuration must work.
        key = generate_rsa_key(512, random.Random(10))
        alg = hash_by_name("md5")
        signature = pkcs1_sign(key, alg, b"substitute cert")
        assert pkcs1_verify(key.public, alg, b"substitute cert", signature)


class TestHashRegistry:
    def test_signature_oid_lookup(self):
        alg = hash_by_signature_oid("1.2.840.113549.1.1.11")
        assert alg.name == "sha256"

    def test_unknown_oid(self):
        with pytest.raises(KeyError):
            hash_by_signature_oid("1.2.3.4")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            hash_by_name("sha512/224")

    def test_digest_sizes(self):
        assert hash_by_name("md5").digest_size == 16
        assert hash_by_name("sha1").digest_size == 20
        assert hash_by_name("sha256").digest_size == 32


class TestKeyStore:
    def test_same_slot_same_key(self):
        store = KeyStore(seed=1)
        assert store.key("bitdefender", 512) is store.key("bitdefender", 512)

    def test_different_labels_different_keys(self):
        store = KeyStore(seed=1)
        assert store.key("a", 512).n != store.key("b", 512).n

    def test_same_seed_reproduces_keys(self):
        assert KeyStore(seed=9).key("x", 512).n == KeyStore(seed=9).key("x", 512).n

    def test_different_seeds_differ(self):
        assert KeyStore(seed=1).key("x", 512).n != KeyStore(seed=2).key("x", 512).n

    def test_len_counts_slots(self):
        store = KeyStore()
        store.key("a", 512)
        store.key("a", 512)
        store.key("b", 512)
        assert len(store) == 2


class TestCrtConstants:
    """The CRT constants are precomputed per key, not per signature."""

    def test_constants_match_definitions(self):
        key = KeyStore(seed=3).key("crt", 512)
        assert key.dp == key.d % (key.p - 1)
        assert key.dq == key.d % (key.q - 1)
        assert (key.q_inv * key.q) % key.p == 1

    def test_constants_cached_on_instance(self):
        key = KeyStore(seed=3).key("crt-cache", 512)
        assert key.dp is key.dp  # same int object: cached, not recomputed
        assert key.q_inv is key.q_inv

    def test_sign_uses_cached_constants(self):
        """A signature must equal the textbook m^d mod n result."""
        key = KeyStore(seed=4).key("crt-sign", 512)
        alg = hash_by_name("sha256")
        signature = pkcs1_sign(key, alg, b"payload")
        value = int.from_bytes(signature, "big")
        key_bytes = (key.n.bit_length() + 7) // 8
        recovered = pow(value, key.e, key.n).to_bytes(key_bytes, "big")
        from repro.crypto.rsa import _digest_info, _pkcs1_pad

        assert recovered == _pkcs1_pad(_digest_info(alg, b"payload"), key_bytes)


class TestDigestInfoPrefix:
    """DigestInfo DER is a constant prefix plus the digest bytes."""

    def test_prefix_matches_full_der_construction(self):
        from repro.asn1.types import Null, ObjectIdentifier, OctetString, Sequence
        from repro.crypto.rsa import _digest_info

        for alg in HASH_ALGORITHMS.values():
            algorithm = Sequence([ObjectIdentifier(alg.digest_oid), Null()])
            expected = Sequence(
                [algorithm, OctetString(alg.digest(b"abc"))]
            ).encode()
            assert _digest_info(alg, b"abc") == expected

    def test_prefix_cached_per_algorithm(self):
        from repro.crypto.rsa import _DIGEST_INFO_PREFIXES, _digest_info

        _digest_info(hash_by_name("sha1"), b"x")
        _digest_info(hash_by_name("sha1"), b"y")
        assert "sha1" in _DIGEST_INFO_PREFIXES
