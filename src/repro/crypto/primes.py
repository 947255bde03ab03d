"""Probabilistic prime generation (Miller–Rabin).

Generation is driven by a caller-supplied ``random.Random`` so the
entire reproduction is deterministic for a given seed.

Candidate screening is batched: instead of trial-dividing by every
small prime, a staged pair of ``gcd`` calls against precomputed
products of all primes below 2^11 and 2^16 rejects ~95 % of random
odd composites before any modular exponentiation runs — a bigint
batching trick that spares most candidates a Miller–Rabin round.  The
first product is small enough that its gcd is nearly free for the
common case; only survivors pay for the second, bigger product.  Because every composite below ``_STAGE2_LIMIT**2``
has a factor in one of the products, numbers that small are decided
exactly, without Miller–Rabin at all.

Each round's witness power ``a^d mod n`` goes through
:func:`~repro.crypto.bignum.powmod` (libcrypto where it can be
reached); the squarings that follow stay on builtin ``pow``, since one
modular square costs less than the round trip.
"""

from __future__ import annotations

import math
import random

from repro.crypto.bignum import powmod

_STAGE1_LIMIT = 2048
_STAGE2_LIMIT = 65536


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, keep in enumerate(flags) if keep]


# Screening tables, built eagerly at import: worker threads and
# processes call straight into ``is_probable_prime``, and a lazily
# initialised module global could be observed half-published.
_SMALL_PRIMES: list[int] = _sieve(_STAGE2_LIMIT)
_SMALL_PRIME_SET: frozenset[int] = frozenset(_SMALL_PRIMES)
_STAGE1_SPLIT = sum(1 for p in _SMALL_PRIMES if p < _STAGE1_LIMIT)
_STAGE1_PRODUCT = math.prod(_SMALL_PRIMES[:_STAGE1_SPLIT])
_STAGE2_PRODUCT = math.prod(_SMALL_PRIMES[_STAGE1_SPLIT:])


def _small_primes() -> list[int]:
    return _SMALL_PRIMES


def is_probable_prime(n: int, rounds: int = 20, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test with ``rounds`` random bases."""
    if n < 2:
        return False
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _STAGE1_PRODUCT) != 1:
        return False
    if math.gcd(n, _STAGE2_PRODUCT) != 1:
        return False
    if n < _STAGE2_LIMIT * _STAGE2_LIMIT:
        # Any composite this small has a factor in a product above.
        return True
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


# Random k-bit candidates need far fewer witness rounds than the
# conservative default for adversarial input: after trial division,
# eight rounds push the error probability below 2^-60 for the key
# sizes the study mints (Damgård–Landrock–Pomerance bounds).
_GENERATION_ROUNDS = 8


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError(f"prime size too small: {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force bit length and oddness
        if is_probable_prime(candidate, rounds=_GENERATION_ROUNDS, rng=rng):
            return candidate
