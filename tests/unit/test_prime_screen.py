"""The prime screen decides what one gcd with every prime below 2^16 would.

:func:`repro.crypto.primes.is_probable_prime` screens a candidate in
steps (one-word remainders, a gcd with the primes 47–2039, and a gcd
with the stage-2 product reduced by libcrypto's ``BN_div``).  Keys are
a pure function of the rng, and a candidate the screen rejects draws no
witness bases, so the screen must reject exactly the candidates with a
prime factor below 2^16.  These tests hold it to an oracle recomputed
here, and key generation to a copy of the earlier two-gcd screen.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bignum import force_unreachable

from repro.crypto import bignum, primes
from repro.crypto.rsa import generate_rsa_key


def sieve(limit: int) -> list[int]:
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, limit, i))
    return [i for i, prime in enumerate(flags) if prime]


SMALL = sieve(1 << 16)
SMALL_SET = frozenset(SMALL)
ALL_SMALL = math.prod(SMALL)
# Primes just above 2^16: their products are composites the screen passes.
ABOVE = [p for p in sieve((1 << 16) + 400) if p > 1 << 16]
# A factor on each side of every boundary between screening steps.
PLANTED = (23, 29, 43, 47, 2039, 2053, 65521)


def oracle(n: int) -> bool:
    """Whether ``n`` has no prime factor below 2^16."""
    return math.gcd(n, ALL_SMALL) == 1


def passes_screen(n: int) -> bool:
    """Whether ``is_probable_prime`` lets ``n`` (above 2^16) past the screen.

    Below 2^32 the screen decides alone and a pass is a True verdict;
    above, a pass draws a witness base from the rng.
    """
    rng = random.Random(n)
    before = rng.getstate()
    verdict = primes.is_probable_prime(n, rounds=1, rng=rng)
    return verdict or rng.getstate() != before


@st.composite
def odd_candidates(draw):
    bits = draw(st.integers(min_value=17, max_value=4096))
    return draw(st.integers(0, (1 << bits) - 1)) | (1 << (bits - 1)) | 1


@st.composite
def planted_factors(draw):
    factor = draw(st.sampled_from(PLANTED))
    bits = draw(st.integers(min_value=17, max_value=4000))
    return factor * (draw(st.integers(0, (1 << bits) - 1)) | (1 << (bits - 1)))


class TestScreenDecision:
    @settings(max_examples=300, deadline=None)
    @given(odd_candidates())
    def test_random_odd_candidates(self, n):
        assert passes_screen(n) == oracle(n)

    @settings(max_examples=200, deadline=None)
    @given(planted_factors())
    def test_planted_factor_at_each_boundary(self, n):
        assert not oracle(n)
        assert not passes_screen(n)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(ABOVE), st.sampled_from(ABOVE))
    def test_products_of_primes_just_above_the_limit(self, p, q):
        n = p * q
        assert oracle(n)
        assert passes_screen(n)
        assert not primes.is_probable_prime(n)

    @pytest.mark.parametrize(
        "n",
        [
            (1 << 16) - 15,  # 65521, the largest prime the set holds
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,  # 65537
            65521 * 65521,  # composite below 2^32
            2053 * 2063,
            (1 << 32) - 5,  # the largest prime below 2^32
            1 << 32,
            (1 << 32) + 15,  # the smallest prime above 2^32
            43 * 47 * ((1 << 61) - 1),
        ],
    )
    def test_boundaries(self, n):
        if n < 1 << 16:
            assert primes.is_probable_prime(n) == (n in SMALL_SET)
        else:
            assert passes_screen(n) == oracle(n)
        if n < 1 << 32:
            # Decided exactly, without Miller–Rabin.
            assert primes.is_probable_prime(n) == (n in SMALL_SET or oracle(n))


@pytest.mark.parametrize(
    "product, low, high",
    [
        ("_WORD_A", 2, 29),
        ("_WORD_B", 29, 47),
        ("_MID_PRODUCT", 47, 2048),
        ("_STAGE2_PRODUCT", 2048, 1 << 16),
    ],
)
def test_screen_products_equal_math_prod(product, low, high):
    assert primes._SMALL_PRIMES == SMALL
    expected = math.prod(p for p in SMALL if low <= p < high)
    assert getattr(primes, product) == expected == primes._product(low, high)


@pytest.mark.parametrize("low, high", [(2, 2), (2, 3), (2, 6), (3, 12), (100, 1000)])
def test_product_of_any_range_equals_math_prod(low, high):
    # Empty, one factor, and odd and even counts of factors.
    assert primes._product(low, high) == math.prod(p for p in SMALL if low <= p < high)


# The screen as it was before the cascade: one gcd with the product of
# the primes below 2^11, then one with the rest up to 2^16.
STAGE1 = math.prod(p for p in SMALL if p < 2048)
STAGE2 = math.prod(p for p in SMALL if p >= 2048)


def two_gcd_is_probable_prime(n, rounds=20, rng=None):
    if n < 2:
        return False
    if n <= SMALL[-1]:
        return n in SMALL_SET
    if math.gcd(n, STAGE1) != 1:
        return False
    if math.gcd(n, STAGE2) != 1:
        return False
    if n < 1 << 32:
        return True
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = bignum.powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generated(monkeypatch, generate, bits, seed, reference):
    """What ``generate(bits, rng)`` returns and the rng state it leaves."""
    rng = random.Random(seed)
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(primes, "is_probable_prime", two_gcd_is_probable_prime)
        value = generate(bits, rng)
    return value, rng.getstate()


@pytest.mark.parametrize("bits", [512, 1024, 2048])
@pytest.mark.parametrize(
    "generate", [primes.generate_prime, generate_rsa_key], ids=["prime", "rsa"]
)
def test_generation_matches_the_two_gcd_screen(monkeypatch, generate, bits):
    for seed in range(20):
        assert generated(monkeypatch, generate, bits, seed, False) == generated(
            monkeypatch, generate, bits, seed, True
        )


@st.composite
def remainder_arguments(draw):
    dividend = draw(
        st.sampled_from([0, 1, primes._STAGE2_PRODUCT])
        | st.integers(0, (1 << 8192) - 1)
    )
    bits = draw(st.integers(min_value=1, max_value=4096))
    return dividend, draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


class TestDividend:
    @settings(max_examples=200, deadline=None)
    @given(remainder_arguments())
    def test_remainder_equals_builtin_mod(self, arguments):
        dividend, modulus = arguments
        assert bignum.Dividend(dividend).remainder(modulus) == dividend % modulus

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 1024))
    def test_stage2_remainder_equals_builtin_mod(self, modulus):
        assert primes._STAGE2.remainder(modulus) == primes._STAGE2_PRODUCT % modulus

    @settings(max_examples=50, deadline=None)
    @given(remainder_arguments())
    def test_fallback_equals_builtin_mod(self, arguments):
        dividend, modulus = arguments
        with pytest.MonkeyPatch.context() as patch:
            force_unreachable(patch)
            kept = bignum.Dividend(dividend)
            assert kept.remainder(modulus) == dividend % modulus
            assert bignum._libcrypto is False
            assert kept._bignum is None

    @pytest.mark.parametrize("modulus", [-7, -(1 << 100) - 1])
    def test_outside_the_domain_returns_builtin_mod(self, modulus):
        kept = bignum.Dividend(primes._STAGE2_PRODUCT)
        assert kept.remainder(modulus) == primes._STAGE2_PRODUCT % modulus
        assert kept._bignum is None

    def test_modulus_zero_raises_as_builtin_mod(self):
        with pytest.raises(ZeroDivisionError):
            bignum.Dividend(12345).remainder(0)

    @pytest.mark.parametrize("value", [-1, 2.0])
    def test_rejects_a_dividend_that_is_not_a_non_negative_int(self, value):
        with pytest.raises(ValueError):
            bignum.Dividend(value)

    def test_bignum_is_built_once_on_first_use(self):
        if not bignum._load():
            pytest.skip("libcrypto is not reachable through _hashlib here")
        kept = bignum.Dividend(primes._STAGE2_PRODUCT)
        assert kept._bignum is None
        modulus = (1 << 521) - 1
        assert kept.remainder(modulus) == primes._STAGE2_PRODUCT % modulus
        built = kept._bignum
        assert built
        assert kept.remainder(modulus - 2) == primes._STAGE2_PRODUCT % (modulus - 2)
        assert kept._bignum == built
