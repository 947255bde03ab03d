"""``powmod`` against builtin ``pow``, on the libcrypto path and its fallback.

:func:`repro.crypto.bignum.powmod` must return exactly ``pow(base,
exponent, modulus)`` whichever path computes it, so every key,
signature and certificate built on it is the same whether or not
libcrypto can be reached.
"""

import os
import pathlib
import random
import subprocess
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.scenarios import AuditPki
from repro.crypto import bignum
from repro.crypto.hashes import hash_by_name
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import generate_rsa_key, pkcs1_sign

# The tree this process imported ``repro`` from, for the subprocess check.
SRC = pathlib.Path(bignum.__file__).resolve().parents[2]

needs_libcrypto = pytest.mark.skipif(
    not bignum._load(), reason="libcrypto is not reachable through _hashlib here"
)

# What ``import _hashlib`` finds when libcrypto cannot be reached, one
# per exception the loader falls back on.
UNREACHABLE = {
    "no-hashlib": None,  # ImportError
    "no-file": types.ModuleType("_hashlib"),  # AttributeError
    "not-a-library": types.SimpleNamespace(__file__=__file__),  # OSError
}


def force_unreachable(monkeypatch, stand_in=None):
    """Reset the loader and hide libcrypto from it for this test."""
    monkeypatch.setattr(bignum, "_libcrypto", None)
    monkeypatch.setitem(sys.modules, "_hashlib", stand_in)


@st.composite
def powmod_arguments(draw):
    bits = draw(st.integers(min_value=2, max_value=4096))
    modulus = draw(st.integers(0, (1 << bits) - 1)) | (1 << (bits - 1)) | 1
    base = draw(st.sampled_from([0, 1, modulus - 1]) | st.integers(0, modulus - 1))
    exponent = draw(st.sampled_from([0, 1]) | st.integers(0, (1 << 1024) - 1))
    return base, exponent, modulus


class TestPowmod:
    @settings(max_examples=200, deadline=None)
    @given(powmod_arguments())
    def test_equals_builtin_pow_for_odd_moduli(self, arguments):
        assert bignum.powmod(*arguments) == pow(*arguments)

    @pytest.mark.parametrize(
        "base, exponent, modulus",
        [
            (5, 3, 16),  # even modulus
            (5, 3, 1),  # modulus 1
            (5, 3, -17),  # negative modulus
            (-5, 3, 17),  # negative base
            (5, -1, 17),  # negative exponent: the modular inverse
            (20, 3, 17),  # base above the modulus
            (17, 3, 17),  # base equal to the modulus
        ],
    )
    def test_outside_the_domain_returns_builtin_pow(self, base, exponent, modulus):
        assert bignum.powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize(
        "base, exponent, modulus",
        [
            (4, -1, 16),  # no inverse
            (5, 3, 0),  # modulus 0
            (2.0, 3, 17),  # not an int
        ],
    )
    def test_outside_the_domain_raises_as_builtin_pow(self, base, exponent, modulus):
        with pytest.raises(Exception) as expected:
            pow(base, exponent, modulus)
        with pytest.raises(type(expected.value)):
            bignum.powmod(base, exponent, modulus)


class TestLoader:
    def test_takes_libcrypto_where_hashlib_reaches_it(self):
        import ctypes

        try:
            import _hashlib

            lib = ctypes.CDLL(_hashlib.__file__)
            reachable = all(hasattr(lib, name) for name in ("BN_mod_exp", "BN_div"))
        except (ImportError, AttributeError, OSError):
            reachable = False
        assert bool(bignum._load()) == reachable

    @pytest.mark.parametrize("stand_in", UNREACHABLE.values(), ids=UNREACHABLE)
    def test_falls_back_to_builtin_pow(self, monkeypatch, stand_in):
        force_unreachable(monkeypatch, stand_in)
        modulus = (1 << 127) - 1
        assert bignum.powmod(3, modulus - 2, modulus) == pow(3, modulus - 2, modulus)
        assert bignum._libcrypto is False


def rsa_material() -> list:
    sha256, md5 = hash_by_name("sha256"), hash_by_name("md5")
    material = []
    for bits in (512, 1024):
        for seed in (1, 2, 3):
            key = generate_rsa_key(bits, random.Random(seed))
            material.append((key.n, key.e, key.d, key.p, key.q))
            for alg in (sha256, md5):
                material.append(pkcs1_sign(key, alg, b"substitute %d" % seed))
    return material


def audit_pki_material(monkeypatch) -> list:
    monkeypatch.delenv("REPRO_KEY_VAULT", raising=False)
    keystore = KeyStore(seed=42)
    pki = AuditPki(keystore, seed=42)
    assert keystore.keys_generated == 3
    return [
        pki.root.certificate.encode(),
        pki.intermediate.certificate.encode(),
        pki.attacker.certificate.encode(),
    ]


@needs_libcrypto
class TestSameBytesWithoutLibcrypto:
    def test_rsa_keys_and_signatures(self, monkeypatch):
        with_libcrypto = rsa_material()
        force_unreachable(monkeypatch)
        assert rsa_material() == with_libcrypto
        assert bignum._libcrypto is False

    def test_audit_pki(self, monkeypatch):
        with_libcrypto = audit_pki_material(monkeypatch)
        force_unreachable(monkeypatch)
        assert audit_pki_material(monkeypatch) == with_libcrypto
        assert bignum._libcrypto is False


def test_ctypes_loads_on_first_exponentiation_and_ssl_never():
    script = textwrap.dedent(
        """
        import random
        import sys

        import repro.crypto.rsa
        import repro.measure.store

        print("ctypes" in sys.modules, "ssl" in sys.modules)
        repro.crypto.rsa.generate_rsa_key(512, random.Random(1))
        print("ctypes" in sys.modules, "ssl" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert run.stdout.split() == ["False", "False", "True", "False"]
