"""Deterministic pooled RSA key generation.

Key generation is the costliest step of the reproduction, even with
its exponentiations in libcrypto (:mod:`repro.crypto.bignum`); a
measurement run mints hundreds of thousands of substitute
certificates.  The pool resolves the tension the same way the measured
ecosystem does: every product has one CA key it uses forever, and leaf
keys are reused per (product, size) slot.  Keys are derived
deterministically from the store seed and the slot label, so two
stores with the same seed hold identical keys.

A store can additionally be backed by a disk-persistent
:class:`~repro.crypto.vault.KeyVault`: the vault is consulted before
any generation, and freshly generated material is written back, so a
warmed vault turns every later ``key()`` call — in this process, in a
worker process, or in next week's run — into a microsecond JSON load
instead of a Miller–Rabin search.
"""

from __future__ import annotations

import random
import zlib

from repro.crypto.rsa import RsaKeyPair, generate_rsa_key
from repro.crypto.vault import KeyVault, open_vault
from repro.obs.metrics import MetricsRegistry


class KeyStore:
    """Cache of deterministically generated RSA keys, keyed by slot label.

    ``vault`` may be a :class:`KeyVault`, a directory path, or ``None``
    (which falls back to the ``REPRO_KEY_VAULT`` environment variable).
    ``keys_generated`` counts actual ``generate_rsa_key`` calls —
    vault and in-memory hits leave it untouched, which is what the
    warm-vault determinism tests assert on.

    Counting lives on a :class:`MetricsRegistry` (``registry``, or a
    private one) as *process* counters — keygen and vault traffic
    depend on process boundaries, never on the data — and the
    historical ``keys_generated``/``vault_hits`` attributes remain as
    live views onto those counters.
    """

    def __init__(self, seed: int = 0, vault=None, registry=None) -> None:
        self._seed = seed
        self._cache: dict[tuple[str, int], RsaKeyPair] = {}
        self._vault: KeyVault | None = open_vault(vault)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._keys_generated = self.metrics.process_counter(
            "keystore.keys_generated"
        )
        self._vault_hits = self.metrics.process_counter("keystore.vault_hits")
        self._vault_misses = self.metrics.process_counter("keystore.vault_misses")
        self._vault_stores = self.metrics.process_counter("keystore.vault_stores")

    @property
    def vault(self) -> KeyVault | None:
        return self._vault

    @property
    def keys_generated(self) -> int:
        return self._keys_generated.value

    @property
    def vault_hits(self) -> int:
        return self._vault_hits.value

    def key(self, label: str, bits: int) -> RsaKeyPair:
        """Return the key for ``(label, bits)``, generating it on first use."""
        slot = (label, bits)
        pair = self._cache.get(slot)
        if pair is None:
            pair = self._load_or_generate(label, bits)
            self._cache[slot] = pair
        return pair

    def _load_or_generate(self, label: str, bits: int) -> RsaKeyPair:
        if self._vault is not None:
            pair = self._vault.load(self._seed, label, bits)
            if pair is not None:
                self._vault_hits.inc()
                return pair
            self._vault_misses.inc()
        with self.metrics.span("keystore.generate", bits=bits):
            rng = random.Random(self._derive_seed(label, bits))
            pair = generate_rsa_key(bits, rng)
        self._keys_generated.inc()
        if self._vault is not None:
            self._vault.store(self._seed, label, bits, pair)
            self._vault_stores.inc()
        return pair

    def _derive_seed(self, label: str, bits: int) -> int:
        material = f"{self._seed}:{label}:{bits}".encode("utf-8")
        return zlib.crc32(material) ^ (self._seed << 16) ^ bits

    def __len__(self) -> int:
        return len(self._cache)


_SHARED: dict[int, KeyStore] = {}


def shared_keystore(seed: int = 0) -> KeyStore:
    """Process-wide stores, memoised per seed, so keygen amortises.

    Every caller asking for the same seed gets the same store — the
    second subsystem to need seed-7 keys reuses the first one's pool
    instead of paying generation again behind a fresh private store.
    """
    store = _SHARED.get(seed)
    if store is None:
        store = _SHARED[seed] = KeyStore(seed)
    return store
