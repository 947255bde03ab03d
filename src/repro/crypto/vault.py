"""Content-addressed, disk-persistent RSA key-material vault.

Key generation is the costliest step of the reproduction (a
Miller–Rabin search per prime), and a sharded run pays it once *per
worker process* — the parent's in-memory
:class:`~repro.crypto.keystore.KeyStore` cache does not cross a fork.
Real interception appliances amortise one long-lived CA key across
every connection they ever intercept (Waked et al., NDSS 2018); the
vault gives the reproduction the same economics across processes *and*
across runs.

Design:

* **Content-addressed** — an entry's filename is a Blake2s digest of
  ``(format, seed, label, bits)``, the exact inputs that determine the
  key bytes.  The same slot always lands in the same file, and two
  stores of the same slot write identical content.
* **Single file per key, atomic rename** — writers serialise to a
  unique temp file in the final directory and ``os.replace`` it into
  place.  Readers either see a complete entry or none; concurrent
  writers race harmlessly because every writer of a slot produces the
  same bytes (key generation is deterministic per slot).
* **CRT constants travel with the key** — ``dp``/``dq``/``q_inv`` are
  serialised and re-installed on load, so a vault-loaded key signs at
  full speed from its first signature.

Entries are verified on load (field echo, ``p*q == n``, modulus size);
anything unreadable or inconsistent is treated as a miss and simply
regenerated.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.crypto.rsa import RsaKeyPair

# Bump when the serialisation or the key-derivation inputs change; old
# entries then miss (different address) instead of loading stale keys.
VAULT_FORMAT = 1

_ENV_VAR = "REPRO_KEY_VAULT"


class KeyVault:
    """A directory of serialised :class:`RsaKeyPair` entries."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    # -- addressing -------------------------------------------------------

    @staticmethod
    def address(seed: int, label: str, bits: int) -> str:
        """Content address of the ``(seed, label, bits)`` slot."""
        material = "\x1f".join(
            (str(VAULT_FORMAT), str(seed), label, str(bits))
        ).encode("utf-8")
        return hashlib.blake2s(material, digest_size=16).hexdigest()

    def entry_path(self, seed: int, label: str, bits: int) -> Path:
        addr = self.address(seed, label, bits)
        # Two-hex-char fan-out keeps directories small at census scale.
        return self.path / addr[:2] / f"{addr}.json"

    # -- load / store -----------------------------------------------------

    def load(self, seed: int, label: str, bits: int) -> RsaKeyPair | None:
        """Return the stored key for the slot, or ``None`` on any miss.

        Corrupt, truncated or mismatched entries count as misses: the
        caller regenerates (and overwrites) rather than failing a run
        over a bad cache file.
        """
        path = self.entry_path(seed, label, bits)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        try:
            if (
                payload["format"] != VAULT_FORMAT
                or payload["seed"] != seed
                or payload["label"] != label
                or payload["bits"] != bits
            ):
                return None
            n = int(payload["n"], 16)
            e = int(payload["e"], 16)
            d = int(payload["d"], 16)
            p = int(payload["p"], 16)
            q = int(payload["q"], 16)
            dp = int(payload["dp"], 16)
            dq = int(payload["dq"], 16)
            q_inv = int(payload["q_inv"], 16)
        except (KeyError, TypeError, ValueError):
            return None
        if p * q != n or n.bit_length() != bits:
            return None
        if dp != d % (p - 1) or dq != d % (q - 1) or (q_inv * q) % p != 1:
            return None
        return RsaKeyPair.with_cached_crt(
            n=n, e=e, d=d, p=p, q=q, dp=dp, dq=dq, q_inv=q_inv
        )

    def store(self, seed: int, label: str, bits: int, pair: RsaKeyPair) -> bool:
        """Persist ``pair`` for the slot; returns True if the slot was new.

        The write is atomic: a unique temp file in the destination
        directory is ``os.replace``d into place, so a concurrent reader
        never observes a partial entry and a concurrent writer of the
        same slot just wins (or loses) a rename of identical bytes.  An
        existing entry is overwritten — callers only store after a
        miss, so whatever was there was unreadable and is healed.
        """
        path = self.entry_path(seed, label, bits)
        existed = path.exists()
        payload = {
            "format": VAULT_FORMAT,
            "seed": seed,
            "label": label,
            "bits": bits,
            "n": f"{pair.n:x}",
            "e": f"{pair.e:x}",
            "d": f"{pair.d:x}",
            "p": f"{pair.p:x}",
            "q": f"{pair.q:x}",
            "dp": f"{pair.dp:x}",
            "dq": f"{pair.dq:x}",
            "q_inv": f"{pair.q_inv:x}",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        return not existed

    # -- maintenance ------------------------------------------------------

    def gc(self, keep_seeds) -> tuple[int, int]:
        """Prune entries whose seed is not in ``keep_seeds``.

        Long-lived CI caches accrete entries for every seed anyone
        ever ran; this keeps the cache bounded by retiring the slots
        no kept seed can ever address again — the address is a digest
        of ``(format, seed, ...)``, so a foreign-seed or stale-format
        entry is dead weight, never a hit.  Unreadable entries and
        orphaned writer temp files are removed too (both are misses by
        definition), and emptied fan-out directories are dropped.
        Returns ``(kept, removed)``.
        """
        keep = {int(seed) for seed in keep_seeds}
        kept = 0
        removed = 0
        if not self.path.is_dir():
            return kept, removed
        for entry in sorted(self.path.glob("*/*.json")):
            try:
                payload = json.loads(entry.read_text(encoding="utf-8"))
                seed = payload["seed"]
                current = payload["format"] == VAULT_FORMAT
            except (OSError, ValueError, KeyError, TypeError):
                seed, current = None, False
            if current and isinstance(seed, int) and seed in keep:
                kept += 1
                continue
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass  # a concurrent writer may have replaced it; skip
        for leftover in sorted(self.path.glob("*/.*.tmp")):
            # A crashed writer's temp file: never addressable, and it
            # keeps the fan-out directory from being dropped.
            try:
                leftover.unlink()
                removed += 1
            except OSError:
                pass
        for child in sorted(self.path.iterdir()):
            if child.is_dir():
                try:
                    child.rmdir()  # only succeeds when emptied
                except OSError:
                    pass
        return kept, removed

    # -- introspection ----------------------------------------------------

    def collect_stats(self, registry) -> dict:
        """Scan the vault into ``registry`` gauges and return a summary.

        Sets ``vault.entries``/``vault.bytes`` totals plus per-seed
        ``vault.entries{seed=N}`` and ``vault.bytes{seed=N}`` gauges
        (unreadable entries land under ``seed=corrupt``), so ``repro
        keys stats`` and exporters read one source of truth instead of
        a bare entry count.  Returns ``{seed: (entries, bytes)}``.
        """
        per_seed: dict[object, list[int]] = {}
        total_entries = 0
        total_bytes = 0
        if self.path.is_dir():
            for entry in sorted(self.path.glob("*/*.json")):
                try:
                    size = entry.stat().st_size
                    seed = json.loads(entry.read_text(encoding="utf-8"))["seed"]
                    if not isinstance(seed, int):
                        seed = "corrupt"
                except (OSError, ValueError, KeyError, TypeError):
                    seed, size = "corrupt", 0
                bucket = per_seed.setdefault(seed, [0, 0])
                bucket[0] += 1
                bucket[1] += size
                total_entries += 1
                total_bytes += size
        registry.gauge("vault.entries").set(total_entries)
        registry.gauge("vault.bytes").set(total_bytes)
        for seed, (entries, size) in per_seed.items():
            registry.gauge("vault.entries", seed=seed).set(entries)
            registry.gauge("vault.bytes", seed=seed).set(size)
        return {seed: tuple(counts) for seed, counts in per_seed.items()}

    def __len__(self) -> int:
        if not self.path.is_dir():
            return 0
        return sum(1 for _ in self.path.glob("*/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyVault({str(self.path)!r}, entries={len(self)})"


def open_vault(
    spec: "KeyVault | str | os.PathLike | None", *, env: bool = True
) -> KeyVault | None:
    """Resolve a vault argument: instance, path, or the environment.

    ``None`` falls back to the ``REPRO_KEY_VAULT`` environment variable
    (unless ``env=False``), so CI can attach a cached vault to every
    process without threading a path through each call site.
    """
    if isinstance(spec, KeyVault):
        return spec
    if spec is not None:
        return KeyVault(spec)
    if env:
        path = os.environ.get(_ENV_VAR)
        if path:
            return KeyVault(path)
    return None
