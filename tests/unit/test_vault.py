"""The persistent key-material vault: byte-identity, misses, safety.

The vault is only admissible if it is *invisible*: a vault-loaded key
must match a freshly generated one on every field (including the CRT
constants the signer reads), and anything wrong on disk must degrade
to regeneration, never to a corrupted run.
"""

import json

import pytest

from repro.crypto.hashes import hash_by_name
from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import pkcs1_sign, pkcs1_verify
from repro.crypto.vault import KeyVault, open_vault


@pytest.fixture
def vault(tmp_path):
    return KeyVault(tmp_path / "vault")


class TestRoundTrip:
    def test_loaded_key_byte_identical_to_generated(self, vault):
        """Acceptance: vault-loaded keys ≡ freshly generated ones."""
        fresh = KeyStore(seed=11).key("identity", 512)
        writer = KeyStore(seed=11, vault=vault)
        writer.key("identity", 512)
        reader = KeyStore(seed=11, vault=vault)
        loaded = reader.key("identity", 512)
        assert reader.keys_generated == 0
        assert reader.vault_hits == 1
        assert (loaded.n, loaded.e, loaded.d, loaded.p, loaded.q) == (
            fresh.n, fresh.e, fresh.d, fresh.p, fresh.q,
        )

    def test_crt_constants_travel_with_the_key(self, vault):
        vault.store(3, "crt", 512, KeyStore(seed=3).key("crt", 512))
        loaded = vault.load(3, "crt", 512)
        # Pre-installed in __dict__, so the first signature never pays
        # the modular inverse.
        assert {"dp", "dq", "q_inv"} <= set(loaded.__dict__)
        fresh = KeyStore(seed=3).key("crt", 512)
        assert (loaded.dp, loaded.dq, loaded.q_inv) == (
            fresh.dp, fresh.dq, fresh.q_inv,
        )

    def test_loaded_key_signs_and_verifies(self, vault):
        KeyStore(seed=5, vault=vault).key("signer", 512)
        loaded = KeyStore(seed=5, vault=vault).key("signer", 512)
        alg = hash_by_name("sha256")
        signature = pkcs1_sign(loaded, alg, b"vault payload")
        assert pkcs1_verify(loaded.public, alg, b"vault payload", signature)

    def test_store_is_idempotent(self, vault):
        pair = KeyStore(seed=2).key("idem", 512)
        assert vault.store(2, "idem", 512, pair) is True
        assert vault.store(2, "idem", 512, pair) is False
        assert len(vault) == 1


class TestAddressing:
    def test_slots_do_not_collide(self, vault):
        addresses = {
            KeyVault.address(seed, label, bits)
            for seed in (0, 1, 7)
            for label in ("a", "b", "proxy-ca:x|CN=Y")
            for bits in (512, 1024)
        }
        assert len(addresses) == 18

    def test_entry_is_a_single_file_per_key(self, vault):
        KeyStore(seed=1, vault=vault).key("one", 512)
        path = vault.entry_path(1, "one", 512)
        assert path.is_file()
        # No temp droppings left behind by the atomic rename.
        assert not list(vault.path.glob("**/*.tmp"))


class TestMisses:
    def test_empty_vault_misses(self, vault):
        assert vault.load(1, "missing", 512) is None

    def test_corrupt_entry_regenerates(self, vault):
        store = KeyStore(seed=4, vault=vault)
        expected = store.key("corrupt", 512)
        path = vault.entry_path(4, "corrupt", 512)
        path.write_text("{not json", encoding="utf-8")
        reader = KeyStore(seed=4, vault=vault)
        regenerated = reader.key("corrupt", 512)
        assert reader.keys_generated == 1
        assert regenerated.n == expected.n
        # The regeneration healed the entry on disk.
        assert vault.load(4, "corrupt", 512) is not None

    def test_tampered_material_rejected(self, vault):
        KeyStore(seed=4, vault=vault).key("tamper", 512)
        path = vault.entry_path(4, "tamper", 512)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["p"] = f"{int(payload['p'], 16) + 2:x}"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert vault.load(4, "tamper", 512) is None

    def test_mismatched_slot_echo_rejected(self, vault):
        pair = KeyStore(seed=4).key("echo", 512)
        vault.store(4, "echo", 512, pair)
        path = vault.entry_path(4, "echo", 512)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["label"] = "other"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert vault.load(4, "echo", 512) is None


class TestOpenVault:
    def test_passthrough_and_path(self, tmp_path):
        vault = KeyVault(tmp_path)
        assert open_vault(vault) is vault
        assert open_vault(str(tmp_path)).path == tmp_path
        assert open_vault(None, env=False) is None

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KEY_VAULT", str(tmp_path / "envvault"))
        resolved = open_vault(None)
        assert resolved is not None
        assert resolved.path == tmp_path / "envvault"
        monkeypatch.delenv("REPRO_KEY_VAULT")
        assert open_vault(None) is None


class TestGenerationCounter:
    def test_counts_only_real_generations(self, vault):
        store = KeyStore(seed=8, vault=vault)
        store.key("a", 512)
        store.key("a", 512)  # in-memory hit
        assert store.keys_generated == 1
        second = KeyStore(seed=8, vault=vault)
        second.key("a", 512)  # vault hit
        second.key("b", 512)  # genuine generation
        assert second.keys_generated == 1
        assert second.vault_hits == 1

    def test_vaultless_store_still_counts(self):
        store = KeyStore(seed=8)
        store.key("p1", 512)
        store.key("p2", 512)
        assert store.keys_generated == 2


class TestGc:
    def test_gc_prunes_foreign_seeds_and_keeps_kept(self, vault):
        """Acceptance: over a populated vault, gc removes exactly the
        entries whose seed is not kept, and the survivors still load."""
        for seed in (7, 8, 9):
            store = KeyStore(seed=seed, vault=vault)
            store.key("alpha", 512)
            store.key("beta", 512)
        assert len(vault) == 6
        kept, removed = vault.gc(keep_seeds=[7, 9])
        assert (kept, removed) == (4, 2)
        assert len(vault) == 4
        # Survivors load without regeneration; the pruned seed misses.
        survivor = KeyStore(seed=7, vault=vault)
        survivor.key("alpha", 512)
        assert survivor.vault_hits == 1 and survivor.keys_generated == 0
        pruned = KeyStore(seed=8, vault=vault)
        pruned.key("alpha", 512)
        assert pruned.keys_generated == 1

    def test_gc_removes_unreadable_entries(self, vault):
        store = KeyStore(seed=7, vault=vault)
        store.key("alpha", 512)
        path = vault.entry_path(7, "alpha", 512)
        path.write_text("not json", encoding="utf-8")
        bogus = vault.path / "zz" / "bogus.json"
        bogus.parent.mkdir(parents=True)
        bogus.write_text(json.dumps({"no": "seed"}), encoding="utf-8")
        kept, removed = vault.gc(keep_seeds=[7])
        assert kept == 0 and removed == 2
        assert len(vault) == 0
        # Emptied fan-out directories are dropped with their entries.
        assert not (vault.path / "zz").exists()

    def test_gc_removes_stale_format_and_orphan_tmp_files(self, vault):
        """A format bump relocates every address, so old-format
        entries can never be hits again — gc must not keep them just
        because their seed matches; crashed-writer temp files go too."""
        store = KeyStore(seed=7, vault=vault)
        store.key("alpha", 512)
        path = vault.entry_path(7, "alpha", 512)
        payload = json.loads(path.read_text(encoding="utf-8"))
        stale = dict(payload, format=payload["format"] - 1)
        stale_path = path.parent / "stale-format.json"
        stale_path.write_text(json.dumps(stale), encoding="utf-8")
        orphan = path.parent / ".crashed-writer.json.123.456.tmp"
        orphan.write_text("partial", encoding="utf-8")
        kept, removed = vault.gc(keep_seeds=[7])
        assert (kept, removed) == (1, 2)
        assert path.exists()
        assert not stale_path.exists() and not orphan.exists()

    def test_gc_on_missing_vault_is_a_noop(self, tmp_path):
        vault = KeyVault(tmp_path / "never-created")
        assert vault.gc(keep_seeds=[7]) == (0, 0)

    def test_gc_cli(self, vault, capsys):
        from repro.cli import main

        KeyStore(seed=7, vault=vault).key("alpha", 512)
        KeyStore(seed=8, vault=vault).key("alpha", 512)
        code = main(
            ["keys", "gc", "--vault", str(vault.path), "--keep-seeds", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "removed 1" in out
        assert len(vault) == 1
