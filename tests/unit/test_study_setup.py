"""A fast study forges from key-free site leaves; only wire mode signs the web PKI.

A substitute certificate reads four fields off the origin's leaf
(issuer, subject, DNS names, validity), so a fast-mode
:class:`StudyRunner` forges from each site's :class:`SiteLeaf` and
never generates the web-PKI keys or loads the wire leg.  These tests
pin that split: what each mode's construction loads and generates, what
a cold-vault sharded fast run stores, that every site leaf equals its
signed leaf field for field, and that both forge the same bytes.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.crypto.keystore import KeyStore
from repro.data import products as product_data
from repro.data import sites as site_data
from repro.proxy.forger import SubstituteCertForger
from repro.study import StudyConfig, StudyRunner
from repro.study.webpki import build_web_pki, site_leaves
from repro.x509.parse import parse_certificate

# What only the wire leg loads: netsim, the TLS probe and server, the
# proxy engine, HTTP, the policy servers and the report server.
WIRE_LEG = (
    "repro.faults.wire",
    "repro.httpmin",
    "repro.httpmin.client",
    "repro.httpmin.codec",
    "repro.httpmin.server",
    "repro.measure.server",
    "repro.measure.tool",
    "repro.netsim",
    "repro.netsim.events",
    "repro.netsim.loop",
    "repro.netsim.network",
    "repro.obs.events",
    "repro.policy",
    "repro.policy.model",
    "repro.policy.server",
    "repro.proxy.engine",
    "repro.study.wire",
    "repro.tls.probe",
    "repro.tls.server",
)
# Only ``repro scan`` runs the policy scanner; neither study mode loads it.
SCAN_ONLY = "repro.policy.scanner"
WEB_PKI_KEYS = 6  # three roots, three intermediates
SEEDS = (7, 42, 1000045, 2000048)
# The tree this process imported ``repro`` from, for the subprocess checks.
SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def construct(mode: str) -> tuple[set[str], int]:
    """The modules a fresh interpreter loads to build a study-2 runner, and its keygen."""
    script = textwrap.dedent(
        f"""
        import sys
        from repro.study import StudyConfig, StudyRunner

        runner = StudyRunner(StudyConfig(study=2, seed=42, mode={mode!r}))
        print(runner.keystore.keys_generated, *sorted(sys.modules))
        """
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC), REPRO_KEY_VAULT=""),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    generated, *loaded = run.stdout.split()
    return set(loaded), int(generated)


class TestConstruction:
    def test_fast_mode_loads_no_wire_leg_and_generates_no_key(self):
        loaded, generated = construct("fast")
        assert "repro.proxy.forger" in loaded
        assert sorted(loaded.intersection(WIRE_LEG)) == []
        assert SCAN_ONLY not in loaded
        assert generated == 0

    def test_wire_mode_loads_the_wire_leg_and_signs_the_web_pki(self):
        loaded, generated = construct("wire")
        assert sorted(set(WIRE_LEG) - loaded) == []
        assert SCAN_ONLY not in loaded
        assert generated == WEB_PKI_KEYS


def test_cold_vault_sharded_fast_run_signs_no_web_pki(tmp_path):
    """The parent warms only the forging keys before its workers start;
    issuer-copying CAs take their issuers from the site leaves."""
    runner = StudyRunner(
        StudyConfig(study=1, seed=7, scale=0.002, workers=2, vault=str(tmp_path))
    )
    result = runner.run()
    labels = [
        json.loads(entry.read_text(encoding="utf-8"))["label"]
        for entry in tmp_path.glob("*/*.json")
    ]
    assert [label for label in labels if label.startswith("webpki:")] == []
    assert len(labels) == result.notes["keys_generated"] == 78
    assert result.notes["worker_keys_generated"] == 0
    assert result.database.aggregate_signature().startswith("5a4ea52f82f322a5")


@pytest.fixture(scope="module")
def signed_pkis():
    """Each pinned seed's web PKI over every study-1 and study-2 site."""
    sites = {
        site.hostname: site
        for site in site_data.study1_probe_sites() + site_data.study2_probe_sites()
    }
    unique = list(sites.values())
    return {
        seed: (unique, build_web_pki(KeyStore(seed=seed), unique, seed=seed))
        for seed in SEEDS
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_site_leaf_equals_signed_and_parsed_leaf(signed_pkis, seed):
    sites, pki = signed_pkis[seed]
    leaves = site_leaves(sites, seed)
    assert list(leaves) == [site.hostname for site in sites]
    for hostname, site_leaf in leaves.items():
        signed = pki.leaf_for(hostname)
        for leaf in (signed, parse_certificate(signed.encode())):
            assert leaf.issuer == site_leaf.issuer
            assert leaf.subject == site_leaf.subject
            assert tuple(leaf.dns_names) == site_leaf.dns_names
            assert leaf.validity == site_leaf.validity


# Issuer copying, both subject rewrites, per-bucket issuer variants
# and a plain product.
FORGED_PRODUCTS = (
    "digicert-masquerade",
    "wildcard-subnet-fw",
    "wrong-domain-google",
    "other-business-fw",
    "bitdefender",
)


@pytest.mark.parametrize("seed", (42, 7))
def test_forging_from_either_leaf_gives_identical_der(signed_pkis, seed):
    sites, pki = signed_pkis[seed]
    leaves = site_leaves(sites, seed)
    catalog = product_data.catalog_by_key()
    keystore = KeyStore(seed=seed)
    # Separate forgers, so neither answers from the other's forge cache.
    from_signed = SubstituteCertForger(keystore, seed=seed)
    from_site_leaf = SubstituteCertForger(keystore, seed=seed)
    for key in FORGED_PRODUCTS:
        profile = catalog[key].profile
        for site in sites:
            for bucket in (0, 5):
                chains = [
                    forger.forge(
                        profile,
                        leaf,
                        site.hostname,
                        site_ip="203.0.113.10",
                        client_bucket=bucket,
                    ).chain
                    for forger, leaf in (
                        (from_signed, pki.leaf_for(site.hostname)),
                        (from_site_leaf, leaves[site.hostname]),
                    )
                ]
                assert [c.encode() for c in chains[0]] == [c.encode() for c in chains[1]]
    assert from_signed.certificates_forged == from_site_leaf.certificates_forged > 0
