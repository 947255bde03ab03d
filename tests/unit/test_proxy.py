"""Unit tests for proxy profiles, the forger and the MitM engine."""

import datetime as dt
from dataclasses import replace

import pytest

from repro.audit.scenarios import AUDIT_HOSTNAME, SCENARIOS, AuditPki
from repro.crypto.keystore import KeyStore
from repro.data.products import catalog
from repro.netsim import Network
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import (
    ForgedUpstreamPolicy,
    ProxyCategory,
    ProxyProfile,
    SubjectRewrite,
)
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore, validate_chain, verify_certificate_signature
from repro.x509.model import SubjectPublicKeyInfo


@pytest.fixture(scope="module")
def forger():
    return SubstituteCertForger(KeyStore(seed=42), seed=42)


@pytest.fixture(scope="module")
def origin_leaf(intermediate_ca, keystore):
    key = keystore.key("origin-site", 512)
    return intermediate_ca.issue(
        Name.build(common_name="secure.example", organization="Origin Org"),
        SubjectPublicKeyInfo(key.n, key.e),
        dns_names=["secure.example"],
    )


def make_profile(**overrides):
    defaults = dict(
        key="testproduct",
        issuer=Name.build(common_name="Test CA", organization="Test Product"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    defaults.update(overrides)
    return ProxyProfile(**defaults)


class TestProfile:
    def test_whitelist_exact_and_subdomain(self):
        profile = make_profile(whitelist=frozenset({"facebook.com"}))
        assert profile.is_whitelisted("facebook.com")
        assert profile.is_whitelisted("www.facebook.com")
        assert not profile.is_whitelisted("notfacebook.com")

    def test_leaf_key_label_per_bucket(self):
        profile = make_profile()
        assert profile.leaf_key_label("h", 1) != profile.leaf_key_label("h", 2)

    def test_leaf_key_label_shared_when_reusing(self):
        profile = make_profile(reuses_leaf_key=True)
        assert profile.leaf_key_label("h", 1) == profile.leaf_key_label("h", 2)

    def test_issuer_variants_rotate_by_bucket(self):
        variants = (
            Name.build(organization="A"),
            Name.build(organization="B"),
        )
        profile = make_profile(issuer_variants=variants)
        assert profile.issuer_for_bucket(0).organization == "A"
        assert profile.issuer_for_bucket(1).organization == "B"
        assert profile.issuer_for_bucket(2).organization == "A"


class TestForger:
    def test_substitute_has_profile_issuer(self, forger, origin_leaf):
        forged = forger.forge(make_profile(), origin_leaf, "secure.example")
        assert forged.leaf.issuer.organization == "Test Product"
        assert forged.leaf.subject.common_name == "secure.example"

    def test_substitute_signed_by_product_ca(self, forger, origin_leaf):
        profile = make_profile()
        forged = forger.forge(profile, origin_leaf, "secure.example")
        ca_cert = forged.ca_chain[0]
        assert verify_certificate_signature(forged.leaf, ca_cert)

    def test_substitute_key_size_downgrade(self, forger, origin_leaf):
        profile = make_profile(leaf_key_bits=512)
        forged = forger.forge(profile, origin_leaf, "secure.example")
        assert forged.leaf.public_key_bits == 512

    def test_md5_signature(self, forger, origin_leaf):
        profile = make_profile(hash_name="md5")
        forged = forger.forge(profile, origin_leaf, "secure.example")
        assert forged.leaf.signature_algorithm == "md5WithRSAEncryption"

    def test_issuer_copying(self, forger, origin_leaf):
        profile = make_profile(key="copycat", copies_upstream_issuer=True)
        forged = forger.forge(profile, origin_leaf, "secure.example")
        # Claims the origin's issuer ...
        assert forged.leaf.issuer == origin_leaf.issuer
        # ... but the signature is the proxy's, not the real CA's.
        assert forged.leaf.fingerprint() != origin_leaf.fingerprint()

    def test_wildcard_subnet_rewrite(self, forger, origin_leaf):
        profile = make_profile(
            key="wildcarder", subject_rewrite=SubjectRewrite.WILDCARD_SUBNET
        )
        forged = forger.forge(
            profile, origin_leaf, "secure.example", site_ip="203.0.113.77"
        )
        assert forged.leaf.subject.common_name == "203.0.113.*"
        assert not forged.leaf.matches_hostname("secure.example")

    def test_wrong_domain_rewrite(self, forger, origin_leaf):
        profile = make_profile(
            key="misdirect",
            subject_rewrite=SubjectRewrite.WRONG_DOMAIN,
            wrong_domain="mail.google.com",
        )
        forged = forger.forge(profile, origin_leaf, "secure.example")
        assert forged.leaf.subject.common_name == "mail.google.com"

    def test_key_reuse_across_hosts_and_buckets(self, forger, origin_leaf):
        profile = make_profile(key="iopfail-like", reuses_leaf_key=True, leaf_key_bits=512)
        one = forger.forge(profile, origin_leaf, "a.example", client_bucket=0)
        two = forger.forge(profile, origin_leaf, "b.example", client_bucket=5)
        assert one.leaf.tbs.public_key.n == two.leaf.tbs.public_key.n

    def test_normal_products_use_distinct_keys_per_bucket(self, forger, origin_leaf):
        profile = make_profile()
        one = forger.forge(profile, origin_leaf, "secure.example", client_bucket=0)
        two = forger.forge(profile, origin_leaf, "secure.example", client_bucket=1)
        assert one.leaf.tbs.public_key.n != two.leaf.tbs.public_key.n

    def test_forge_is_deterministic_and_cached(self, origin_leaf):
        store = KeyStore(seed=9)
        first = SubstituteCertForger(store, seed=9)
        again = SubstituteCertForger(KeyStore(seed=9), seed=9)
        profile = make_profile()
        a = first.forge(profile, origin_leaf, "secure.example", client_bucket=3)
        b = again.forge(profile, origin_leaf, "secure.example", client_bucket=3)
        assert a.leaf.encode() == b.leaf.encode()
        # Second identical call hits the cache.
        before = first.certificates_forged
        first.forge(profile, origin_leaf, "secure.example", client_bucket=3)
        assert first.certificates_forged == before
        assert first.cache_hits == 1

    def test_validates_only_with_injected_root(self, forger, origin_leaf, now):
        profile = make_profile()
        forged = forger.forge(profile, origin_leaf, "secure.example")
        clean_store = RootStore()
        assert not validate_chain(list(forged.chain), clean_store, at_time=now)
        infected = RootStore()
        infected.inject(forged.ca_chain[0])
        verdict = validate_chain(list(forged.chain), infected, at_time=now)
        assert verdict.valid
        assert verdict.trusted_via_injected_root


def _chain_der(forged):
    return [certificate.encode() for certificate in forged.chain]


# Which changes to the upstream leaf each kind of profile reads, and so
# must forge afresh for; any other change shares one substitute.
_FORGE_READS = {
    "plain": {"subject", "san", "validity"},
    "copies-issuer": {"subject", "san", "validity", "issuer"},
    "wrong-domain": {"validity"},
}


class TestForgeCache:
    """The forge cache keys on what issuance reads, not on the leaf's bytes."""

    @pytest.fixture(scope="class")
    def forge_keystore(self):
        return KeyStore(seed=8)

    def test_warm_forger_matches_cold_forger(self, forge_keystore):
        pki = AuditPki(forge_keystore, seed=8, key_bits=512)
        leaves = [scenario.build(pki, AUDIT_HOSTNAME).chain[0] for scenario in SCENARIOS]
        # 512-bit CA keys keep keygen cheap; every forging quirk stays.
        profiles = [replace(spec.profile, ca_key_bits=512) for spec in catalog()]
        warm = SubstituteCertForger(forge_keystore, seed=8)
        for profile in profiles:
            for leaf in leaves:
                warm.forge(profile, leaf, AUDIT_HOSTNAME)
        assert warm.cache_hits > 0
        for profile in profiles:
            for leaf in leaves:
                cold = SubstituteCertForger(forge_keystore, seed=8)
                assert _chain_der(warm.forge(profile, leaf, AUDIT_HOSTNAME)) == _chain_der(
                    cold.forge(profile, leaf, AUDIT_HOSTNAME)
                ), (profile.key, leaf.subject)

    @pytest.mark.parametrize("kind", sorted(_FORGE_READS))
    @pytest.mark.parametrize(
        "change", ["reissue", "subject", "san", "validity", "issuer"]
    )
    def test_forge_is_shared_unless_a_read_field_changes(
        self, forge_keystore, intermediate_ca, root_ca, kind, change
    ):
        profile = make_profile(
            key=f"keyed-{kind}",
            ca_key_bits=512,
            copies_upstream_issuer=kind == "copies-issuer",
            subject_rewrite=(
                SubjectRewrite.WRONG_DOMAIN if kind == "wrong-domain" else SubjectRewrite.NONE
            ),
        )
        key = forge_keystore.key("keyed-origin", 512)

        def upstream(ca=intermediate_ca, cn="secure.example", serial=11, **fields):
            fields.setdefault("dns_names", ["secure.example"])
            return ca.issue(
                Name.build(common_name=cn),
                SubjectPublicKeyInfo(key.n, key.e),
                serial_number=serial,
                **fields,
            )

        changed = {
            "reissue": lambda: upstream(serial=12),  # new bytes, same fields
            "subject": lambda: upstream(cn="other.example"),
            "san": lambda: upstream(dns_names=["secure.example", "www.secure.example"]),
            "validity": lambda: upstream(
                not_after=dt.datetime(2017, 1, 1, tzinfo=dt.timezone.utc)
            ),
            "issuer": lambda: upstream(ca=root_ca),
        }[change]()
        base = upstream()
        assert changed.fingerprint() != base.fingerprint()
        forger = SubstituteCertForger(forge_keystore, seed=8)
        first = forger.forge(profile, base, "secure.example")
        second = forger.forge(profile, changed, "secure.example")
        fresh = change in _FORGE_READS[kind]
        assert forger.certificates_forged == 1 + fresh
        assert (second is first) is not fresh


class ProxiedWorld:
    """A client + origin + attached proxy engine, ready to probe."""

    def __init__(self, profile, origin_chain, trust_roots, forger):
        self.network = Network()
        self.client = self.network.add_host("victim.example")
        origin = self.network.add_host("secure.example", ip="203.0.113.9")
        origin.listen(443, TlsCertServer(origin_chain).factory)
        self.engine = TlsProxyEngine(
            profile,
            forger,
            upstream_host=self.client,
            upstream_trust=trust_roots,
            client_bucket=2,
        )
        self.client.add_interceptor(self.engine)

    def probe(self):
        return ProbeClient(self.client).probe("secure.example", 443)


class TestEngine:
    def test_interception_replaces_certificate(
        self, forger, origin_leaf, intermediate_ca, root_ca
    ):
        world = ProxiedWorld(
            make_profile(),
            [origin_leaf, intermediate_ca.certificate],
            RootStore([root_ca.certificate]),
            forger,
        )
        result = world.probe()
        assert result.ok
        assert result.leaf.issuer.organization == "Test Product"
        assert result.leaf.fingerprint() != origin_leaf.fingerprint()
        assert world.engine.intercepted == 1

    def test_substitute_matches_direct_forge(
        self, forger, origin_leaf, intermediate_ca, root_ca
    ):
        """Wire-mode output must equal a direct forger call byte-for-byte."""
        profile = make_profile()
        world = ProxiedWorld(
            profile,
            [origin_leaf, intermediate_ca.certificate],
            RootStore([root_ca.certificate]),
            forger,
        )
        result = world.probe()
        direct = forger.forge(
            profile,
            origin_leaf,
            "secure.example",
            site_ip="203.0.113.9",
            client_bucket=2,
        )
        assert result.der_chain == tuple(c.encode() for c in direct.chain)

    def test_whitelisted_host_passes_through(
        self, forger, origin_leaf, intermediate_ca, root_ca
    ):
        profile = make_profile(whitelist=frozenset({"secure.example"}))
        world = ProxiedWorld(
            profile,
            [origin_leaf, intermediate_ca.certificate],
            RootStore([root_ca.certificate]),
            forger,
        )
        result = world.probe()
        assert result.ok
        assert result.leaf.fingerprint() == origin_leaf.fingerprint()
        assert world.engine.whitelisted == 1
        assert world.engine.intercepted == 0

    def test_block_policy_rejects_forged_upstream(
        self, forger, origin_leaf, intermediate_ca
    ):
        """Bitdefender-style: untrusted upstream chain → fatal alert."""
        # Proxy's trust store does NOT contain the origin's root.
        world = ProxiedWorld(
            make_profile(forged_upstream=ForgedUpstreamPolicy.BLOCK),
            [origin_leaf, intermediate_ca.certificate],
            RootStore(),
            forger,
        )
        result = world.probe()
        assert not result.ok
        assert "alert" in result.error
        assert world.engine.blocked_forged_upstream == 1

    def test_mask_policy_hides_forged_upstream(
        self, forger, origin_leaf, intermediate_ca
    ):
        """Kurupira-style: untrusted upstream silently replaced."""
        world = ProxiedWorld(
            make_profile(forged_upstream=ForgedUpstreamPolicy.MASK),
            [origin_leaf, intermediate_ca.certificate],
            RootStore(),
            forger,
        )
        result = world.probe()
        assert result.ok
        assert result.leaf.issuer.organization == "Test Product"
        assert world.engine.masked_forged_upstream == 1

    def test_pass_through_policy_relays_forged_upstream(
        self, forger, origin_leaf, intermediate_ca
    ):
        world = ProxiedWorld(
            make_profile(forged_upstream=ForgedUpstreamPolicy.PASS_THROUGH),
            [origin_leaf, intermediate_ca.certificate],
            RootStore(),
            forger,
        )
        result = world.probe()
        assert result.ok
        assert result.leaf.fingerprint() == origin_leaf.fingerprint()
        assert world.engine.passed_through_forged_upstream == 1

    def test_upstream_unreachable_fails_closed(self, forger):
        network = Network()
        client = network.add_host("victim.example")
        engine = TlsProxyEngine(
            make_profile(),
            forger,
            upstream_host=client,
            upstream_trust=RootStore(),
        )
        client.add_interceptor(engine)
        # secure.example does not exist in this network.
        result = ProbeClient(client).probe("secure.example", 443)
        assert not result.ok
        assert engine.upstream_failures == 1

    def test_non_tls_port_not_intercepted(
        self, forger, origin_leaf, intermediate_ca, root_ca
    ):
        world = ProxiedWorld(
            make_profile(),
            [origin_leaf, intermediate_ca.certificate],
            RootStore([root_ca.certificate]),
            forger,
        )
        assert world.engine.intercepts("secure.example", 443)
        assert not world.engine.intercepts("secure.example", 80)
