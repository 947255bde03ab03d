"""N2 — the §5.2 forged-certificate lab: Kurupira vs Bitdefender.

Wire-mode experiment: an attacker with an untrusted CA sits behind
each product; the paper found Bitdefender blocks the connection while
Kurupira replaces the forged certificate with its own trusted one.
"""

from conftest import emit

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.netsim import Network
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ForgedUpstreamPolicy, ProxyCategory, ProxyProfile
from repro.study.webpki import build_web_pki
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name


def run_lab(policy: ForgedUpstreamPolicy, seed: int = 31):
    keystore = KeyStore(seed=seed)
    forger = SubstituteCertForger(keystore, seed=seed)
    site = ProbeSite("bank.example", "Business")
    pki = build_web_pki(keystore, [site], seed=seed)
    network = Network()
    origin = network.add_host("bank.example", ip="203.0.113.30")
    origin.listen(443, TlsCertServer(pki.chain_for("bank.example")).factory)
    victim = network.add_host("victim.example")
    relay = network.add_host("relay.example")

    attacker = TlsProxyEngine(
        ProxyProfile(
            key="bench-attacker",
            issuer=Name.build(common_name="Evil CA", organization="Attacker Inc"),
            category=ProxyCategory.UNKNOWN,
            leaf_key_bits=1024,
            hash_name="sha1",
            injects_root=False,
            forged_upstream=ForgedUpstreamPolicy.MASK,
        ),
        forger,
        upstream_host=relay,
        upstream_trust=pki.root_store(),
    )
    relay.add_interceptor(attacker)
    product = TlsProxyEngine(
        ProxyProfile(
            key=f"bench-product-{policy.value}",
            issuer=Name.build(common_name="Product CA", organization="ProductCo"),
            category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            leaf_key_bits=1024,
            hash_name="sha1",
            forged_upstream=policy,
        ),
        forger,
        upstream_host=relay,
        upstream_trust=pki.root_store(),
        upstream_via_interceptors=True,
    )
    victim.add_interceptor(product)
    result = ProbeClient(victim).probe("bank.example", 443)
    return result, product


def test_forged_cert_handling(benchmark, output_dir):
    def experiment():
        blocked, block_engine = run_lab(ForgedUpstreamPolicy.BLOCK)
        masked, mask_engine = run_lab(ForgedUpstreamPolicy.MASK)
        return blocked, block_engine, masked, mask_engine

    blocked, block_engine, masked, mask_engine = benchmark(experiment)

    lines = [
        "attacker (untrusted CA) on the path behind each product:",
        "",
        f"BLOCK policy (Bitdefender-like): connection ok={blocked.ok}, "
        f"error={blocked.error!r}",
        f"  engine: blocked_forged_upstream={block_engine.blocked_forged_upstream}",
        f"MASK policy (Kurupira-like): connection ok={masked.ok}, "
        f"issuer seen by client={masked.leaf.issuer if masked.ok else None}",
        f"  engine: masked_forged_upstream={mask_engine.masked_forged_upstream}",
        "",
        "paper (§5.2): Bitdefender blocked the forged certificate; Kurupira",
        "replaced it with a signed trusted one, enabling a transparent MitM.",
    ]
    emit(output_dir, "forged_cert_handling", "\n".join(lines))

    assert not blocked.ok and "alert" in blocked.error
    assert block_engine.blocked_forged_upstream == 1
    assert masked.ok
    assert masked.leaf.issuer.organization == "ProductCo"
    assert mask_engine.masked_forged_upstream == 1
