#!/usr/bin/env python3
"""Quickstart: detect a TLS proxy with a certificate probe.

Builds the smallest possible world — one origin site, one client with
an antivirus TLS proxy installed, one clean client — and shows how the
paper's measurement works: probe both paths, compare the certificates
the clients actually received against the authoritative one.

Run:  python examples/quickstart.py
"""

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.netsim import Network
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ProxyCategory, ProxyProfile
from repro.study.webpki import build_web_pki
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name


def main() -> None:
    # --- the legitimate web: a site with a real certificate chain -----
    keystore = KeyStore(seed=2014)
    site = ProbeSite("shop.example", "Business")
    pki = build_web_pki(keystore, [site], seed=2014)
    network = Network()
    origin = network.add_host("shop.example", ip="203.0.113.10")
    origin.listen(443, TlsCertServer(pki.chain_for("shop.example")).factory)
    genuine = pki.leaf_for("shop.example")
    print("authoritative certificate")
    print(f"  subject : {genuine.subject}")
    print(f"  issuer  : {genuine.issuer}")
    print(f"  key     : {genuine.public_key_bits} bits, {genuine.signature_algorithm}")
    print(f"  sha256  : {genuine.fingerprint()[:32]}...")

    # --- a clean client sees exactly that certificate ------------------
    clean_client = network.add_host("clean-client.example")
    observed = ProbeClient(clean_client).probe("shop.example", 443)
    assert observed.ok
    match = observed.leaf.fingerprint() == genuine.fingerprint()
    print(f"\nclean client: certificate matches authoritative? {match}")

    # --- a client running an interception product ----------------------
    victim = network.add_host("av-client.example")
    profile = ProxyProfile(
        key="demo-av",
        issuer=Name.build(common_name="DemoAV Web Shield CA", organization="DemoAV"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,  # the §5.2 key-size downgrade
        hash_name="sha1",
    )
    forger = SubstituteCertForger(keystore, seed=2014)
    engine = TlsProxyEngine(
        profile, forger, upstream_host=victim, upstream_trust=pki.root_store()
    )
    victim.add_interceptor(engine)

    observed = ProbeClient(victim).probe("shop.example", 443)
    assert observed.ok
    substitute = observed.leaf
    mismatch = substitute.fingerprint() != genuine.fingerprint()
    print(f"\nproxied client: certificate mismatch detected? {mismatch}")
    print("substitute certificate the proxy forged")
    print(f"  subject : {substitute.subject}")
    print(f"  issuer  : {substitute.issuer}   <-- the proxy names itself")
    print(
        f"  key     : {substitute.public_key_bits} bits "
        f"(downgraded from {genuine.public_key_bits})"
    )
    print(f"  sha256  : {substitute.fingerprint()[:32]}...")
    print(f"\nproxy engine stats: intercepted={engine.intercepted}")


if __name__ == "__main__":
    main()
