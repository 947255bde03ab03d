#!/usr/bin/env python3
"""The Sendori attack chain (§5.1): DNS hijack masked by a TLS proxy.

Sendori "produce[s] software that compromises the DNS lookup of
infected machines, allowing them to redirect users to improper hosts.
A TLS proxy component is used to bypass host authenticity warnings in
the browser."  This example stages the full chain:

1. the victim's DNS for ``bank.example`` is poisoned toward a host the
   malware operator controls;
2. on its own, that redirect would trip certificate validation (the
   attacker's server cannot present a valid ``bank.example`` chain);
3. Sendori's TLS proxy component — signing with the root it injected
   at install time — papers over the mismatch, so the browser shows a
   lock icon on the attacker's server.

Run:  python examples/dns_hijack_sendori.py
"""

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.netsim import Network
from repro.proxy.profile import ForgedUpstreamPolicy, ProxyCategory, ProxyProfile
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.engine import TlsProxyEngine
from repro.study.webpki import build_web_pki
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name, RootStore, validate_chain


def main() -> None:
    keystore = KeyStore(seed=5151)
    forger = SubstituteCertForger(keystore, seed=5151)
    bank = ProbeSite("bank.example", "Business")
    pki = build_web_pki(keystore, [bank], seed=5151)

    network = Network()
    origin = network.add_host("bank.example", ip="203.0.113.60")
    origin.listen(443, TlsCertServer(pki.chain_for("bank.example")).factory)

    # The attacker's server holds a self-signed certificate for the
    # bank's name — worthless against an intact root store.
    attacker_host = network.add_host("attacker.example", ip="203.0.113.66")
    attacker_profile = ProxyProfile(
        key="attacker-server",
        issuer=Name.build(common_name="Totally Real Bank CA", organization="Attacker"),
        category=ProxyCategory.UNKNOWN,
        leaf_key_bits=1024,
        hash_name="sha1",
        injects_root=False,
    )
    fake_bank_cert = forger.forge(
        attacker_profile, pki.leaf_for("bank.example"), "bank.example"
    )
    attacker_host.listen(443, TlsCertServer(list(fake_bank_cert.chain)).factory)

    victim = network.add_host("victim.example")
    victim_store = pki.root_store()

    print("step 0: clean lookup — the victim reaches the real bank")
    result = ProbeClient(victim).probe("bank.example", 443)
    verdict = validate_chain(list(result.chain), victim_store, hostname="bank.example")
    print(f"  issuer: {result.leaf.issuer.organization}, valid: {verdict.valid}")

    print("\nstep 1: Sendori poisons DNS for bank.example")
    victim.dns_overrides["bank.example"] = "attacker.example"
    result = ProbeClient(victim).probe("bank.example", 443)
    verdict = validate_chain(list(result.chain), victim_store, hostname="bank.example")
    print(f"  issuer: {result.leaf.issuer.organization}, valid: {verdict.valid}")
    print("  -> redirect works, but the browser would warn loudly")

    print("\nstep 2: Sendori's TLS proxy masks the forged certificate")
    sendori_profile = ProxyProfile(
        key="sendori",
        issuer=Name.build(common_name="Sendori CA", organization="Sendori Inc"),
        category=ProxyCategory.MALWARE,
        leaf_key_bits=2048,
        hash_name="sha1",
        forged_upstream=ForgedUpstreamPolicy.MASK,  # accept anything upstream
    )
    engine = TlsProxyEngine(
        sendori_profile,
        forger,
        upstream_host=victim,
        upstream_trust=RootStore(),  # the malware validates nothing
    )
    victim.add_interceptor(engine)
    sendori_root = forger.authority_for(sendori_profile).certificate
    victim_store.inject(sendori_root)  # installed with the malware

    result = ProbeClient(victim).probe("bank.example", 443)
    verdict = validate_chain(list(result.chain), victim_store, hostname="bank.example")
    print(f"  issuer: {result.leaf.issuer.organization}, valid: {verdict.valid}")
    print(
        f"  trusted via injected root: {verdict.trusted_via_injected_root}"
    )
    print(
        "  -> the victim sees a lock icon for bank.example while talking to"
        "\n     the attacker's server; only the injected root gives it away."
    )


if __name__ == "__main__":
    main()
