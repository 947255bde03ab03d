#!/usr/bin/env python3
"""The §5.2 forged-certificate lab, plus the §7 mitigation ablation.

Recreates the authors' lab experiment: put an attacker with an
*untrusted* CA on the path behind each interception product and watch
what the product does.  Bitdefender blocks the connection; Kurupira
masks the forgery with its own trusted certificate, handing the
attacker an invisible MitM.  Then runs the mitigation ablation to show
which §7 defences catch which interception scenarios.

Run:  python examples/forged_certificate_lab.py
"""

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.mitigation import evaluate_mitigations
from repro.netsim import Network
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ForgedUpstreamPolicy, ProxyCategory, ProxyProfile
from repro.study.webpki import build_web_pki
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name


def product_under_test(name: str, policy: ForgedUpstreamPolicy) -> ProxyProfile:
    return ProxyProfile(
        key=f"lab-{name}",
        issuer=Name.build(common_name=f"{name} CA", organization=name),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
        forged_upstream=policy,
    )


def run_lab(name: str, policy: ForgedUpstreamPolicy) -> None:
    """Attacker (untrusted CA) behind the product; client probes through."""
    keystore = KeyStore(seed=99)
    forger = SubstituteCertForger(keystore, seed=99)
    site = ProbeSite("bank.example", "Business")
    pki = build_web_pki(keystore, [site], seed=99)

    network = Network()
    origin = network.add_host("bank.example", ip="203.0.113.20")
    origin.listen(443, TlsCertServer(pki.chain_for("bank.example")).factory)

    victim = network.add_host("victim.example")
    relay = network.add_host("relay.example")

    attacker = TlsProxyEngine(
        ProxyProfile(
            key="lab-attacker",
            issuer=Name.build(common_name="Evil CA", organization="Attacker Inc"),
            category=ProxyCategory.UNKNOWN,
            leaf_key_bits=1024,
            hash_name="sha1",
            injects_root=False,  # the attacker's CA is NOT trusted
            forged_upstream=ForgedUpstreamPolicy.MASK,
        ),
        forger,
        upstream_host=relay,
        upstream_trust=pki.root_store(),
    )
    relay.add_interceptor(attacker)

    product = TlsProxyEngine(
        product_under_test(name, policy),
        forger,
        upstream_host=relay,
        upstream_trust=pki.root_store(),
        upstream_via_interceptors=True,  # its upstream leg crosses the attacker
    )
    victim.add_interceptor(product)

    result = ProbeClient(victim).probe("bank.example", 443)
    print(f"\n{name} (forged-upstream policy: {policy.value})")
    if not result.ok:
        print(f"  connection blocked: {result.error}")
        print("  -> the product protected the user from the attacker")
        return
    print(f"  client received certificate issued by: {result.leaf.issuer}")
    print("  -> the product accepted the attacker's forged upstream chain and")
    print("     re-signed it with its own TRUSTED root: the user sees a lock")
    print("     icon while the attacker reads everything (the Kurupira flaw)")


def main() -> None:
    print("== §5.2 lab: attacker with untrusted CA behind the filter ==")
    run_lab("Bitdefender-like", ForgedUpstreamPolicy.BLOCK)
    run_lab("Kurupira-like", ForgedUpstreamPolicy.MASK)

    print("\n== §7 mitigation ablation ==")
    evaluation = evaluate_mitigations(seed=7)
    header = (
        f"{'scenario':<18} {'intercepted':<11} {'pinning':<20} "
        f"{'pinning-strict':<14} {'notary':<15} {'dvcert':<14} disclosure"
    )
    print(header)
    print("-" * len(header))
    for outcome in evaluation.outcomes:
        print(
            f"{outcome.scenario:<18} {str(outcome.intercepted):<11} "
            f"{outcome.pinning:<20} {outcome.pinning_strict:<14} "
            f"{outcome.notary:<15} {outcome.dvcert:<14} {outcome.disclosure}"
        )
    print(
        "\nreading: Chrome-style pinning (trusting local roots) is bypassed by\n"
        "every root-injecting proxy; notaries and DVCert detect all MitM\n"
        "variants; only a cooperating proxy ever disclosed itself."
    )


if __name__ == "__main__":
    main()
