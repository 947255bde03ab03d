#!/usr/bin/env python3
"""Certificate Transparency in the proxy ecosystem (§7 extension).

Shows what an RFC 6962-style audit log can and cannot do about TLS
proxies: a rogue *public* CA mis-issuing for your domain is caught by
your monitor, while an AV product or malware signing with a locally
injected root never touches any log — exactly the asymmetry the
paper's §7 survey implies.

Run:  python examples/transparency_audit.py
"""

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.mitigation.ctlog import CtLog, CtMonitor, verify_inclusion
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ProxyCategory, ProxyProfile
from repro.study.webpki import build_web_pki
from repro.x509 import Name


def main() -> None:
    keystore = KeyStore(seed=6962)
    site = ProbeSite("bank.example", "Business")
    pki = build_web_pki(keystore, [site], seed=6962)
    genuine = pki.leaf_for("bank.example")
    legitimate_issuer = genuine.issuer.organization

    log = CtLog(log_id="repro-log-1", key=keystore.key("ct-log", 1024))
    monitor = CtMonitor("bank.example", frozenset({legitimate_issuer}))

    # --- normal operation: the real CA logs the real certificate -------
    sct = log.submit(genuine)
    proof, root, size = log.prove_inclusion(sct.leaf_index)
    included = verify_inclusion(genuine.encode(), sct.leaf_index, size, proof, root)
    print(f"genuine certificate logged; SCT verifies: "
          f"{log.verify_sct(sct, log.key.public)}, inclusion proof: {included}")
    print(f"monitor audit: {len(monitor.audit(log))} flagged (expected 0)")

    # --- a rogue public CA mis-issues for the domain --------------------
    forger = SubstituteCertForger(keystore, seed=6962)
    rogue_root = next(
        ca for ca in pki.roots.values()
        if ca.certificate.subject.organization != legitimate_issuer
    )
    rogue_profile = ProxyProfile(
        key="rogue-public-ca",
        issuer=rogue_root.certificate.subject,
        category=ProxyCategory.UNKNOWN,
        leaf_key_bits=2048,
        hash_name="sha1",
        injects_root=False,
    )
    mis_issued = forger.forge(rogue_profile, genuine, "bank.example").leaf
    log.submit(mis_issued)  # public CAs must log what they issue
    flagged = monitor.audit(log)
    print(f"\nrogue public CA ({rogue_root.certificate.subject.organization}) "
          f"mis-issues for bank.example")
    print(f"monitor audit: {len(flagged)} flagged — issuer "
          f"{flagged[0].issuer.organization!r} is not authorised for this domain")

    # --- an AV proxy forges with a locally injected root ------------------
    av_profile = ProxyProfile(
        key="local-av",
        issuer=Name.build(common_name="AV Web Shield", organization="LocalAV"),
        category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    forger.forge(av_profile, genuine, "bank.example")  # victim sees this cert
    before = len(monitor.audit(log))
    print("\nAV proxy forges bank.example with its locally injected root")
    print(f"monitor audit: still {before} flagged — the substitute never "
          "reached any log")
    print("\nconclusion: CT constrains the public CA ecosystem, but local-root")
    print("interception (the 0.41% the paper measured) is invisible to it.")


if __name__ == "__main__":
    main()
