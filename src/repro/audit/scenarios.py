"""The adversarial upstream scenario registry.

Each scenario is a deterministic transform of the audited origin: it
mutates the chain the origin serves, the TLS parameters it negotiates,
or the revocation data the proxy can see.  The battery follows Waked
et al., *The Sorry State of TLS Security in Enterprise Interception
Appliances* (NDSS 2018): the same attacks, replayed against every
product in the catalog over netsim.

A scenario's ``defect`` is the ground-truth defect code a fully
vigilant validator would report (``None`` for the baseline control);
the scorecard compares it with what each product actually did.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass
from typing import Callable

from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import synthetic_public_key
from repro.proxy.profile import (
    DEFECT_DEPRECATED_HASH,
    DEFECT_PROTOCOL_DOWNGRADE,
    DEFECT_REVOKED,
    DEFECT_WEAK_KEY,
)
from repro.tls import codec
from repro.util import stable_hash
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Certificate, Name, SubjectPublicKeyInfo
from repro.x509.store import RootStore
from repro.x509.verify import (
    DEFECT_EXPIRED,
    DEFECT_HOSTNAME,
    DEFECT_UNTRUSTED_ROOT,
)

# The host every battery run audits; never whitelisted by any product.
AUDIT_HOSTNAME = "audit-target.example"

# Key size of the genuine origin leaf (matches the web PKI baseline).
GENUINE_KEY_BITS = 2048
WEAK_KEY_BITS = 512


class AuditPki:
    """The PKI kit the battery builds its origins from.

    One trusted root + issuing intermediate (what the audited proxy's
    own store anchors), plus an attacker CA that no store trusts.  All
    keys come from the shared :class:`KeyStore`, so the expensive
    generation happens once per seed and is amortised across every
    product in a catalog run.
    """

    def __init__(self, keystore: KeyStore, seed: int = 0, key_bits: int = 1024) -> None:
        self.keystore = keystore
        self.seed = seed
        self.key_bits = key_bits
        trust_org = "Audit Trust Services"
        self.root = CertificateAuthority.self_signed(
            SelfSignedParams(
                subject=Name.build(common_name="Audit Root CA", organization=trust_org),
                key=keystore.key("audit:root", key_bits),
            )
        )
        self.intermediate = self.root.issue_intermediate(
            Name.build(common_name="Audit Issuing CA", organization=trust_org),
            keystore.key("audit:intermediate", key_bits),
        )
        self.attacker = CertificateAuthority.self_signed(
            SelfSignedParams(
                subject=Name.build(
                    common_name="Honest Achmed Root", organization="Adversary Labs"
                ),
                key=keystore.key("audit:attacker", key_bits),
            )
        )
        self._proxy_store = RootStore([self.root.certificate])

    def proxy_store(self) -> RootStore:
        """The root store the audited proxy judges upstream chains with.

        One store per kit: no engine changes its roots, so a chain
        verdict reached in one rig serves every later rig.
        """
        return self._proxy_store

    def issue_leaf(
        self,
        hostname: str,
        *,
        label: str,
        issuer: CertificateAuthority | None = None,
        key_bits: int = GENUINE_KEY_BITS,
        hash_name: str = "sha1",
        dns_names: list[str] | None = None,
        not_before: _dt.datetime | None = None,
        not_after: _dt.datetime | None = None,
    ) -> Certificate:
        """Mint an origin leaf with the scenario's chosen flaws.

        ``label`` keeps key material and serial numbers distinct (and
        deterministic) per scenario.
        """
        ca = issuer or self.intermediate
        n, e = synthetic_public_key(
            key_bits,
            random.Random(stable_hash(self.seed, "audit-leaf", label, key_bits)),
        )
        names = dns_names or [hostname]
        kwargs = {}
        if not_before is not None:
            kwargs["not_before"] = not_before
        if not_after is not None:
            kwargs["not_after"] = not_after
        return ca.issue(
            Name.build(common_name=names[0], organization="Audit Target Org"),
            SubjectPublicKeyInfo(n, e),
            hash_name=hash_name,
            dns_names=names,
            serial_number=stable_hash(self.seed, "audit-serial", label, bits=63) | 1,
            **kwargs,
        )

    def genuine_chain(self, hostname: str) -> tuple[Certificate, Certificate]:
        leaf = self.issue_leaf(hostname, label="genuine")
        return (leaf, self.intermediate.certificate)

    def self_signed_leaf(self, hostname: str) -> Certificate:
        """A leaf that vouches only for itself (needs a real keypair)."""
        authority = CertificateAuthority.self_signed(
            SelfSignedParams(
                subject=Name.build(common_name=hostname),
                key=self.keystore.key("audit:self-signed-leaf", self.key_bits),
                is_ca=False,
                dns_names=(hostname,),
                serial_number=stable_hash(self.seed, "audit-serial", "self-signed", bits=63)
                | 1,
            )
        )
        return authority.certificate


@dataclass(frozen=True)
class OriginSetup:
    """What the audited origin serves for one scenario."""

    chain: tuple[Certificate, ...]
    max_version: tuple[int, int] = codec.TLS_1_2
    cipher_suite: int = 0x002F
    # Serial numbers "published" as revoked for the scenario's duration.
    revoked_serials: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AuditScenario:
    """One adversarial upstream condition in the battery."""

    key: str
    title: str
    description: str
    defect: str | None  # ground-truth defect code; None = control
    builder: Callable[[AuditPki, str], OriginSetup]

    def build(self, pki: AuditPki, hostname: str = AUDIT_HOSTNAME) -> OriginSetup:
        return self.builder(pki, hostname)


def _baseline(pki: AuditPki, hostname: str) -> OriginSetup:
    return OriginSetup(chain=pki.genuine_chain(hostname))


def _expired_leaf(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(
        hostname,
        label="expired",
        not_before=_dt.datetime(2010, 1, 1, tzinfo=_dt.timezone.utc),
        not_after=_dt.datetime(2012, 1, 1, tzinfo=_dt.timezone.utc),
    )
    return OriginSetup(chain=(leaf, pki.intermediate.certificate))


def _self_signed(pki: AuditPki, hostname: str) -> OriginSetup:
    return OriginSetup(chain=(pki.self_signed_leaf(hostname),))


def _wrong_hostname(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(
        hostname, label="wrong-hostname", dns_names=["some-other-site.example"]
    )
    return OriginSetup(chain=(leaf, pki.intermediate.certificate))


def _untrusted_ca(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(hostname, label="untrusted-ca", issuer=pki.attacker)
    return OriginSetup(chain=(leaf, pki.attacker.certificate))


def _weak_key(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(hostname, label="weak-key", key_bits=WEAK_KEY_BITS)
    return OriginSetup(chain=(leaf, pki.intermediate.certificate))


def _deprecated_hash(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(hostname, label="deprecated-hash", hash_name="md5")
    return OriginSetup(chain=(leaf, pki.intermediate.certificate))


def _version_downgrade(pki: AuditPki, hostname: str) -> OriginSetup:
    # Genuine chain; the *connection* is the problem: the origin will
    # only negotiate SSLv3 with an export-grade RC4/MD5 suite.
    return OriginSetup(
        chain=pki.genuine_chain(hostname),
        max_version=codec.SSL_3_0,
        cipher_suite=0x0004,  # TLS_RSA_WITH_RC4_128_MD5
    )


def _weak_cipher(pki: AuditPki, hostname: str) -> OriginSetup:
    # Modern version, broken suite: TLS 1.2 but RC4/MD5.
    return OriginSetup(
        chain=pki.genuine_chain(hostname),
        cipher_suite=0x0004,  # TLS_RSA_WITH_RC4_128_MD5
    )


def _revoked_leaf(pki: AuditPki, hostname: str) -> OriginSetup:
    leaf = pki.issue_leaf(hostname, label="revoked")
    return OriginSetup(
        chain=(leaf, pki.intermediate.certificate),
        revoked_serials=frozenset({leaf.serial_number}),
    )


BASELINE_KEY = "baseline"

SCENARIOS: tuple[AuditScenario, ...] = (
    AuditScenario(
        key=BASELINE_KEY,
        title="Genuine origin",
        description="Valid chain from a trusted CA; the control run.",
        defect=None,
        builder=_baseline,
    ),
    AuditScenario(
        key="expired-leaf",
        title="Expired leaf",
        description="Trusted chain whose leaf expired two years ago.",
        defect=DEFECT_EXPIRED,
        builder=_expired_leaf,
    ),
    AuditScenario(
        key="self-signed",
        title="Self-signed leaf",
        description="The origin vouches for itself; no CA involved.",
        defect=DEFECT_UNTRUSTED_ROOT,
        builder=_self_signed,
    ),
    AuditScenario(
        key="wrong-hostname",
        title="Wrong hostname",
        description="Valid chain, but issued for a different site.",
        defect=DEFECT_HOSTNAME,
        builder=_wrong_hostname,
    ),
    AuditScenario(
        key="untrusted-ca",
        title="Untrusted CA",
        description="Chain anchored at a CA no store trusts (the §5.2 attack).",
        defect=DEFECT_UNTRUSTED_ROOT,
        builder=_untrusted_ca,
    ),
    AuditScenario(
        key="weak-key",
        title="Weak RSA key",
        description="Trusted chain carrying a factorable 512-bit leaf key.",
        defect=DEFECT_WEAK_KEY,
        builder=_weak_key,
    ),
    AuditScenario(
        key="deprecated-hash",
        title="MD5 signature",
        description="Trusted chain whose leaf is signed with MD5.",
        defect=DEFECT_DEPRECATED_HASH,
        builder=_deprecated_hash,
    ),
    AuditScenario(
        key="version-downgrade",
        title="Protocol downgrade",
        description="Origin only negotiates SSLv3 with an RC4/MD5 suite.",
        defect=DEFECT_PROTOCOL_DOWNGRADE,
        builder=_version_downgrade,
    ),
    AuditScenario(
        key="weak-cipher",
        title="Weak cipher suite",
        description="Origin speaks TLS 1.2 but negotiates RC4/MD5.",
        defect=DEFECT_PROTOCOL_DOWNGRADE,
        builder=_weak_cipher,
    ),
    AuditScenario(
        key="revoked-leaf",
        title="Revoked certificate",
        description="Valid chain whose leaf serial is on the published CRL.",
        defect=DEFECT_REVOKED,
        builder=_revoked_leaf,
    ),
)

ADVERSARIAL_SCENARIOS: tuple[AuditScenario, ...] = tuple(
    scenario for scenario in SCENARIOS if scenario.defect is not None
)


def scenario_by_key() -> dict[str, AuditScenario]:
    return {scenario.key: scenario for scenario in SCENARIOS}
