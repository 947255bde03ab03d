"""The legitimate web PKI behind the probe sites.

Builds the CA hierarchy of Figure 2(a): a handful of trusted roots,
intermediates under them, and a certificate chain for every probe
site.  The authors' site gets its real-world issuer, DigiCert High
Assurance CA-3, and a 2048-bit key — the §5.2 baseline against which
substitute-certificate downgrades are judged.

A proxy copies only four fields of a site's leaf into its substitute
(issuer, subject, DNS names, validity), so each site's
:class:`SiteLeaf` is defined here without any key; :func:`build_web_pki`
issues the signed leaf from it.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass, field

from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import synthetic_public_key
from repro.data.sites import AUTHORS_SITE, ProbeSite
from repro.util import stable_hash
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Certificate, Name, SubjectPublicKeyInfo, Validity
from repro.x509.store import RootStore

# Root and intermediate names mirror the paper's examples (§2, §5.2).
_ROOTS = (
    ("digicert-root", "DigiCert Inc", "DigiCert High Assurance EV Root CA"),
    ("geotrust-root", "GeoTrust Inc.", "GeoTrust Global CA"),
    ("cybertrust-root", "Baltimore", "Baltimore CyberTrust Root"),
)
_INTERMEDIATES = (
    ("digicert-ha-ca3", "digicert-root", "DigiCert Inc", "DigiCert High Assurance CA-3"),
    ("geotrust-ssl", "geotrust-root", "GeoTrust Inc.", "GeoTrust SSL CA"),
    ("cybertrust-public", "cybertrust-root", "Cybertrust Inc", "Cybertrust Public SureServer SV CA"),
)
_INTERMEDIATE_NAMES = {
    key: Name.build(common_name=cn, organization=org)
    for key, _, org, cn in _INTERMEDIATES
}
# The authors' site really chained to DigiCert High Assurance CA-3.
_AUTHORS_INTERMEDIATE = "digicert-ha-ca3"
ORIGINAL_KEY_BITS = 2048
_SITE_VALIDITY = Validity(
    _dt.datetime(2014, 1, 1, tzinfo=_dt.timezone.utc),
    _dt.datetime(2016, 1, 1, tzinfo=_dt.timezone.utc),
)


@dataclass(frozen=True)
class SiteLeaf:
    """The fields of a site's leaf that a substitute certificate copies."""

    issuer: Name
    subject: Name
    dns_names: tuple[str, ...]
    validity: Validity


def site_leaves(sites: list[ProbeSite], seed: int = 0) -> dict[str, SiteLeaf]:
    """Each site's :class:`SiteLeaf`, by hostname: no key, no signature."""
    intermediate_keys = list(_INTERMEDIATE_NAMES)
    leaves = {}
    for site in sites:
        if site.hostname == AUTHORS_SITE:
            issuer_key = _AUTHORS_INTERMEDIATE
        else:
            index = stable_hash(seed, "site-issuer", site.hostname) % len(
                intermediate_keys
            )
            issuer_key = intermediate_keys[index]
        leaves[site.hostname] = SiteLeaf(
            issuer=_INTERMEDIATE_NAMES[issuer_key],
            subject=Name.build(common_name=site.hostname, organization=_site_org(site)),
            dns_names=(site.hostname, f"www.{site.hostname}"),
            validity=_SITE_VALIDITY,
        )
    return leaves


@dataclass
class WebPki:
    """The origin PKI: roots, intermediates and per-site chains."""

    roots: dict[str, CertificateAuthority] = field(default_factory=dict)
    intermediates: dict[str, CertificateAuthority] = field(default_factory=dict)
    site_chains: dict[str, list[Certificate]] = field(default_factory=dict)

    def root_store(self) -> RootStore:
        """A factory root store trusting exactly these roots."""
        return RootStore([ca.certificate for ca in self.roots.values()])

    def chain_for(self, hostname: str) -> list[Certificate]:
        return self.site_chains[hostname]

    def leaf_for(self, hostname: str) -> Certificate:
        return self.site_chains[hostname][0]


def build_web_pki(
    keystore: KeyStore, sites: list[ProbeSite], seed: int = 0
) -> WebPki:
    """Issue the full hierarchy for ``sites``, each leaf from its :class:`SiteLeaf`."""
    pki = WebPki()
    for key, org, cn in _ROOTS:
        ca_key = keystore.key(f"webpki:{key}", 1024)
        pki.roots[key] = CertificateAuthority.self_signed(
            SelfSignedParams(subject=Name.build(common_name=cn, organization=org), key=ca_key)
        )
    for key, root_key, _, _ in _INTERMEDIATES:
        int_key = keystore.key(f"webpki:{key}", 1024)
        pki.intermediates[key] = pki.roots[root_key].issue_intermediate(
            _INTERMEDIATE_NAMES[key], int_key
        )
    issuers = {ca.name: ca for ca in pki.intermediates.values()}
    for hostname, site_leaf in site_leaves(sites, seed).items():
        issuer = issuers[site_leaf.issuer]
        rng = random.Random(stable_hash(seed, "site-key", hostname))
        n, e = synthetic_public_key(ORIGINAL_KEY_BITS, rng)
        leaf = issuer.issue(
            site_leaf.subject,
            SubjectPublicKeyInfo(n, e),
            hash_name="sha1",  # the 2014 default
            dns_names=list(site_leaf.dns_names),
            not_before=site_leaf.validity.not_before,
            not_after=site_leaf.validity.not_after,
            serial_number=stable_hash(seed, "site-serial", hostname, bits=63) | 1,
        )
        pki.site_chains[hostname] = [leaf, issuer.certificate]
    return pki


def _site_org(site: ProbeSite) -> str:
    if site.hostname == AUTHORS_SITE:
        return "Brigham Young University"
    return site.hostname.split(".")[0].title()
