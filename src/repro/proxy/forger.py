"""Substitute-certificate forging.

This is the single code path that produces every substitute
certificate in the reproduction — the wire-mode proxy engine and the
fast-mode study driver both call :meth:`SubstituteCertForger.forge`,
so the certificates the analysis sees are identical byte-for-byte
between modes for the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.keystore import KeyStore
from repro.crypto.rsa import synthetic_public_key
from repro.proxy.profile import ProxyProfile, SubjectRewrite
from repro.util import stable_hash
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Certificate, Name, SubjectPublicKeyInfo


@dataclass(frozen=True)
class ForgedCertificate:
    """A substitute certificate plus the CA chain that signs it."""

    leaf: Certificate
    ca_chain: tuple[Certificate, ...]

    @property
    def chain(self) -> tuple[Certificate, ...]:
        return (self.leaf, *self.ca_chain)


class SubstituteCertForger:
    """Forges substitute certificates on behalf of proxy products.

    One forger serves all products: it lazily creates each product's
    signing CA (from the shared :class:`KeyStore`, so CA keys are
    generated once), pools substitute leaf keys per profile rules, and
    applies the profile's quirks — issuer copying, subject rewriting,
    hash and key-size choices.
    """

    def __init__(self, keystore: KeyStore, seed: int = 7) -> None:
        self._keystore = keystore
        self._seed = seed
        self._cas: dict[str, CertificateAuthority] = {}
        self._leaf_keys: dict[tuple[str, int], tuple[int, int]] = {}
        # One entry per (product, site, bucket) a study forges: ≤ 48 × 17 × 32.
        self._forge_cache: dict[tuple, ForgedCertificate] = {}
        self.certificates_forged = 0
        self.cache_hits = 0

    # -- signing CAs ------------------------------------------------------

    def authority_for(
        self, profile: ProxyProfile, issuer_override: Name | None = None
    ) -> CertificateAuthority:
        """The signing CA for ``profile`` (cached per issuer name)."""
        issuer = issuer_override if issuer_override is not None else profile.issuer
        cache_key = f"{profile.key}|{issuer.rfc4514()}"
        ca = self._cas.get(cache_key)
        if ca is None:
            key = self._keystore.key(f"proxy-ca:{cache_key}", profile.ca_key_bits)
            ca = CertificateAuthority.self_signed(
                SelfSignedParams(subject=issuer, key=key)
            )
            self._cas[cache_key] = ca
        return ca

    def warm(self, profile: ProxyProfile) -> None:
        """Pre-generate every signing CA ``profile`` can reach.

        Aggregate profiles rotate issuer names per client bucket, and a
        fast-mode study forges for every bucket, so a study's key warm
        (``StudyRunner.warm_keys``) takes every variant here rather
        than have its worker fleet generate, or race over, the rest on
        first use.  The audit battery serves one bucket and warms only
        that CA.  Issuer-copying profiles mint CAs keyed on upstream
        issuers and cannot be warmed ahead of time.
        """
        if profile.copies_upstream_issuer:
            return
        if profile.issuer_variants:
            for issuer in profile.issuer_variants:
                self.authority_for(profile, issuer)
        else:
            self.authority_for(profile)

    # -- leaf keys ---------------------------------------------------------

    def _leaf_key(self, label: str, bits: int) -> tuple[int, int]:
        slot = (label, bits)
        key = self._leaf_keys.get(slot)
        if key is None:
            rng = random.Random(stable_hash(self._seed, label, bits))
            key = synthetic_public_key(bits, rng)
            self._leaf_keys[slot] = key
        return key

    # -- forging -----------------------------------------------------------

    def forge(
        self,
        profile: ProxyProfile,
        upstream_leaf: Certificate,
        hostname: str,
        site_ip: str = "198.51.100.1",
        client_bucket: int = 0,
    ) -> ForgedCertificate:
        """Produce the substitute certificate ``profile`` would emit.

        ``upstream_leaf`` is the certificate the proxy itself received
        from the origin; profiles copy or rewrite its fields per their
        quirks.  ``client_bucket`` selects the leaf-key pool slot
        (stand-in for "which install generated this key").

        Results are cached: all inputs (including the substitute serial
        number, derived from profile/host/bucket) are deterministic, so
        the same interception decision always yields the same bytes —
        the property the wire≡fast equivalence tests rely on, and what
        makes paper-scale runs affordable.  The cache keys on what
        issuance reads, not on the upstream leaf's bytes, so upstream
        leaves that differ only in fields the profile ignores share
        one substitute.
        """
        issuer_override: Name | None = None
        if profile.copies_upstream_issuer:
            # The §5.2 finding: substitute claims the original's issuer
            # (e.g. "DigiCert Inc") though DigiCert never signed it.
            issuer_override = upstream_leaf.issuer
        elif profile.issuer_variants:
            issuer_override = profile.issuer_for_bucket(client_bucket)
        subject, dns_names = self._subject_for(profile, upstream_leaf, hostname, site_ip)
        validity = upstream_leaf.validity
        cache_key = (
            profile,  # frozen dataclass — hashes all behaviour knobs
            hostname,
            client_bucket,
            issuer_override,
            subject,
            tuple(dns_names),
            validity,
        )
        cached = self._forge_cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached

        ca = self.authority_for(profile, issuer_override)
        n, e = self._leaf_key(
            profile.leaf_key_label(hostname, client_bucket), profile.leaf_key_bits
        )
        extra_extensions = ()
        if profile.disclosure_identity is not None:
            from repro.mitigation.disclosure import DISCLOSURE_EXTENSION_OID
            from repro.asn1.types import Utf8String
            from repro.x509.model import Extension

            extra_extensions = (
                Extension(
                    DISCLOSURE_EXTENSION_OID,
                    critical=False,
                    value=Utf8String(profile.disclosure_identity).encode(),
                ),
            )
        leaf = ca.issue(
            subject,
            SubjectPublicKeyInfo(n, e),
            hash_name=profile.hash_name,
            dns_names=dns_names,
            not_before=validity.not_before,
            not_after=validity.not_after,
            serial_number=stable_hash(
                self._seed, profile.key, hostname, client_bucket, bits=63
            )
            | 1,
            extra_extensions=extra_extensions,
        )
        self.certificates_forged += 1
        forged = ForgedCertificate(leaf=leaf, ca_chain=(ca.certificate,))
        self._forge_cache[cache_key] = forged
        return forged

    def _subject_for(
        self,
        profile: ProxyProfile,
        upstream_leaf: Certificate,
        hostname: str,
        site_ip: str,
    ) -> tuple[Name, list[str] | None]:
        if profile.subject_rewrite is SubjectRewrite.WILDCARD_SUBNET:
            # "a wildcarded IP address ... only designated the subnet"
            subnet = ".".join(site_ip.split(".")[:3])
            cn = f"{subnet}.*"
            return Name.build(common_name=cn), [cn]
        if profile.subject_rewrite is SubjectRewrite.WRONG_DOMAIN:
            cn = profile.wrong_domain
            return Name.build(common_name=cn), [cn]
        subject = upstream_leaf.subject
        if subject.common_name is None:
            subject = Name.build(common_name=hostname)
        dns_names = upstream_leaf.dns_names or [hostname]
        return subject, list(dns_names)
