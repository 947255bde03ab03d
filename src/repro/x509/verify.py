"""Certificate chain validation.

Implements the client-side trust decision of Figure 2: walk the
presented chain from the leaf, checking signatures, validity windows,
CA flags and name chaining, until a certificate is signed by (or *is*)
a root-store member.  The result says not only valid/invalid but also
*why*, and whether trust terminated in an injected root — the signal
that a proxy, not the real PKI, vouched for the connection.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.crypto.hashes import hash_by_signature_oid
from repro.crypto.rsa import RsaPublicKey, pkcs1_verify
from repro.x509.model import Certificate
from repro.x509.store import RootStore


# Stable defect codes for the individual checks a client (or a proxy
# auditing its upstream) performs.  The audit subsystem keys product
# posture on these, so they are part of the public API.
DEFECT_EMPTY_CHAIN = "empty-chain"
DEFECT_HOSTNAME = "hostname-mismatch"
DEFECT_EXPIRED = "validity-window"
DEFECT_BAD_CA_FLAG = "bad-ca-flag"
DEFECT_CHAIN_BREAK = "chain-break"
DEFECT_BAD_SIGNATURE = "bad-signature"
DEFECT_UNTRUSTED_ROOT = "untrusted-root"

# Every defect code that concerns the chain of trust itself (as opposed
# to naming or freshness).
CHAIN_OF_TRUST_DEFECTS = frozenset(
    {
        DEFECT_EMPTY_CHAIN,
        DEFECT_BAD_CA_FLAG,
        DEFECT_CHAIN_BREAK,
        DEFECT_BAD_SIGNATURE,
        DEFECT_UNTRUSTED_ROOT,
    }
)


@dataclass(frozen=True)
class ChainDefect:
    """One concrete problem found in a presented chain."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ChainValidationResult:
    """Outcome of validating a presented chain against a root store."""

    valid: bool
    reason: str
    trust_root: Certificate | None = None
    trusted_via_injected_root: bool = False
    errors: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.valid


def verify_certificate_signature(
    certificate: Certificate, signer: Certificate
) -> bool:
    """Check ``certificate``'s signature against ``signer``'s public key."""
    try:
        hash_alg = hash_by_signature_oid(certificate.signature_oid)
    except KeyError:
        return False
    public_key = RsaPublicKey(
        certificate_signer_n(signer), certificate_signer_e(signer)
    )
    return pkcs1_verify(
        public_key, hash_alg, certificate.tbs_der, certificate.signature
    )


def certificate_signer_n(certificate: Certificate) -> int:
    return certificate.tbs.public_key.n


def certificate_signer_e(certificate: Certificate) -> int:
    return certificate.tbs.public_key.e


def validate_chain(
    chain: list[Certificate],
    store: RootStore,
    hostname: str | None = None,
    at_time: _dt.datetime | None = None,
) -> ChainValidationResult:
    """Validate a presented certificate chain (leaf first).

    Checks: non-emptiness, hostname match on the leaf, validity
    windows, issuer/subject chaining, CA flags on intermediates, each
    link's signature, and that the chain terminates at (a certificate
    signed by) a root-store member.  The checks are those of
    :func:`collect_chain_defects`; this wraps them in the all-or-
    nothing verdict a browser renders, plus which root anchored trust.
    """
    defects, anchor = _check_chain(chain, store, hostname, at_time)
    if defects:
        return ChainValidationResult(
            False, str(defects[0]), errors=tuple(str(d) for d in defects)
        )
    return ChainValidationResult(
        True,
        "chain anchors at trusted root"
        if store.contains(chain[-1])
        else "chain signed by trusted root",
        trust_root=anchor,
        trusted_via_injected_root=store.is_injected(anchor),
    )


def collect_chain_defects(
    chain: list[Certificate],
    store: RootStore,
    hostname: str | None = None,
    at_time: _dt.datetime | None = None,
) -> tuple[ChainDefect, ...]:
    """Run every chain check and report *all* failures, coded.

    Unlike :func:`validate_chain` — which mirrors a browser and stops
    caring once the chain is known bad — this keeps going so callers
    can reason per-defect.  A proxy that skips hostname verification
    but does anchor chains, for example, needs to know *which* checks
    failed, not merely that one did.  The chain is valid iff the result
    is empty.
    """
    return _check_chain(chain, store, hostname, at_time)[0]


def _check_chain(
    chain: list[Certificate],
    store: RootStore,
    hostname: str | None,
    at_time: _dt.datetime | None,
) -> tuple[tuple[ChainDefect, ...], Certificate | None]:
    """Every check, once: ``(defects, anchoring root or None)``.

    The verdict is a function of the chain's DER, the hostname, the
    time and the store's roots, so it is memoised on the store under
    the first three; the store forgets its verdicts whenever its roots
    change.
    """
    if not chain:
        return (ChainDefect(DEFECT_EMPTY_CHAIN, "no certificates presented"),), None
    at_time = at_time or _dt.datetime(2014, 6, 1, tzinfo=_dt.timezone.utc)
    key = (tuple(certificate.fingerprint() for certificate in chain), hostname, at_time)
    verdict = store.verdicts.get(key)
    if verdict is not None:
        return verdict
    defects: list[ChainDefect] = []

    leaf = chain[0]
    if hostname is not None and not leaf.matches_hostname(hostname):
        defects.append(
            ChainDefect(
                DEFECT_HOSTNAME,
                f"certificate is for {leaf.subject.common_name!r}, "
                f"not {hostname!r}",
            )
        )

    for index, certificate in enumerate(chain):
        if not certificate.validity.contains(at_time):
            defects.append(
                ChainDefect(
                    DEFECT_EXPIRED, f"certificate {index} outside validity window"
                )
            )
        if index > 0 and not certificate.is_ca:
            defects.append(
                ChainDefect(
                    DEFECT_BAD_CA_FLAG,
                    f"certificate {index} used as CA without CA flag",
                )
            )

    for index in range(len(chain) - 1):
        child, parent = chain[index], chain[index + 1]
        if child.issuer != parent.subject:
            defects.append(
                ChainDefect(
                    DEFECT_CHAIN_BREAK,
                    f"chain break at {index}: issuer {child.issuer} != "
                    f"subject {parent.subject}",
                )
            )
        elif not verify_certificate_signature(child, parent):
            defects.append(
                ChainDefect(
                    DEFECT_BAD_SIGNATURE, f"bad signature on certificate {index}"
                )
            )

    top = chain[-1]
    if store.contains(top):
        anchor: Certificate | None = top
    else:
        anchor = next(
            (
                root
                for root in store.find_issuer_roots(top)
                if verify_certificate_signature(top, root)
                and root.validity.contains(at_time)
            ),
            None,
        )
    if anchor is None:
        defects.append(
            ChainDefect(
                DEFECT_UNTRUSTED_ROOT,
                f"no trusted root found for issuer {top.issuer}",
            )
        )
    verdict = tuple(defects), anchor
    store.verdicts.put(key, verdict)
    return verdict
