"""Behaviour profiles for TLS interception products.

A profile captures everything about a product that is *observable from
the substitute certificates it emits* plus its documented reaction to
forged upstream certificates.  The product catalog in
:mod:`repro.data.products` instantiates one profile per product named
in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.tls.codec import EXT_SERVER_NAME, TLS_1_2
from repro.x509.model import Name
from repro.x509.verify import (
    CHAIN_OF_TRUST_DEFECTS,
    DEFECT_EXPIRED,
    DEFECT_HOSTNAME,
)

# Defect codes for upstream problems that lie outside the chain checks
# in :mod:`repro.x509.verify` — the proxy notices these (or not) on the
# origin-facing leg of the interception.
DEFECT_WEAK_KEY = "weak-key"
DEFECT_DEPRECATED_HASH = "deprecated-hash"
DEFECT_PROTOCOL_DOWNGRADE = "protocol-downgrade"
DEFECT_REVOKED = "revoked"

# Signature hashes a vigilant 2014-era appliance refuses upstream.
DEPRECATED_HASHES = frozenset({"md5"})

# Lowest wire version in the simulation; a profile whose
# ``min_tls_version`` is this value accepts any negotiated version.
SSL_3_0 = (3, 0)


class ProxyCategory(str, enum.Enum):
    """The paper's ten issuer-classification categories (Tables 5/6)."""

    BUSINESS_PERSONAL_FIREWALL = "Business/Personal Firewall"
    BUSINESS_FIREWALL = "Business Firewall"
    PERSONAL_FIREWALL = "Personal Firewall"
    PARENTAL_CONTROL = "Parental Control"
    ORGANIZATION = "Organization"
    SCHOOL = "School"
    MALWARE = "Malware"
    UNKNOWN = "Unknown"
    TELECOM = "Telecom"
    CERTIFICATE_AUTHORITY = "Certificate Authority"


class ForgedUpstreamPolicy(str, enum.Enum):
    """What a proxy does when the origin presents an untrusted chain.

    * ``BLOCK`` — refuse the connection with a fatal alert.  What
      Bitdefender did in the authors' lab test (§5.2), and the safe
      default.
    * ``MASK`` — forge a trusted substitute anyway, hiding the attack
      from the user.  Kurupira's negligent behaviour: an attacker
      behind the filter gets a free, invisible MitM.
    * ``PASS_THROUGH`` — relay the original (untrusted) certificate and
      let the browser warn.
    """

    BLOCK = "block"
    MASK = "mask"
    PASS_THROUGH = "pass-through"


class ServerSessionPolicy(str, enum.Enum):
    """How the substitute ServerHello fills its session-id field.

    * ``NONE`` — an empty session id: the substitute leg never offers
      resumption.  The historical engine behaviour, and a client-side
      tell (real 2014 origins hand out resumable sessions).
    * ``ECHO`` — echo whatever session id the client offered (empty
      offers stay empty — a resumption-indifferent stack).
    * ``FRESH`` — mint a fresh 32-byte session id per connection, the
      way a genuine resumption-capable origin answers a new session.
    """

    NONE = "none"
    ECHO = "echo"
    FRESH = "fresh"


class AlpnPolicy(str, enum.Enum):
    """How the substitute ServerHello answers the client's ALPN offer.

    * ``OWN`` — the product's own canned answer: always http/1.1,
      whatever the client preferred.  The historical engine behaviour,
      and an ALPN-mismatch tell against any h2-preferring origin.
    * ``ECHO`` — select like a genuine origin would (h2 over http/1.1
      within the client's offer) — the mimic setting.
    * ``STRIP`` — never answer ALPN at all, even when offered; common
      in appliances whose inspection engine cannot parse HTTP/2.
    """

    OWN = "own"
    ECHO = "echo"
    STRIP = "strip"


class UpstreamHelloPolicy(str, enum.Enum):
    """What ClientHello the proxy sends on its origin-facing leg.

    * ``MIMIC`` — replay the intercepted client's offer byte-for-byte
      (fresh random, same version/suites/compression/extensions), so a
      fingerprinting origin cannot tell the proxy from the browser.
    * ``OWN_STACK`` — speak with the product's own TLS stack: a fixed
      cipher-suite and extension set whose fingerprint diverges from
      whatever browser sits behind it — the de Carné de Carnavalet &
      van Oorschot detection signal, and what every stack the engine
      historically modelled did.
    """

    MIMIC = "mimic"
    OWN_STACK = "own_stack"


class SubjectRewrite(str, enum.Enum):
    """How a proxy mangles the substitute certificate's subject (§5.2)."""

    NONE = "none"
    WILDCARD_SUBNET = "wildcard-subnet"  # CN names only the /24 of the site
    WRONG_DOMAIN = "wrong-domain"  # CN for an unrelated domain entirely


@dataclass(frozen=True)
class ProxyProfile:
    """The observable behaviour of one interception product."""

    key: str  # stable identifier, e.g. "bitdefender"
    issuer: Name  # subject of the product's signing CA
    category: ProxyCategory
    # Aggregate profiles (the "Other (332)" long tail) rotate through
    # several issuer names, selected per client bucket; empty means the
    # single ``issuer`` is always used.
    issuer_variants: tuple[Name, ...] = ()
    # Substitute-certificate cryptography.
    leaf_key_bits: int = 1024
    hash_name: str = "sha1"
    ca_key_bits: int = 1024
    # Behaviour quirks from §5.1/5.2/6.4.
    copies_upstream_issuer: bool = False  # the false "DigiCert Inc" claims
    reuses_leaf_key: bool = False  # IopFail's single 512-bit key
    subject_rewrite: SubjectRewrite = SubjectRewrite.NONE
    wrong_domain: str = "mail.google.com"
    forged_upstream: ForgedUpstreamPolicy = ForgedUpstreamPolicy.BLOCK
    injects_root: bool = True  # False models the rogue/compromised-CA path
    whitelist: frozenset[str] = field(default_factory=frozenset)
    # §7 explicit-proxy proposals: a cooperating proxy self-identifies
    # in its substitute certificates.  None = does not disclose (every
    # product the paper measured).
    disclosure_identity: str | None = None
    # -- Upstream security posture (Waked et al. style) ----------------
    # Which defects in the *origin's* TLS offering the product actually
    # notices before deciding per ``forged_upstream``.  Defaults mirror
    # the historical engine behaviour: full chain validation, and no
    # checks beyond it.  A defect the product does not notice is forged
    # over — an invisible MASK, whatever the configured policy says.
    validates_hostname: bool = True
    validates_expiry: bool = True
    validates_chain_of_trust: bool = True
    min_upstream_key_bits: int = 0  # 0 = does not check key strength
    rejects_deprecated_hashes: bool = False
    min_tls_version: tuple[int, int] = SSL_3_0  # accepts any version
    checks_revocation: bool = False
    # Appliances that cache the upstream validation verdict per host
    # reuse it for later connections — the time-of-check/time-of-use
    # hole the audit battery's warm-then-attack probes expose.
    caches_validation: bool = False
    # -- Client-leg posture (mimicry + substitute handshake) ------------
    # How the origin-facing ClientHello is built.  OWN_STACK sends the
    # codec's DEFAULT_CIPHER_SUITES and ``own_extension_types`` at the
    # client's version capped at TLS 1.2; with the default SNI-only
    # extensions that is the engine's historical wire bytes.
    upstream_hello: UpstreamHelloPolicy = UpstreamHelloPolicy.OWN_STACK
    own_extension_types: tuple[int, ...] = (EXT_SERVER_NAME,)
    # The client-facing substitute handshake.  ``substitute_tls_version``
    # None = echo whatever version the client offered (transparent); a
    # fixed value caps the echoed version — the substitute-leg version
    # downgrade Waked et al. graded appliances down for.  The key size
    # and signature hash of the substitute certificate itself are the
    # existing ``leaf_key_bits`` / ``hash_name`` knobs; the forger
    # honours those, ``_serve_chain`` honours these.
    substitute_tls_version: tuple[int, int] | None = None
    # The suite the substitute ServerHello answers with.  A fixed value
    # models a canned proxy stack; ``None`` negotiates like a genuine
    # RSA-certificate origin (first RSA-authenticated suite in the
    # client's preference order) — the server-leg mimic setting, and
    # correct against *any* probing browser rather than one.
    substitute_cipher_suite: int | None = 0x002F
    # -- Server-leg posture (the substitute ServerHello itself) ---------
    # Which extension types the substitute ServerHello carries (filtered
    # at serve time against what the client offered, like any real
    # server).  Empty — the historical engine shape — means no
    # extensions block at all, a JA3S divergence from every 2014 origin
    # that confirmed secure renegotiation.
    own_server_extension_types: tuple[int, ...] = ()
    # Session-id echo policy for the substitute leg.
    server_session_id: ServerSessionPolicy = ServerSessionPolicy.NONE
    # Compression method byte the substitute ServerHello advertises.
    # Nonzero is a scorecard-visible defect: no sane 2014 origin
    # negotiated TLS compression post-CRIME.
    substitute_compression_method: int = 0
    # -- Version-negotiation posture (TLS 1.3 era) ----------------------
    # The highest protocol version the substitute leg will negotiate.
    # The TLS 1.2 default reproduces every historical product: a
    # 1.3-offering client is silently capped at 1.2.  ``TLS_1_3`` lets
    # the substitute leg negotiate 1.3 via supported_versions/key_share
    # the way a genuine modern origin does.  (``substitute_tls_version``
    # still caps the pre-1.3 legacy echo below this ceiling.)
    max_tls_version: tuple[int, int] = TLS_1_2
    # A 1.3-capable product that *chooses* to downgrade clients to 1.2
    # so its inspection path stays simple — the enterprise-appliance
    # defect Waked et al. flagged.  Only meaningful with
    # ``max_tls_version`` ≥ TLS 1.3.
    downgrade_tls13: bool = False
    # Whether a downgrading substitute leg stamps the RFC 8446 §4.1.3
    # "DOWNGRD" sentinel into its server random.  A conforming stack
    # must; a product that downgrades *silently* (False) defeats the
    # client's downgrade protection entirely — the worse defect.
    sets_downgrade_sentinel: bool = False
    # ALPN answer policy for the substitute leg.
    alpn: AlpnPolicy = AlpnPolicy.OWN
    # Session-ticket issue / session-resume behaviour.  Ticket *issue*
    # on the 1.2 path is the EXT_SESSION_TICKET grant already governed
    # by ``own_server_extension_types``; this knob controls the grant
    # on the modern (1.3) path, where the served extension set is
    # protocol-determined rather than configured.
    issues_session_tickets: bool = False
    # Whether the substitute leg honours a session id it previously
    # handed out (presented back by a resuming client).  False with a
    # FRESH session policy models the Waked et al. defect: the product
    # mints resumable-looking ids it then refuses to resume.
    resumes_sessions: bool = False

    def notices_defect(self, code: str) -> bool:
        """Whether this product's posture catches the given defect code.

        Threshold checks (key size, protocol version) answer whether
        the product checks *at all*; the engine applies the thresholds
        against the observed connection.
        """
        if code == DEFECT_HOSTNAME:
            return self.validates_hostname
        if code == DEFECT_EXPIRED:
            return self.validates_expiry
        if code in CHAIN_OF_TRUST_DEFECTS:
            return self.validates_chain_of_trust
        if code == DEFECT_WEAK_KEY:
            return self.min_upstream_key_bits > 0
        if code == DEFECT_DEPRECATED_HASH:
            return self.rejects_deprecated_hashes
        if code == DEFECT_PROTOCOL_DOWNGRADE:
            return self.min_tls_version > SSL_3_0
        if code == DEFECT_REVOKED:
            return self.checks_revocation
        return True

    def is_whitelisted(self, hostname: str) -> bool:
        hostname = hostname.lower()
        if hostname in self.whitelist:
            return True
        # Whitelists in the wild match registrable domains.
        return any(
            hostname.endswith("." + entry) for entry in self.whitelist
        )

    @property
    def issuer_organization(self) -> str | None:
        """The Issuer Organization string the analysis will see."""
        return self.issuer.organization

    def issuer_for_bucket(self, client_bucket: int) -> Name:
        """The issuer name used by the install in ``client_bucket``."""
        if not self.issuer_variants:
            return self.issuer
        return self.issuer_variants[client_bucket % len(self.issuer_variants)]

    def all_issuers(self) -> tuple[Name, ...]:
        return self.issuer_variants if self.issuer_variants else (self.issuer,)

    def leaf_key_label(self, hostname: str, client_bucket: int) -> str:
        """Key-pool label for a substitute leaf.

        Products normally generate a key per install (modelled as a
        small number of buckets); key-reusing malware uses one global
        key, which is exactly the IopFail signal the analysis hunts.
        """
        if self.reuses_leaf_key:
            return f"leaf:{self.key}"
        return f"leaf:{self.key}:{client_bucket}"
