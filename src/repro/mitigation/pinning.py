"""Certificate pinning (trust-on-first-use + preloads).

Models the Chrome-style pinning the paper describes (§7): pins bind a
hostname to public-key fingerprints, preloads ship with the browser,
and — the crucial caveat — *locally installed* trusted roots bypass
pinning entirely, "so benevolent proxies and malware can circumvent
the pinning process."  That caveat is a knob here so the ablation can
quantify exactly what it costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.x509.model import Certificate
from repro.x509.store import RootStore
from repro.x509.verify import validate_chain


class PinVerdict(str, enum.Enum):
    OK = "ok"  # matches an existing pin
    FIRST_USE = "first-use"  # no pin yet; pinned now (TOFU)
    VIOLATION = "violation"  # pin exists and the key differs
    BYPASSED_LOCAL_ROOT = "bypassed-local-root"  # Chrome's escape hatch


def _key_fingerprint(certificate: Certificate) -> str:
    import hashlib

    spki = certificate.tbs.public_key
    return hashlib.sha256(f"{spki.n}:{spki.e}".encode("ascii")).hexdigest()


@dataclass
class PinStore:
    """Hostname → pinned public-key fingerprints."""

    trust_local_roots: bool = True  # the Chrome behaviour by default
    _pins: dict[str, set[str]] = field(default_factory=dict)
    _preloaded: set[str] = field(default_factory=set)

    def preload(self, hostname: str, certificates: list[Certificate]) -> None:
        """Ship pins with the browser (no TOFU window)."""
        self._pins.setdefault(hostname, set()).update(
            _key_fingerprint(c) for c in certificates
        )
        self._preloaded.add(hostname)

    def is_preloaded(self, hostname: str) -> bool:
        return hostname in self._preloaded

    def check(
        self,
        hostname: str,
        chain: list[Certificate],
        store: RootStore | None = None,
    ) -> PinVerdict:
        """Evaluate a presented chain against the pins.

        ``store`` is the client's root store; when ``trust_local_roots``
        is set and the chain anchors in an *injected* root, pinning is
        bypassed (the Chrome rule).
        """
        if not chain:
            return PinVerdict.VIOLATION
        if self.trust_local_roots and store is not None:
            verdict = validate_chain(chain, store, hostname=hostname)
            if verdict.valid and verdict.trusted_via_injected_root:
                return PinVerdict.BYPASSED_LOCAL_ROOT
        fingerprint = _key_fingerprint(chain[0])
        pinned = self._pins.get(hostname)
        if pinned is None:
            self._pins[hostname] = {fingerprint}
            return PinVerdict.FIRST_USE
        if fingerprint in pinned:
            return PinVerdict.OK
        return PinVerdict.VIOLATION
