"""Root certificate stores.

The root store is the battleground of the paper: benevolent products
and malware alike *inject* a new trusted root so their substitute
certificates validate (Figure 2(c)).  The store records which roots
are factory-installed versus injected so experiments can distinguish
the two.
"""

from __future__ import annotations

import itertools

from repro.util import Memo
from repro.x509.model import Certificate

#: Chain verdicts one store remembers; past the bound the oldest goes.
VERDICT_MEMO_SIZE = 256


def _verdict_key_bytes(key: tuple) -> int:
    """The text in one ``(chain fingerprints, hostname, time)`` verdict key."""
    fingerprints, hostname, _ = key
    return sum(map(len, fingerprints)) + len(hostname or "")


# Every store state's generation, unique across stores in the process.
_generations = itertools.count()


class RootStore:
    """A set of trusted root certificates, keyed by fingerprint.

    The store also remembers, in ``verdicts``, the chain verdicts
    :mod:`repro.x509.verify` reached against it, since a verdict holds
    exactly as long as the roots do: adding, injecting or removing a
    root forgets them all.
    Each such change also gives the store a new ``generation``, a
    number no other state of any store shares, so a caller that keeps
    its own results judged against a store can tell whether they still
    hold.
    """

    def __init__(self, roots: list[Certificate] | None = None) -> None:
        self._roots: dict[str, Certificate] = {}
        self._injected: set[str] = set()
        self.verdicts = Memo("x509.chain_memo", VERDICT_MEMO_SIZE, _verdict_key_bytes)
        self.generation = next(_generations)
        for root in roots or []:
            self.add(root)

    def _changed(self) -> None:
        """Forget every verdict and take a new generation."""
        self.verdicts.clear()
        self.generation = next(_generations)

    def add(self, root: Certificate) -> None:
        """Add a factory (pre-installed) root."""
        self._roots[root.fingerprint()] = root
        self._changed()

    def inject(self, root: Certificate) -> None:
        """Add a root the way a proxy product or malware does at install."""
        fingerprint = root.fingerprint()
        self._roots[fingerprint] = root
        self._injected.add(fingerprint)
        self._changed()

    def remove(self, root: Certificate) -> None:
        fingerprint = root.fingerprint()
        self._roots.pop(fingerprint, None)
        self._injected.discard(fingerprint)
        self._changed()

    def contains(self, certificate: Certificate) -> bool:
        return certificate.fingerprint() in self._roots

    def is_injected(self, certificate: Certificate) -> bool:
        """True if this root was added post-factory (the Figure 2(c) case)."""
        return certificate.fingerprint() in self._injected

    def find_issuer_roots(self, certificate: Certificate) -> list[Certificate]:
        """Roots whose subject matches ``certificate``'s issuer."""
        return [
            root
            for root in self._roots.values()
            if root.subject == certificate.issuer
        ]

    def copy(self) -> "RootStore":
        """Independent copy (for per-client stores cloned from a base image)."""
        clone = RootStore()
        clone._roots = dict(self._roots)
        clone._injected = set(self._injected)
        return clone

    def __len__(self) -> int:
        return len(self._roots)

    def __iter__(self):
        return iter(self._roots.values())

    @property
    def injected_count(self) -> int:
        return len(self._injected)
