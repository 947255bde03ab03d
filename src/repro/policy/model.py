"""Cross-domain policy document model and XML codec.

The grammar is the (tiny) Adobe cross-domain policy format:

    <cross-domain-policy>
      <allow-access-from domain="*" to-ports="443,8443" />
    </cross-domain-policy>

Parsing uses :mod:`xml.etree` — the documents are machine-generated
and small, and strictness errors must surface as policy denials.
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass


class PolicyError(ValueError):
    """Raised for malformed policy documents."""


@dataclass(frozen=True)
class PolicyRule:
    """One ``allow-access-from`` element."""

    domain: str = "*"
    to_ports: str = "*"

    def permits(self, domain: str, port: int) -> bool:
        return self._domain_matches(domain) and self._port_matches(port)

    def _domain_matches(self, domain: str) -> bool:
        pattern = self.domain.lower()
        domain = domain.lower()
        if pattern == "*":
            return True
        if pattern.startswith("*."):
            return domain.endswith(pattern[1:]) or domain == pattern[2:]
        return domain == pattern

    def _port_matches(self, port: int) -> bool:
        for part in self.to_ports.split(","):
            part = part.strip()
            if part == "*":
                return True
            low, dash, high = part.partition("-")
            if not dash:
                high = low
            # A bound is ASCII digits and nothing else: int() would also
            # take "4_43", "+443" and non-ASCII digits.
            if (
                low.isascii()
                and low.isdigit()
                and high.isascii()
                and high.isdigit()
                and int(low) <= port <= int(high)
            ):
                return True
        return False


@dataclass(frozen=True)
class PolicyFile:
    """A parsed cross-domain policy."""

    rules: tuple[PolicyRule, ...] = ()

    @classmethod
    def permissive(cls, ports: str = "*") -> "PolicyFile":
        """The wide-open policy the probed sites had to serve."""
        return cls((PolicyRule(domain="*", to_ports=ports),))

    def permits(self, domain: str, port: int) -> bool:
        return any(rule.permits(domain, port) for rule in self.rules)

    @property
    def is_permissive_for_tls(self) -> bool:
        """Permits any-domain access to port 443 — the Table 1 criterion."""
        return self.permits("measurement.example", 443)

    def to_xml(self) -> str:
        lines = ["<cross-domain-policy>"]
        for rule in self.rules:
            lines.append(
                f'  <allow-access-from domain="{rule.domain}" '
                f'to-ports="{rule.to_ports}" />'
            )
        lines.append("</cross-domain-policy>")
        return "\n".join(lines)

    @classmethod
    def from_xml(cls, text: str) -> "PolicyFile":
        try:
            root = ElementTree.fromstring(text)
        except ElementTree.ParseError as exc:
            raise PolicyError(f"bad policy XML: {exc}") from exc
        if root.tag != "cross-domain-policy":
            raise PolicyError(f"unexpected root element {root.tag!r}")
        rules = []
        for element in root:
            if element.tag != "allow-access-from":
                continue
            rules.append(
                PolicyRule(
                    domain=element.get("domain", ""),
                    to_ports=element.get("to-ports", "*"),
                )
            )
        return cls(tuple(rules))
