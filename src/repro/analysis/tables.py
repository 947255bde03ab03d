"""Table generators for the paper's evaluation artifacts."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.classifier import IssuerClassifier
from repro.measure.database import ReportDatabase, ReportTally
from repro.proxy.profile import ProxyCategory

# Fixed row order of Tables 5 and 6.
CATEGORY_ORDER: tuple[ProxyCategory, ...] = (
    ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
    ProxyCategory.BUSINESS_FIREWALL,
    ProxyCategory.PERSONAL_FIREWALL,
    ProxyCategory.PARENTAL_CONTROL,
    ProxyCategory.ORGANIZATION,
    ProxyCategory.SCHOOL,
    ProxyCategory.MALWARE,
    ProxyCategory.UNKNOWN,
    ProxyCategory.TELECOM,
    ProxyCategory.CERTIFICATE_AUTHORITY,
)


@dataclass(frozen=True)
class CountryRow:
    """One row of Table 3 / Table 7."""

    rank: int
    country: str
    proxied: int
    total: int

    @property
    def percent(self) -> float:
        return 100.0 * self.proxied / self.total if self.total else 0.0


@dataclass(frozen=True)
class CountryBreakdown:
    """Tables 3/7: top countries, aggregated tail, and totals."""

    rows: tuple[CountryRow, ...]
    other: CountryRow
    total: CountryRow

    def all_rows(self) -> list[CountryRow]:
        return [*self.rows, self.other, self.total]


def country_breakdown(
    database: ReportTally, top_n: int = 20, order_by: str = "proxied"
) -> CountryBreakdown:
    """Per-country proxied/total counts.

    Table 3 orders by proxied count; Table 7 by total connections
    (``order_by="total"``).
    """
    if order_by not in ("proxied", "total"):
        raise ValueError("order_by must be 'proxied' or 'total'")
    totals = database.totals_by_country()
    key_index = 0 if order_by == "proxied" else 1
    ordered = sorted(totals.items(), key=lambda item: item[1][key_index], reverse=True)
    top = ordered[:top_n]
    tail = ordered[top_n:]
    rows = tuple(
        CountryRow(rank + 1, country, proxied, total)
        for rank, (country, (proxied, total)) in enumerate(top)
    )
    other = CountryRow(
        0,
        f"Other ({len(tail)})",
        sum(p for _, (p, _) in tail),
        sum(t for _, (_, t) in tail),
    )
    total_row = CountryRow(
        0,
        "Total",
        database.mismatch_count,
        database.total_measurements,
    )
    return CountryBreakdown(rows=rows, other=other, total=total_row)


@dataclass(frozen=True)
class IssuerRow:
    """One row of Table 4."""

    rank: int
    issuer_organization: str
    connections: int


def issuer_organization_table(
    database: ReportDatabase, top_n: int = 20
) -> tuple[list[IssuerRow], IssuerRow]:
    """Table 4: substitute-certificate Issuer Organization values."""
    classifier = IssuerClassifier()
    counts: Counter[str] = Counter()
    for record in database.mismatches():
        counts[classifier.display_issuer(record.leaf)] += 1
    # Ties break by name, not Counter insertion order, so the table is
    # identical whether records arrive in merge order or are read back
    # from on-disk segments (country-shard order).
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    top = ordered[:top_n]
    tail = ordered[top_n:]
    rows = [
        IssuerRow(rank + 1, issuer, count) for rank, (issuer, count) in enumerate(top)
    ]
    other = IssuerRow(0, f"Other ({len(tail)})", sum(c for _, c in tail))
    return rows, other


@dataclass(frozen=True)
class ClassificationRow:
    """One row of Table 5 / Table 6."""

    category: ProxyCategory
    connections: int
    percent: float


def classification_table(database: ReportDatabase) -> list[ClassificationRow]:
    """Tables 5/6: claimed-issuer classification of proxied connections."""
    classifier = IssuerClassifier()
    counts: Counter[ProxyCategory] = Counter()
    for record in database.mismatches():
        counts[classifier.classify(record.leaf)] += 1
    total = sum(counts.values())
    return [
        ClassificationRow(
            category=category,
            connections=counts.get(category, 0),
            percent=100.0 * counts.get(category, 0) / total if total else 0.0,
        )
        for category in CATEGORY_ORDER
    ]


@dataclass(frozen=True)
class HostTypeRow:
    """One row of Table 8."""

    host_type: str
    connections: int
    proxied: int

    @property
    def percent_proxied(self) -> float:
        return 100.0 * self.proxied / self.connections if self.connections else 0.0


def host_type_table(database: ReportTally) -> list[HostTypeRow]:
    """Table 8: proxied-connection breakdown by host type."""
    order = ("Popular", "Business", "Pornographic", "Authors'")
    totals = database.totals_by_host_type()
    rows = []
    for host_type in order:
        proxied, total = totals.get(host_type, (0, 0))
        rows.append(HostTypeRow(host_type, total, proxied))
    for host_type, (proxied, total) in sorted(totals.items()):
        if host_type not in order:
            rows.append(HostTypeRow(host_type, total, proxied))
    return rows


def heatmap_series(database: ReportTally) -> dict[str, float]:
    """Figure 7: per-country proxy rate (fraction, 0..~0.12)."""
    return {
        country: proxied / total
        for country, (proxied, total) in database.totals_by_country().items()
        if total > 0
    }
