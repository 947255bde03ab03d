"""Mimicry-prevalence study: server-leg detectability across the catalog.

The paper's core question — can an interception product be told apart
from the origin it impersonates? — gets a population-level answer
here.  The audit harness's mimicry probe
(:func:`repro.audit.mimicry_catalog`) says, per product, whether the
substitute ServerHello it serves a given browser diverges from the
genuine origin's expected answer (JA3S dimensions plus the compression
byte).  This module weights those verdicts by each product's market
share in each country (the same per-country sampling weights the
studies calibrate against Tables 3/7) and reports the fraction of
proxied connections a *client-side* observer could have flagged from
the handshake alone — no certificate inspection, no server
cooperation.

Everything is a pure function of (survey, study), and the survey is
byte-identical for any worker count, so the rendered table and
exported JSON are too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audit.scorecard import MimicrySurvey
from repro.data.countries import country_table
from repro.data.products import catalog


@dataclass(frozen=True)
class MimicryCountryRow:
    """One country's detectable-from-client-side rate.

    ``detectable`` is rounded per country; aggregate rows (Other,
    Total) carry the *sum* of their members' rounded counts, so the
    table always adds up exactly.
    """

    rank: int
    country: str
    proxied: int  # calibrated proxied-connection count (Tables 3/7)
    detectable_share: float  # market-share-weighted fraction detectable
    detectable: int  # proxied connections a client-side observer flags

    @property
    def percent(self) -> float:
        return 100.0 * self.detectable_share


@dataclass(frozen=True)
class ProductVerdict:
    """One product's survey verdict, for the report's evidence section."""

    product_key: str
    category: str
    detectable: bool
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class MimicryPrevalence:
    """The catalog-wide mimicry-prevalence result for one study."""

    study: int
    seed: int
    browser: str
    rows: tuple[MimicryCountryRow, ...]
    other: MimicryCountryRow
    total: MimicryCountryRow
    verdicts: tuple[ProductVerdict, ...]  # catalog order

    def all_rows(self) -> list[MimicryCountryRow]:
        return [*self.rows, self.other, self.total]

    def to_dict(self) -> dict:
        def row_dict(row: MimicryCountryRow) -> dict:
            return {
                "country": row.country,
                "proxied": row.proxied,
                "detectable_share": round(row.detectable_share, 6),
                "detectable": row.detectable,
            }

        return {
            "study": self.study,
            "seed": self.seed,
            "browser": self.browser,
            "countries": [row_dict(row) for row in self.rows],
            "other": row_dict(self.other),
            "total": row_dict(self.total),
            "products": [
                {
                    "product": verdict.product_key,
                    "category": verdict.category,
                    "detectable": verdict.detectable,
                    "reasons": list(verdict.reasons),
                }
                for verdict in self.verdicts
            ],
        }


def mimicry_prevalence(
    survey: MimicrySurvey, study: int = 1, top_n: int = 20
) -> MimicryPrevalence:
    """Weight the survey's per-product verdicts by market share.

    For every country in the study's calibration table, the detectable
    share is the weight of surveyed products whose substitute
    ServerHello a client-side observer can flag, over the weight of
    all surveyed products — the same ``weight_in(study, country)``
    market-share model the samplers draw from, so a product that
    dominates a country drags that country's rate toward its own
    verdict.  Country rows are ranked by calibrated proxied count; the
    tail beyond ``top_n`` aggregates into an Other row, and the Total
    row weights every country by its proxied volume.
    """
    if study not in (1, 2):
        raise ValueError("study must be 1 or 2")
    entries = survey.by_key()
    surveyed = [spec for spec in catalog() if spec.key in entries]
    shares: list[tuple[str, int, float]] = []  # (code, proxied, share)
    for calibration in country_table(study):
        total_weight = 0.0
        detectable_weight = 0.0
        for spec in surveyed:
            weight = spec.weight_in(study, calibration.code)
            if weight <= 0:
                continue
            total_weight += weight
            if entries[spec.key].detectable:
                detectable_weight += weight
        share = detectable_weight / total_weight if total_weight else 0.0
        shares.append((calibration.code, calibration.proxied, share))
    shares.sort(key=lambda item: (-item[1], item[0]))
    top = shares[:top_n]
    tail = shares[top_n:]
    rows = tuple(
        MimicryCountryRow(rank + 1, code, proxied, share, round(proxied * share))
        for rank, (code, proxied, share) in enumerate(top)
    )

    def aggregate(name: str, chunk: list[tuple[str, int, float]]) -> MimicryCountryRow:
        proxied = sum(p for _, p, _ in chunk)
        # Sum the per-country rounded counts (not a re-rounded
        # aggregate) so Other + rows == Total exactly.
        detectable = sum(round(p * s) for _, p, s in chunk)
        share = (
            sum(p * s for _, p, s in chunk) / proxied if proxied else 0.0
        )
        return MimicryCountryRow(0, name, proxied, share, detectable)

    verdicts = tuple(
        ProductVerdict(
            product_key=spec.key,
            category=spec.profile.category.value,
            detectable=entries[spec.key].detectable,
            reasons=entries[spec.key].detection_reasons,
        )
        for spec in surveyed
    )
    return MimicryPrevalence(
        study=study,
        seed=survey.seed,
        browser=survey.browser,
        rows=rows,
        other=aggregate(f"Other ({len(tail)})", tail),
        total=aggregate("Total", shares),
        verdicts=verdicts,
    )
