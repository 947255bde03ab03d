"""Per-country calibration (Tables 3 and 7) and campaign constants (Table 2).

``proxied``/``total`` are the paper's measured connection counts; the
population sampler uses ``total`` as the country's measurement weight
and ``proxied/total`` as its interception rate.  The "Other" rows are
expanded over a synthetic tail of additional countries.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CountryCalibration:
    """One country's published numbers for one study."""

    code: str
    name: str
    proxied: int
    total: int

    @property
    def rate(self) -> float:
        return self.proxied / self.total if self.total else 0.0


# Table 3 — proxied connections by country, first study (top 20 + Other).
STUDY1_COUNTRIES: tuple[CountryCalibration, ...] = (
    CountryCalibration("US", "United States", 2252, 285078),
    CountryCalibration("BR", "Brazil", 2041, 298618),
    CountryCalibration("FR", "France", 812, 74789),
    CountryCalibration("GB", "United Kingdom", 759, 259971),
    CountryCalibration("RO", "Romania", 696, 94116),
    CountryCalibration("DE", "Germany", 499, 187805),
    CountryCalibration("CA", "Canada", 303, 34695),
    CountryCalibration("TR", "Turkey", 303, 65195),
    CountryCalibration("IN", "India", 302, 51348),
    CountryCalibration("ES", "Spain", 226, 62569),
    CountryCalibration("RU", "Russia", 224, 58402),
    CountryCalibration("IT", "Italy", 200, 129358),
    CountryCalibration("KR", "South Korea", 196, 46660),
    CountryCalibration("PT", "Portugal", 185, 29799),
    CountryCalibration("PL", "Poland", 182, 110550),
    CountryCalibration("UA", "Ukraine", 160, 61431),
    CountryCalibration("BE", "Belgium", 136, 16816),
    CountryCalibration("JP", "Japan", 111, 31751),
    CountryCalibration("NL", "Netherlands", 104, 31938),
    CountryCalibration("TW", "Taiwan", 101, 61195),
)
STUDY1_OTHER = CountryCalibration("??", "Other (215 countries)", 1972, 869096)
STUDY1_TOTAL = CountryCalibration("ALL", "Total", 11764, 2861180)

# Table 7 — connections tested by country, second study (top 20 + Other).
STUDY2_COUNTRIES: tuple[CountryCalibration, ...] = (
    CountryCalibration("CN", "China", 563, 2549301),
    CountryCalibration("UA", "Ukraine", 4329, 1575053),
    CountryCalibration("RU", "Russia", 4532, 1116341),
    CountryCalibration("KR", "South Korea", 1722, 836556),
    CountryCalibration("EG", "Egypt", 3720, 660937),
    CountryCalibration("PK", "Pakistan", 1890, 456792),
    CountryCalibration("TR", "Turkey", 1975, 411962),
    CountryCalibration("US", "United States", 3327, 385811),
    CountryCalibration("JP", "Japan", 2033, 273532),
    CountryCalibration("GB", "United Kingdom", 2056, 266873),
    CountryCalibration("BR", "Brazil", 1889, 232454),
    CountryCalibration("TW", "Taiwan", 530, 186942),
    CountryCalibration("RO", "Romania", 2210, 185749),
    CountryCalibration("ID", "Indonesia", 798, 181971),
    CountryCalibration("DE", "Germany", 1091, 177586),
    CountryCalibration("IT", "Italy", 737, 145438),
    CountryCalibration("GR", "Greece", 516, 130613),
    CountryCalibration("PL", "Poland", 456, 127806),
    CountryCalibration("CZ", "Czech Republic", 343, 110170),
    CountryCalibration("IN", "India", 716, 102869),
)
STUDY2_OTHER = CountryCalibration("??", "Other (209 countries)", 15328, 2200000)
STUDY2_TOTAL = CountryCalibration("ALL", "Total", 50761, 12314756)

# Countries in the "Other" tail.  Weights follow a Zipf-ish decay; the
# aggregate proxied/total is split proportionally.  (These are real ISO
# codes so the GeoIP layer and heat map stay plausible; DK and IE carry
# product-specific narratives — MYInternetS and DSP.)
OTHER_TAIL_CODES: tuple[str, ...] = (
    "MX", "AR", "CO", "CL", "PE", "VE", "AU", "NZ", "ZA", "NG",
    "KE", "EG2", "MA", "DZ", "TN", "SA", "AE", "IL", "IE", "DK",
    "SE", "NO", "FI", "CH", "AT", "HU", "BG", "RS", "HR", "SK",
    "LT", "LV", "EE", "TH", "VN", "MY", "SG", "PH", "HK", "BD",
    "LK", "NP", "KZ", "GE", "AM", "AZ", "BY", "MD", "AL", "MK",
)


def other_tail(study: int) -> list[CountryCalibration]:
    """Expand the 'Other' row over the synthetic tail countries."""
    aggregate = STUDY1_OTHER if study == 1 else STUDY2_OTHER
    codes = [c for c in OTHER_TAIL_CODES if c != "EG2"]
    weights = [1.0 / (rank + 2) for rank in range(len(codes))]
    weight_sum = sum(weights)
    rows = []
    remaining_total = aggregate.total
    remaining_proxied = aggregate.proxied
    for index, (code, weight) in enumerate(zip(codes, weights)):
        if index == len(codes) - 1:
            total, proxied = remaining_total, remaining_proxied
        else:
            total = int(aggregate.total * weight / weight_sum)
            proxied = int(aggregate.proxied * weight / weight_sum)
            remaining_total -= total
            remaining_proxied -= proxied
        rows.append(CountryCalibration(code, code, proxied, total))
    return rows


def country_table(study: int) -> list[CountryCalibration]:
    """Top-20 countries plus the expanded tail for ``study`` (1 or 2)."""
    named = STUDY1_COUNTRIES if study == 1 else STUDY2_COUNTRIES
    return list(named) + other_tail(study)


# The five countries targeted by dedicated mini-campaigns in study 2.
TARGETED_COUNTRIES: tuple[str, ...] = ("CN", "UA", "RU", "EG", "PK")


@dataclass(frozen=True)
class CampaignCalibration:
    """Table 2 — one AdWords campaign's published statistics."""

    name: str
    geo_target: str | None  # ISO code, or None for global
    daily_budget_usd: float
    days: int
    impressions: int
    clicks: int
    cost_usd: float

    @property
    def effective_cpm(self) -> float:
        """Observed cost per thousand impressions."""
        return self.cost_usd / self.impressions * 1000.0

    @property
    def click_through_rate(self) -> float:
        return self.clicks / self.impressions


STUDY2_CAMPAIGNS: tuple[CampaignCalibration, ...] = (
    CampaignCalibration("Global", None, 500.0, 7, 3285598, 5424, 4021.78),
    CampaignCalibration("China", "CN", 50.0, 7, 689233, 652, 401.41),
    CampaignCalibration("Egypt", "EG", 50.0, 7, 232218, 1777, 378.17),
    CampaignCalibration("Pakistan", "PK", 50.0, 7, 183849, 2536, 378.26),
    CampaignCalibration("Russia", "RU", 50.0, 7, 230474, 203, 401.36),
    CampaignCalibration("Ukraine", "UA", 50.0, 7, 364868, 294, 390.69),
)

STUDY1_CAMPAIGN = CampaignCalibration(
    # Jan 6–30 2014: variable budget for 17 days, then $500/day.
    "Study 1 Global", None, 500.0, 24, 4634386, 3897, 4911.97,
)

# Measurement yield: successful measurements per impression, derived
# from the paper's totals (2,861,244 / 4,634,386 and
# 12,314,756 / 5,079,298 respectively).
STUDY1_MEASUREMENTS = 2861244
STUDY2_MEASUREMENTS = 12314756


def measurement_yield(study: int) -> float:
    if study == 1:
        return STUDY1_MEASUREMENTS / STUDY1_CAMPAIGN.impressions
    total_impressions = sum(c.impressions for c in STUDY2_CAMPAIGNS)
    return STUDY2_MEASUREMENTS / total_impressions
