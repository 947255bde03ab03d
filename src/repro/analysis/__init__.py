"""Analysis of collected certificate reports.

Reproduces §5 and §6 of the paper over a :class:`ReportDatabase`:

* :class:`IssuerClassifier` — maps substitute-certificate issuer
  fields to the paper's ten categories (Tables 5/6) using the known
  product list plus heuristics, never the simulation's ground truth.
* :mod:`repro.analysis.tables` — the country, issuer, classification
  and host-type tables (Tables 3/4/5/6/7/8) and the Figure 7 series.
* :mod:`repro.analysis.negligence` — §5.2: key-size downgrades, MD5
  signatures, falsified CA claims, subject modifications, shared keys.
* :mod:`repro.analysis.malware` — the §6.4 malware census and the
  IP-dispersion oddities (kowsar, DSP, MYInternetS).
* :mod:`repro.analysis.mimicry` — the mimicry-prevalence study:
  per-country detectable-from-client-side rates, weighted by product
  market share, from the audit harness's server-leg survey.
"""

from repro.analysis.classifier import IssuerClassifier
from repro.analysis.malware import MalwareCensus, OddityReport, ip_dispersion_oddities, malware_census
from repro.analysis.mimicry import (
    MimicryCountryRow,
    MimicryPrevalence,
    mimicry_prevalence,
)
from repro.analysis.negligence import NegligenceReport, analyze_negligence
from repro.analysis.tables import (
    classification_table,
    country_breakdown,
    heatmap_series,
    host_type_table,
    issuer_organization_table,
)

__all__ = [
    "IssuerClassifier",
    "MalwareCensus",
    "MimicryCountryRow",
    "MimicryPrevalence",
    "NegligenceReport",
    "OddityReport",
    "analyze_negligence",
    "classification_table",
    "country_breakdown",
    "heatmap_series",
    "host_type_table",
    "ip_dispersion_oddities",
    "issuer_organization_table",
    "malware_census",
    "mimicry_prevalence",
]
