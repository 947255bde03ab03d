"""Appliance security audit: adversarial upstream battery + scorecards.

The paper spot-checked two products against one forged upstream
certificate (§5.2).  This subsystem systematises that experiment the
way Waked et al. (NDSS 2018) did for enterprise interception
appliances: every :class:`~repro.proxy.profile.ProxyProfile` in the
product catalog is driven through a deterministic battery of
adversarial upstream scenarios over netsim, and graded A–F on whether
it BLOCKs, PASSes through, or MASKs each attack.

* :mod:`repro.audit.scenarios` — the scenario registry: expired leaf,
  self-signed, wrong hostname, untrusted CA, weak RSA key, MD5
  signature, protocol downgrade, revoked leaf (plus a genuine-origin
  control), each a transform of the origin's chain or TLS parameters.
* :mod:`repro.audit.harness` — wires origin, product and victim per
  scenario, probes warm-then-attacked, and classifies the outcome.
* :mod:`repro.audit.scorecard` — turns outcomes into letter-graded
  scorecards with per-check evidence, and the catalog-wide report.

Grading covers three observable surfaces per product: the adversarial
upstream scenarios, the client-leg mimicry checks (upstream
ClientHello fingerprint, substitute certificate), and the server-leg
checks (the substitute ServerHello's chosen cipher, extension set,
version echo, compression and session-id policy vs the probing
browser's *expected* genuine-origin answer).

Entry points: ``audit_catalog(seed, workers)`` (batch API),
``mimicry_catalog(...)`` (the mimicry probe alone, feeding the
mimicry-prevalence study) and the ``repro audit`` /
``repro mimicry-prevalence`` CLI subcommands.
"""

from repro.audit.harness import AuditHarness, audit_catalog, mimicry_catalog
from repro.audit.scenarios import (
    ADVERSARIAL_SCENARIOS,
    AUDIT_HOSTNAME,
    AuditPki,
    AuditScenario,
    OriginSetup,
    SCENARIOS,
    scenario_by_key,
)
from repro.audit.scorecard import (
    ALPN_MISMATCH_KEY,
    AuditReport,
    CheckResult,
    ClientLegObservation,
    MIMICRY_KEY,
    MimicryEntry,
    MimicrySurvey,
    ModernLegObservation,
    OUTCOME_BLOCK,
    OUTCOME_DIVERGENT,
    OUTCOME_DOWNGRADED,
    OUTCOME_ERROR,
    OUTCOME_INTERCEPT,
    OUTCOME_MASK,
    OUTCOME_OK,
    OUTCOME_PASS,
    OUTCOME_WEAK,
    ProductScorecard,
    RESUMPTION_KEY,
    ScenarioObservation,
    ServerLegObservation,
    TLS13_DOWNGRADE_KEY,
    build_client_checks,
    build_scorecard,
    build_server_checks,
    letter_grade,
)

__all__ = [
    "ADVERSARIAL_SCENARIOS",
    "ALPN_MISMATCH_KEY",
    "AUDIT_HOSTNAME",
    "AuditHarness",
    "AuditPki",
    "AuditReport",
    "AuditScenario",
    "CheckResult",
    "ClientLegObservation",
    "MIMICRY_KEY",
    "MimicryEntry",
    "MimicrySurvey",
    "ModernLegObservation",
    "OUTCOME_BLOCK",
    "OUTCOME_DIVERGENT",
    "OUTCOME_DOWNGRADED",
    "OUTCOME_ERROR",
    "OUTCOME_INTERCEPT",
    "OUTCOME_MASK",
    "OUTCOME_OK",
    "OUTCOME_PASS",
    "OUTCOME_WEAK",
    "OriginSetup",
    "ProductScorecard",
    "RESUMPTION_KEY",
    "SCENARIOS",
    "ScenarioObservation",
    "ServerLegObservation",
    "TLS13_DOWNGRADE_KEY",
    "audit_catalog",
    "build_client_checks",
    "build_scorecard",
    "build_server_checks",
    "letter_grade",
    "mimicry_catalog",
    "scenario_by_key",
]
