"""Unit tests for the TLS 1.3-era audit checks.

The version-aware battery: a 2020-era browser profile offers TLS 1.3
via supported_versions, and the server leg gains three graded checks —
ALPN answer, resumption honouring (a double probe presenting back the
product's own session id), and TLS 1.3 downgrade posture with the
RFC 8446 sentinel.
"""

import pytest

from repro.audit import (
    ALPN_MISMATCH_KEY,
    AuditHarness,
    ModernLegObservation,
    OUTCOME_DIVERGENT,
    OUTCOME_DOWNGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_WEAK,
    RESUMPTION_KEY,
    ServerLegObservation,
    TLS13_DOWNGRADE_KEY,
    build_server_checks,
)
from repro.data.products import catalog_by_key
from repro.proxy.profile import AlpnPolicy, ProxyCategory, ProxyProfile
from repro.proxy.profile import ServerSessionPolicy
from repro.tls import codec
from repro.x509 import Name

MODERN_KEYS = (ALPN_MISMATCH_KEY, RESUMPTION_KEY, TLS13_DOWNGRADE_KEY)


@pytest.fixture(scope="module")
def harness():
    return AuditHarness(seed=23, pki_key_bits=512, browser="chrome-2020")


@pytest.fixture(scope="module")
def legacy_harness():
    return AuditHarness(seed=23, pki_key_bits=512)


def modern_profile(**overrides):
    """A product with a fully modern TLS posture."""
    defaults = dict(
        key="modern-test-product",
        issuer=Name.build(common_name="Modern CA", organization="ModernTest"),
        category=ProxyCategory.BUSINESS_FIREWALL,
        leaf_key_bits=512,
        ca_key_bits=512,
        max_tls_version=codec.TLS_1_3,
        alpn=AlpnPolicy.ECHO,
        server_session_id=ServerSessionPolicy.FRESH,
        issues_session_tickets=True,
        resumes_sessions=True,
    )
    defaults.update(overrides)
    return ProxyProfile(**defaults)


def modern_rows(card):
    return {
        check.scenario: check
        for check in card.server_checks
        if check.scenario in MODERN_KEYS
    }


class TestEngineTls13Negotiation:
    def test_modern_product_negotiates_tls13(self, harness):
        probe = harness.run_mimicry(modern_profile())
        modern = probe.server_leg.modern
        assert modern is not None
        assert modern.offered_max_version == codec.TLS_1_3
        assert modern.negotiated_version == codec.TLS_1_3
        assert not modern.downgrade_sentinel

    def test_legacy_product_downgrades_silently(self, harness):
        probe = harness.run_mimicry(modern_profile(max_tls_version=codec.TLS_1_2))
        modern = probe.server_leg.modern
        assert modern.negotiated_version == codec.TLS_1_2
        assert not modern.downgrade_sentinel

    def test_downgrade_knob_with_sentinel(self, harness):
        probe = harness.run_mimicry(
            modern_profile(
                downgrade_tls13=True,
                sets_downgrade_sentinel=True,
            )
        )
        modern = probe.server_leg.modern
        assert modern.negotiated_version == codec.TLS_1_2
        assert modern.downgrade_sentinel

    def test_legacy_browser_observes_no_modern_leg(self, legacy_harness):
        probe = legacy_harness.run_mimicry(modern_profile())
        assert probe.server_leg.modern is None
        keys = {check.scenario for check in build_server_checks(probe.server_leg)}
        assert not (set(MODERN_KEYS) & keys)


class TestAlpnPolicies:
    def test_echo_answers_h2(self, harness):
        probe = harness.run_mimicry(modern_profile(alpn=AlpnPolicy.ECHO))
        assert probe.server_leg.modern.served_alpn == "h2"

    def test_own_answers_http11(self, harness):
        probe = harness.run_mimicry(modern_profile(alpn=AlpnPolicy.OWN))
        assert probe.server_leg.modern.served_alpn == "http/1.1"

    def test_strip_answers_nothing(self, harness):
        probe = harness.run_mimicry(modern_profile(alpn=AlpnPolicy.STRIP))
        assert probe.server_leg.modern.served_alpn is None


class TestResumptionProbe:
    def test_honouring_product_echoes_its_own_id(self, harness):
        probe = harness.run_mimicry(modern_profile())
        modern = probe.server_leg.modern
        assert modern.session_id_issued
        assert modern.resumption_honoured is True

    def test_refusing_product_is_caught(self, harness):
        probe = harness.run_mimicry(modern_profile(resumes_sessions=False))
        modern = probe.server_leg.modern
        assert modern.session_id_issued
        assert modern.resumption_honoured is False


class TestModernGrading:
    def test_fully_modern_product_earns_all_three(self, harness):
        card = harness.audit_product(modern_profile())
        rows = modern_rows(card)
        assert len(rows) == 3
        for check in rows.values():
            assert check.outcome == OUTCOME_OK
            assert check.points == 1.0

    def test_disclosed_downgrade_earns_half(self, harness):
        card = harness.audit_product(
            modern_profile(downgrade_tls13=True, sets_downgrade_sentinel=True)
        )
        check = modern_rows(card)[TLS13_DOWNGRADE_KEY]
        assert check.outcome == OUTCOME_DOWNGRADED
        assert check.points == 0.5
        assert "sentinel" in check.evidence

    def test_silent_downgrade_fails(self, harness):
        card = harness.audit_product(modern_profile(max_tls_version=codec.TLS_1_2))
        check = modern_rows(card)[TLS13_DOWNGRADE_KEY]
        assert check.outcome == OUTCOME_DOWNGRADED
        assert check.points == 0.0

    def test_alpn_strip_fails(self, harness):
        card = harness.audit_product(modern_profile(alpn=AlpnPolicy.STRIP))
        check = modern_rows(card)[ALPN_MISMATCH_KEY]
        assert check.outcome == OUTCOME_DIVERGENT
        assert check.points == 0.0

    def test_refused_resumption_fails_with_evidence(self, harness):
        card = harness.audit_product(modern_profile(resumes_sessions=False))
        check = modern_rows(card)[RESUMPTION_KEY]
        assert check.outcome == OUTCOME_DIVERGENT
        assert check.points == 0.0
        assert "refuses" in check.evidence


class TestModernCheckBuilder:
    """Direct grading-table coverage for ModernLegObservation corners."""

    def _observation(self, **overrides):
        defaults = dict(
            expected_alpn="h2",
            served_alpn="h2",
            offered_max_version=codec.TLS_1_3,
            negotiated_version=codec.TLS_1_3,
            downgrade_sentinel=False,
            session_id_issued=True,
            resumption_honoured=True,
        )
        defaults.update(overrides)
        return ServerLegObservation(
            browser="chrome-2020",
            expected_ja3s="x",
            observed_ja3s="x",
            divergent_fields=(),
            chosen_cipher=0x1301,
            cipher_rank=1,
            expected_cipher=0x1301,
            extension_types=(43, 51, 16, 35),
            expected_extension_types=(43, 51, 16, 35),
            offered_version=codec.TLS_1_2,
            echoed_version=codec.TLS_1_2,
            compression_method=0,
            session_id_length=32,
            modern=ModernLegObservation(**defaults),
        )

    def _check(self, key, **overrides):
        checks = build_server_checks(self._observation(**overrides))
        return {check.scenario: check for check in checks}[key]

    def test_never_issuing_sessions_is_weak(self):
        check = self._check(
            RESUMPTION_KEY, session_id_issued=False, resumption_honoured=False
        )
        assert check.outcome == OUTCOME_WEAK
        assert "never issues" in check.evidence

    def test_failed_resume_probe_is_error(self):
        check = self._check(
            RESUMPTION_KEY,
            resumption_honoured=None,
            resumption_error="connect: refused",
        )
        assert check.outcome == OUTCOME_ERROR
        assert "connect: refused" in check.evidence

    def test_probe_error_emits_all_eight_rows(self):
        observation = ServerLegObservation(
            browser="chrome-2020",
            expected_ja3s="x",
            observed_ja3s=None,
            divergent_fields=(),
            chosen_cipher=None,
            cipher_rank=None,
            expected_cipher=0x1301,
            extension_types=(),
            expected_extension_types=(),
            offered_version=codec.TLS_1_2,
            echoed_version=None,
            compression_method=None,
            session_id_length=None,
            error="probe fell over",
            modern=ModernLegObservation(
                expected_alpn="h2",
                served_alpn=None,
                offered_max_version=codec.TLS_1_3,
                negotiated_version=None,
                downgrade_sentinel=False,
                session_id_issued=False,
                resumption_honoured=None,
            ),
        )
        checks = build_server_checks(observation)
        assert len(checks) == 8
        assert all(check.outcome == OUTCOME_ERROR for check in checks)
        assert set(MODERN_KEYS) <= {check.scenario for check in checks}


class TestCatalogAnchors:
    """The catalog postures the acceptance criteria pin."""

    @pytest.fixture(scope="class")
    def cards(self, harness):
        return {
            key: harness.audit_product(catalog_by_key()[key].profile)
            for key in ("bitdefender", "eset", "fortinet", "kurupira")
        }

    def test_bitdefender_and_eset_pass_all_three(self, cards):
        for key in ("bitdefender", "eset"):
            for check in modern_rows(cards[key]).values():
                assert check.points == 1.0, (key, check.scenario)

    def test_fortinet_disclosed_downgrade(self, cards):
        rows = modern_rows(cards["fortinet"])
        assert rows[TLS13_DOWNGRADE_KEY].points == 0.5
        assert rows[ALPN_MISMATCH_KEY].points == 0.0
        assert rows[RESUMPTION_KEY].points == 0.0

    def test_kurupira_fails_each(self, cards):
        for check in modern_rows(cards["kurupira"]).values():
            assert check.points == 0.0, check.scenario

    def test_every_product_grades_all_three(self, harness):
        for key, spec in catalog_by_key().items():
            card = harness.audit_product(spec.profile)
            assert len(modern_rows(card)) == 3, key

    def test_modern_json_round_trip(self, cards):
        data = cards["bitdefender"].to_dict()
        modern = data["server_leg"]["modern"]
        assert modern["negotiated_version"] == [3, 4]
        assert modern["served_alpn"] == "h2"
        assert modern["resumption_honoured"] is True

    def test_detection_reasons_gain_modern_signals(self, harness):
        entry_ok = harness.run_mimicry(catalog_by_key()["bitdefender"].profile)
        assert "alpn" not in entry_ok.detection_reasons
        assert "tls13-downgrade" not in entry_ok.detection_reasons
        entry_bad = harness.run_mimicry(catalog_by_key()["kurupira"].profile)
        assert "alpn" in entry_bad.detection_reasons
        assert "tls13-downgrade" in entry_bad.detection_reasons
