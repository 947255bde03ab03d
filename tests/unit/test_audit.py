"""Unit tests for the appliance security audit subsystem."""

import json

import pytest

from repro.audit import (
    ADVERSARIAL_SCENARIOS,
    AuditHarness,
    MIMICRY_KEY,
    OUTCOME_BLOCK,
    OUTCOME_DIVERGENT,
    OUTCOME_DOWNGRADED,
    OUTCOME_INTERCEPT,
    OUTCOME_MASK,
    OUTCOME_OK,
    OUTCOME_PASS,
    SCENARIOS,
    audit_catalog,
    build_scorecard,
    letter_grade,
    scenario_by_key,
)
from repro.audit.scorecard import ScenarioObservation
from repro.analysis.tables import audit_grade_table, client_leg_table
from repro.proxy import (
    ForgedUpstreamPolicy,
    ProxyCategory,
    ProxyProfile,
    UpstreamHelloPolicy,
)
from repro.reporting import (
    render_audit_grade_table,
    render_client_leg_table,
    render_scorecard,
)
from repro.x509 import Name


@pytest.fixture(scope="module")
def harness():
    return AuditHarness(seed=17, pki_key_bits=512)


def make_profile(**overrides):
    """A fully vigilant product: notices every scenario's defect."""
    defaults = dict(
        key="audit-test-product",
        issuer=Name.build(common_name="Audit Test CA", organization="AuditTest"),
        category=ProxyCategory.BUSINESS_FIREWALL,
        leaf_key_bits=512,
        ca_key_bits=512,
        hash_name="sha1",
        forged_upstream=ForgedUpstreamPolicy.BLOCK,
        min_upstream_key_bits=1024,
        rejects_deprecated_hashes=True,
        min_tls_version=(3, 1),
        checks_revocation=True,
    )
    defaults.update(overrides)
    return ProxyProfile(**defaults)


class TestScenarioRegistry:
    def test_at_least_eight_adversarial_scenarios(self):
        assert len(ADVERSARIAL_SCENARIOS) >= 8

    def test_keys_are_unique(self):
        keys = [scenario.key for scenario in SCENARIOS]
        assert len(keys) == len(set(keys))

    def test_exactly_one_control(self):
        controls = [s for s in SCENARIOS if s.defect is None]
        assert len(controls) == 1
        assert controls[0].key == "baseline"


# What a vigilant product's policy should produce, per scenario kind.
_EXPECTED = {
    ForgedUpstreamPolicy.BLOCK: OUTCOME_BLOCK,
    ForgedUpstreamPolicy.MASK: OUTCOME_MASK,
    ForgedUpstreamPolicy.PASS_THROUGH: OUTCOME_PASS,
}


class TestScenarioPolicyMatrix:
    """Every scenario × every ForgedUpstreamPolicy."""

    @pytest.mark.parametrize("policy", list(ForgedUpstreamPolicy))
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.key)
    def test_vigilant_product_outcome(self, harness, scenario, policy):
        profile = make_profile(
            key=f"matrix-{policy.value}", forged_upstream=policy
        )
        observation = harness.run_scenario(profile, scenario)
        if scenario.defect is None:
            assert observation.outcome == OUTCOME_INTERCEPT
        else:
            assert observation.outcome == _EXPECTED[policy], observation.evidence


class TestPostureDivergence:
    def test_unnoticed_defect_is_masked_despite_block_policy(self, harness):
        """A product that skips expiry checks forges over an expired
        origin even though its policy would block noticed forgeries."""
        profile = make_profile(key="no-expiry", validates_expiry=False)
        scenario = scenario_by_key()["expired-leaf"]
        observation = harness.run_scenario(profile, scenario)
        assert observation.outcome == OUTCOME_MASK

    def test_threshold_knobs_gate_weak_key(self, harness):
        scenario = scenario_by_key()["weak-key"]
        lax = make_profile(key="lax-key", min_upstream_key_bits=0)
        assert harness.run_scenario(lax, scenario).outcome == OUTCOME_MASK
        strict = make_profile(key="strict-key", min_upstream_key_bits=1024)
        assert harness.run_scenario(strict, scenario).outcome == OUTCOME_BLOCK

    def test_caching_product_reuses_warm_verdict(self, harness):
        """caches_validation: the warm-up verdict masks later attacks."""
        cacher = make_profile(key="cacher", caches_validation=True)
        for scenario in ADVERSARIAL_SCENARIOS:
            observation = harness.run_scenario(cacher, scenario)
            assert observation.outcome == OUTCOME_MASK, scenario.key

    def test_downgrade_accepted_below_floor(self, harness):
        tolerant = make_profile(key="sslv3-ok", min_tls_version=(3, 0))
        for key in ("version-downgrade", "weak-cipher"):
            scenario = scenario_by_key()[key]
            assert harness.run_scenario(tolerant, scenario).outcome == OUTCOME_MASK


class TestScorecard:
    def test_letter_grade_boundaries(self):
        assert letter_grade(1.0) == "A"
        assert letter_grade(0.9) == "A"
        assert letter_grade(0.75) == "B"
        assert letter_grade(0.5) == "C"
        assert letter_grade(0.375) == "D"
        assert letter_grade(0.0) == "F"

    def test_build_scorecard_points(self):
        observations = [
            ScenarioObservation("baseline", OUTCOME_INTERCEPT, "ok"),
        ] + [
            ScenarioObservation(s.key, OUTCOME_BLOCK, "blocked")
            for s in ADVERSARIAL_SCENARIOS
        ]
        card = build_scorecard("perfect", "Test", observations)
        assert card.functional
        assert card.grade == "A"
        assert card.score == card.max_score == len(ADVERSARIAL_SCENARIOS)

    def test_broken_product_flagged_nonfunctional(self):
        observations = [
            ScenarioObservation("baseline", OUTCOME_BLOCK, "refused everything"),
        ] + [
            ScenarioObservation(s.key, OUTCOME_BLOCK, "blocked")
            for s in ADVERSARIAL_SCENARIOS
        ]
        card = build_scorecard("deadbolt", "Test", observations)
        assert not card.functional

    def test_pass_through_earns_half_marks(self):
        observations = [
            ScenarioObservation("baseline", OUTCOME_INTERCEPT, "ok"),
        ] + [
            ScenarioObservation(s.key, OUTCOME_PASS, "relayed")
            for s in ADVERSARIAL_SCENARIOS
        ]
        card = build_scorecard("relay", "Test", observations)
        assert card.fraction == pytest.approx(0.5)
        assert card.grade == "C"


class TestCatalogAudit:
    SUBSET = ["bitdefender", "kurupira", "contentwatch", "posco"]

    def test_same_seed_identical_scorecards(self):
        first = audit_catalog(seed=23, products=self.SUBSET, pki_key_bits=512)
        second = audit_catalog(seed=23, products=self.SUBSET, pki_key_bits=512)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_workers_do_not_change_results(self):
        serial = audit_catalog(seed=23, products=self.SUBSET, pki_key_bits=512)
        threaded = audit_catalog(
            seed=23, products=self.SUBSET, pki_key_bits=512, workers=4
        )
        assert json.dumps(serial.to_dict()) == json.dumps(threaded.to_dict())

    def test_known_product_archetypes(self):
        report = audit_catalog(seed=23, products=self.SUBSET, pki_key_bits=512)
        cards = report.by_key()
        assert cards["bitdefender"].grade == "A"  # blocked the §5.2 forgery
        assert cards["kurupira"].grade == "F"  # masked it
        assert cards["kurupira"].masked == len(ADVERSARIAL_SCENARIOS)
        assert cards["contentwatch"].masked == len(ADVERSARIAL_SCENARIOS)  # TOCTOU
        assert cards["posco"].passed_through == len(ADVERSARIAL_SCENARIOS)
        assert all(card.functional for card in report.scorecards)

    def test_unknown_product_rejected(self):
        with pytest.raises(KeyError):
            audit_catalog(seed=23, products=["no-such-product"], pki_key_bits=512)

    def test_grade_table_and_rendering(self):
        report = audit_catalog(seed=23, products=self.SUBSET, pki_key_bits=512)
        rows = audit_grade_table(report.scorecards)
        assert [row.rank for row in rows] == [1, 2, 3, 4]
        assert rows[0].product_key == "bitdefender"
        text = render_audit_grade_table(rows)
        assert "bitdefender" in text and "Grade" in text
        detail = render_scorecard(report.by_key()["kurupira"])
        assert "grade F" in detail
        assert "MASK" in detail


class TestMimicry:
    def test_mimic_product_fingerprints_as_browser(self, harness):
        profile = make_profile(
            key="mimic-product", upstream_hello=UpstreamHelloPolicy.MIMIC
        )
        observation = harness.run_mimicry(profile).client_leg
        assert observation.error == ""
        assert observation.observed_ja3 == observation.expected_ja3
        assert observation.divergent_fields == ()

    def test_own_stack_product_diverges(self, harness):
        profile = make_profile(key="own-stack-product")
        observation = harness.run_mimicry(profile).client_leg
        assert observation.observed_ja3 != observation.expected_ja3
        assert "cipher_suites" in observation.divergent_fields

    def test_substitute_leg_observed(self, harness):
        profile = make_profile(
            key="downgrading-product",
            leaf_key_bits=512,
            hash_name="md5",
            substitute_tls_version=(3, 1),
        )
        probe = harness.run_mimicry(profile)
        observation = probe.client_leg
        assert observation.substitute_key_bits == 512
        assert observation.substitute_hash == "md5"
        assert observation.offered_version == (3, 3)
        assert observation.echoed_version == (3, 1)
        # The server leg sees the same downgrade, plus the bare stack.
        server = probe.server_leg
        assert server.echoed_version == (3, 1)
        assert "version" in server.divergent_fields
        assert server.compression_method == 0
        assert server.session_id_length == 0

    def test_server_leg_mimic_hidden_for_every_browser(self):
        """A negotiating mimic (substitute_cipher_suite=None) must stay
        indistinguishable whichever browser probes it — the expected
        origin answer differs per browser, and the mimic tracks it."""
        from repro.data.products import catalog_by_key
        from repro.tls.fingerprint import BROWSER_PROFILES

        profile = catalog_by_key()["bitdefender"].profile
        for browser in BROWSER_PROFILES:
            harness = AuditHarness(seed=17, pki_key_bits=512, browser=browser)
            server = harness.run_mimicry(profile).server_leg
            assert server.error == "", (browser, server.error)
            assert server.divergent_fields == (), (browser, server)
            assert server.chosen_cipher == server.expected_cipher

    def test_client_checks_graded_into_scorecard(self, harness):
        profile = make_profile(
            key="graded-product", upstream_hello=UpstreamHelloPolicy.MIMIC
        )
        card = harness.audit_product(profile)
        by_key = {check.scenario: check for check in card.client_checks}
        assert by_key[MIMICRY_KEY].outcome == OUTCOME_OK
        assert by_key[MIMICRY_KEY].points == 1.0
        # 9 adversarial + 3 client-leg + 5 server-leg checks.
        assert card.max_score == len(ADVERSARIAL_SCENARIOS) + 3 + 5
        assert card.score == card.client_score + card.server_score + sum(
            check.points for check in card.checks
        )
        assert "mimicry" in {
            check["scenario"]
            for check in card.to_dict()["client_leg"]["checks"]
        }
        assert "server-cipher" in {
            check["scenario"]
            for check in card.to_dict()["server_leg"]["checks"]
        }

    def test_catalog_mimic_unpenalised_own_stack_graded_down(self):
        report = audit_catalog(
            seed=23,
            products=["bitdefender", "kurupira", "md5-legacy"],
            pki_key_bits=512,
        )
        cards = report.by_key()
        bit_checks = {c.scenario: c for c in cards["bitdefender"].client_checks}
        kur_checks = {c.scenario: c for c in cards["kurupira"].client_checks}
        md5_checks = {c.scenario: c for c in cards["md5-legacy"].client_checks}
        # The mimic product earns full mimicry marks; own-stack loses them.
        assert bit_checks[MIMICRY_KEY].outcome == OUTCOME_OK
        assert kur_checks[MIMICRY_KEY].outcome == OUTCOME_DIVERGENT
        assert kur_checks[MIMICRY_KEY].points == 0.0
        # md5-legacy is also graded down on every substitute dimension;
        # the version-echo check now lives in the server-leg section.
        assert md5_checks["substitute-hash"].points == 0.0
        md5_server = {
            c.scenario: c for c in cards["md5-legacy"].server_checks
        }
        assert md5_server["version-echo"].outcome == OUTCOME_DOWNGRADED
        assert md5_server["server-compression"].points == 0.0
        assert md5_server["server-cipher"].points == 0.0
        # The server-leg mimic earns the full section; kurupira's bare
        # stack diverges on cipher choice and extension set.
        assert cards["bitdefender"].server_score == cards[
            "bitdefender"
        ].server_max_score
        kur_server = {c.scenario: c for c in cards["kurupira"].server_checks}
        assert kur_server["server-extensions"].points == 0.0
        assert report.to_dict()["client_leg_scenarios"][0] == "mimicry"
        assert report.to_dict()["server_leg_scenarios"][0] == "server-cipher"

    def test_browser_choice_changes_expectation_not_determinism(self):
        for browser in ("chrome", "safari"):
            first = audit_catalog(
                seed=23, products=["kurupira"], pki_key_bits=512, browser=browser
            )
            second = audit_catalog(
                seed=23, products=["kurupira"], pki_key_bits=512, browser=browser
            )
            assert first.scorecards == second.scorecards
            card = first.scorecards[0]
            assert card.client_leg is not None
            assert card.client_leg.browser == browser

    def test_client_leg_table_and_rendering(self):
        report = audit_catalog(
            seed=23, products=["bitdefender", "kurupira"], pki_key_bits=512
        )
        rows = client_leg_table(report.scorecards)
        assert [row.product_key for row in rows] == ["bitdefender", "kurupira"]
        assert rows[0].mimicry == "match"
        assert rows[1].mimicry.startswith("diverges:")
        text = render_client_leg_table(rows)
        assert "Mimicry" in text and "kurupira" in text
        grade_rows = audit_grade_table(report.scorecards)
        assert "ClientLeg" in render_audit_grade_table(grade_rows)


def vault_entries(path) -> list[str]:
    return sorted(entry.name for entry in path.glob("*/*.json"))


class TestCatalogWarmup:
    # Catalog products with 4 and 3 issuer variants.
    VARIANT_PRODUCTS = ["telecom-other", "other-personal-fw"]

    def test_pooled_warm_generates_only_what_a_serial_battery_reads(
        self, tmp_path, monkeypatch
    ):
        """The vault warm ``audit_catalog`` runs before it starts a pool
        generates exactly the keys a serial battery of the same
        products generates: the audit PKI and each product's bucket-0
        signing CA, and no issuer variant that no rig signs with."""
        monkeypatch.delenv("REPRO_KEY_VAULT", raising=False)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        reports = [
            audit_catalog(
                seed=17,
                workers=workers,
                products=self.VARIANT_PRODUCTS,
                pki_key_bits=512,
                vault=str(vault),
            )
            for vault, workers in ((serial, 1), (pooled, 2))
        ]
        assert reports[0].scorecards == reports[1].scorecards
        assert vault_entries(pooled) == vault_entries(serial)

    def test_warm_product_plain_profile(self, harness):
        from repro.data.products import catalog

        spec = next(s for s in catalog() if not s.profile.issuer_variants)
        harness.warm_product(spec.profile)
        cache_key = f"{spec.profile.key}|{spec.profile.issuer.rfc4514()}"
        assert cache_key in harness.forger._cas


class TestSharedProxyStore:
    def test_rigs_share_one_store_and_a_second_battery_adds_no_miss(self):
        from repro.util import memo_counts

        harness = AuditHarness(seed=17, pki_key_bits=512)
        first = make_profile()
        second = make_profile(
            key="second-audit-product",
            issuer=Name.build(common_name="Second Audit CA", organization="Second"),
        )
        stores = {
            id(harness._make_rig(profile, scenario.key)[3].upstream_trust)
            for profile in (first, second)
            for scenario in SCENARIOS
        }
        assert stores == {id(harness.pki.proxy_store())}
        misses = memo_counts()["x509.chain_memo.misses"]
        harness.audit_product(first)
        after_first = memo_counts()["x509.chain_memo.misses"]
        assert after_first > misses
        harness.audit_product(second)
        assert memo_counts()["x509.chain_memo.misses"] == after_first


class TestServerLegObservationPaths:
    def test_captured_hello_graded_despite_probe_error(self, harness):
        """A substitute ServerHello that made it onto the wire is
        graded even when the rest of the probe failed — zeroing it
        would misreport a mimicking stack as detectable."""
        from repro.tls.codec import ServerHello
        from repro.tls.fingerprint import (
            CANONICAL_SERVER_EXTENSION_TYPES,
            browser_profile,
            build_own_server_extensions,
        )

        chrome = browser_profile("chrome")
        served = ServerHello(
            server_random=bytes(32),
            cipher_suite=chrome.expected_server_cipher,
            version=chrome.version,
            session_id=b"\x05" * 32,
            extensions=build_own_server_extensions(
                CANONICAL_SERVER_EXTENSION_TYPES,
                chrome.client_hello(bytes(32), "x.example"),
            ),
        )
        observation = harness._observe_server_leg(
            served, "substitute flight missing ServerHello or Certificate"
        )
        assert observation.error == ""
        assert observation.divergent_fields == ()
        assert observation.chosen_cipher == chrome.expected_server_cipher

    def test_missing_hello_reports_error(self, harness):
        observation = harness._observe_server_leg(None, "alert: desc=40")
        assert observation.error == "alert: desc=40"
        assert observation.observed_ja3s is None
        observation = harness._observe_server_leg(None)
        assert observation.error == "substitute flight missing ServerHello"
