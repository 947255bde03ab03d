"""Errored client and server legs, driven through the audit rig.

No catalog product errs at the pinned seeds, so these tests make one
fail the mimicry probe in each way the harness grades: the probe is
refused (the product blocks the genuine origin), or the substitute
flight arrives without a certificate or without its ServerHello.  In
each, the product has already sent its own upstream hello, so the
mimicry row is graded from it and only the substitute rows err.  The
scorecard rows, ``to_dict()`` and the rendered leg-table rows are
compared with values written out here, titles and defect codes
included.  An empty certificate list also reaches the adversarial
scenarios, which grade it ERROR.
"""

import json
import re
from dataclasses import astuple

import pytest

from repro.audit import SCENARIOS, AuditHarness, build_scorecard, mimicry_catalog
from repro.obs.metrics import MetricsRegistry
from repro.proxy.profile import ForgedUpstreamPolicy, ProxyCategory, ProxyProfile
from repro.proxy import engine as engine_module
from repro.reporting import render_client_leg_table, render_server_leg_table
from repro.tls import codec
from repro.x509 import Name

CLIENT_ROWS = (
    ("mimicry", "ClientHello mimicry", "fingerprint-divergence"),
    ("substitute-key", "Substitute key strength", "weak-key"),
    ("substitute-hash", "Substitute signature hash", "deprecated-hash"),
)
SERVER_ROWS = (
    ("server-cipher", "Substitute cipher choice", "cipher-divergence"),
    ("server-extensions", "Server extension set", "extension-divergence"),
    ("version-echo", "Version echo", "protocol-downgrade"),
    ("server-compression", "Server compression", "server-compression"),
    ("server-session", "Session-id policy", "no-resumption"),
)
MODERN_ROWS = (
    ("alpn-mismatch", "ALPN answer", "alpn-mismatch"),
    ("resumption-honouring", "Resumption honouring", "broken-resumption"),
    ("tls13-downgrade", "TLS 1.3 negotiation", "tls13-downgrade"),
)

ALERT = "alert: level=2 desc=42"
MISSING = "substitute flight missing ServerHello or Certificate"
EMPTY = "probe completed, but its Certificate message was empty"
CHROME_JA3 = "df54f9c0256380c73f249b47d155517c"
CHROME_2020_JA3 = "5f7a5ab237ce6011c41705e0599e4485"
OWN_STACK_JA3 = "47f3216b3c6f3a40cb71cd3002c07ac9"
OWN_STACK_DIVERGENCE = ["cipher_suites", "extension_types", "groups", "point_formats"]
# The mimicry row of the product's own-stack hello, for {browser} and {ja3}.
OWN_STACK_MIMICRY = (
    "upstream hello diverges from the {browser} profile on cipher_suites, "
    "extension_types, groups, point_formats ({ja3} != 47f3216b3c6f3a40cb71cd3002c07ac9)"
)
CHROME_JA3S = "d01cee0986a20520c1cef0592c675c14"
CHROME_2020_JA3S = "2ee6fe27c810b4e5919a59c437fcc332"
CHROME_EXTENSIONS = [65281, 35, 5, 16, 11]
CHROME_2020_EXTENSIONS = [43, 51, 16, 35]


def profile(**overrides):
    defaults = dict(
        key="errored-leg-product",
        issuer=Name.build(common_name="Errored Leg CA", organization="ErroredLeg"),
        category=ProxyCategory.BUSINESS_FIREWALL,
        leaf_key_bits=512,
        ca_key_bits=512,
    )
    defaults.update(overrides)
    return ProxyProfile(**defaults)


# Refuses the genuine origin: its 2048-bit leaf is below the floor.
REFUSING = dict(forged_upstream=ForgedUpstreamPolicy.BLOCK, min_upstream_key_bits=4096)


@pytest.fixture(scope="module")
def chrome():
    return AuditHarness(seed=17, pki_key_bits=512, browser="chrome")


@pytest.fixture(scope="module")
def chrome_2020():
    return AuditHarness(seed=17, pki_key_bits=512, browser="chrome-2020")


@pytest.fixture
def empty_chain(monkeypatch):
    """The substitute leg serves its ServerHello with no certificate."""
    serve = engine_module._MitmConnection._serve_chain
    monkeypatch.setattr(
        engine_module._MitmConnection,
        "_serve_chain",
        lambda self, sock, hello, der_chain: serve(self, sock, hello, []),
    )


@pytest.fixture
def certificate_only(monkeypatch):
    """The substitute leg serves its Certificate with no ServerHello."""

    def serve(self, sock, hello, der_chain):
        sock.send(
            codec.encode_handshake_record(
                codec.Certificate(tuple(der_chain)), version=hello.version
            )
        )

    monkeypatch.setattr(engine_module._MitmConnection, "_serve_chain", serve)


@pytest.fixture
def no_upstream(monkeypatch):
    """The product never reaches the origin, so it sends no upstream hello."""
    monkeypatch.setattr(
        engine_module._MitmConnection, "_fetch_upstream_chain", lambda self, hello: None
    )


def mimicry_card(harness, product):
    entry = harness.run_mimicry(product)
    return build_scorecard(
        product.key,
        product.category.value,
        [],
        client_leg=entry.client_leg,
        server_leg=entry.server_leg,
    )


def rendered_rows(card):
    """The client- and server-leg table rows of ``card``, split into cells."""
    return tuple(
        re.split(r" {2,}", render([card]).splitlines()[2])
        for render in (render_client_leg_table, render_server_leg_table)
    )


def errored_client_row(browser):
    """``error``, then ``-`` for key bits, hash and version echo."""
    return ["errored-leg-product", browser, "error", "-", "-", "-", "0.0/3"]


def errored_server_row(browser, max_points):
    """``error``, then ``-`` for cipher, version echo, compression and session."""
    return ["errored-leg-product", browser, "error", "-", "-", "-", "-", f"0.0/{max_points}"]


def error_rows(rows, evidence):
    return [
        (key, title, defect, "ERROR", 0.0, 1.0, evidence)
        for key, title, defect in rows
    ]


def check_dicts(rows):
    return [
        {
            "scenario": key,
            "defect": defect,
            "outcome": outcome,
            "points": points,
            "max_points": max_points,
            "evidence": evidence,
        }
        for key, _, defect, outcome, points, max_points, evidence in rows
    ]


def client_rows(browser, ja3, error):
    """The own-stack hello's mimicry row, then the errored substitute rows."""
    mimicry = CLIENT_ROWS[0] + (
        "DIVERGENT",
        0.0,
        1.0,
        OWN_STACK_MIMICRY.format(browser=browser, ja3=ja3),
    )
    return [mimicry] + error_rows(CLIENT_ROWS[1:], f"client-leg probe failed: {error}")


def client_leg(browser, ja3, error):
    return {
        "browser": browser,
        "expected_ja3": ja3,
        "observed_ja3": OWN_STACK_JA3,
        "divergent_fields": OWN_STACK_DIVERGENCE,
        "substitute_key_bits": None,
        "substitute_hash": None,
        "offered_version": [3, 3],
        "echoed_version": None,
        "error": error,
        "checks": check_dicts(client_rows(browser, ja3, error)),
    }


def errored_server_leg(browser, ja3s, cipher, extensions, error, rows):
    return {
        "browser": browser,
        "expected_ja3s": ja3s,
        "observed_ja3s": None,
        "divergent_fields": [],
        "chosen_cipher": None,
        "cipher_rank": None,
        "expected_cipher": cipher,
        "extension_types": [],
        "expected_extension_types": extensions,
        "offered_version": [3, 3],
        "echoed_version": None,
        "compression_method": None,
        "session_id_length": None,
        "error": error,
        "checks": check_dicts(error_rows(rows, f"server-leg probe failed: {error}")),
    }


# The resume probe never runs: no ServerHello was captured.
UNCAPTURED_MODERN = {
    "expected_alpn": "h2",
    "served_alpn": None,
    "offered_max_version": [3, 4],
    "negotiated_version": None,
    "downgrade_sentinel": False,
    "session_id_issued": False,
    "resumption_honoured": None,
    "resumption_error": "no ServerHello captured",
}


def assert_exports(card, expected):
    """``to_dict()`` equals ``expected``, key order included."""
    exported = card.to_dict()
    assert exported == expected
    assert json.dumps(exported) == json.dumps(expected)


def head(score, max_score, grade):
    return {
        "product": "errored-leg-product",
        "category": "Business Firewall",
        "grade": grade,
        "score": score,
        "max_score": max_score,
        "functional": True,
        "checks": [],
    }


class TestRefusedProbe:
    def test_2014_browser_errs_both_legs(self, chrome):
        card = mimicry_card(chrome, profile(**REFUSING))
        client = client_rows("chrome", CHROME_JA3, ALERT)
        server = error_rows(SERVER_ROWS, f"server-leg probe failed: {ALERT}")
        assert [astuple(check) for check in card.client_checks] == client
        assert [astuple(check) for check in card.server_checks] == server
        expected = {
            **head(0.0, 8.0, "F"),
            "client_leg": client_leg("chrome", CHROME_JA3, ALERT),
            "server_leg": errored_server_leg(
                "chrome", CHROME_JA3S, 0xC02F, CHROME_EXTENSIONS, ALERT, SERVER_ROWS
            ),
        }
        assert_exports(card, expected)
        assert rendered_rows(card) == (
            errored_client_row("chrome"),
            errored_server_row("chrome", 5),
        )

    def test_tls13_browser_errs_all_eight_server_rows(self, chrome_2020):
        card = mimicry_card(chrome_2020, profile(**REFUSING))
        rows = SERVER_ROWS + MODERN_ROWS
        server = error_rows(rows, f"server-leg probe failed: {ALERT}")
        client = client_rows("chrome-2020", CHROME_2020_JA3, ALERT)
        assert [astuple(check) for check in card.client_checks] == client
        assert [astuple(check) for check in card.server_checks] == server
        expected = {
            **head(0.0, 11.0, "F"),
            "client_leg": client_leg("chrome-2020", CHROME_2020_JA3, ALERT),
            "server_leg": {
                **errored_server_leg(
                    "chrome-2020",
                    CHROME_2020_JA3S,
                    0x1301,
                    CHROME_2020_EXTENSIONS,
                    ALERT,
                    rows,
                ),
                "modern": UNCAPTURED_MODERN,
            },
        }
        assert_exports(card, expected)
        assert rendered_rows(card) == (
            errored_client_row("chrome-2020"),
            errored_server_row("chrome-2020", 8),
        )


class TestIncompleteFlight:
    def test_empty_chain_errs_the_client_leg_only(self, chrome, empty_chain):
        card = mimicry_card(chrome, profile())
        client = client_rows("chrome", CHROME_JA3, MISSING)
        # The captured ServerHello is still graded.
        server = [
            (
                "server-cipher",
                "Substitute cipher choice",
                "cipher-divergence",
                "DIVERGENT",
                0.5,
                1.0,
                "substitute leg chose 0x002f (rank 12 of the chrome offer); "
                "a genuine origin answers 0xc02f",
            ),
            (
                "server-extensions",
                "Server extension set",
                "extension-divergence",
                "DIVERGENT",
                0.0,
                1.0,
                "served extension set diverges from the expected origin answer "
                "(missing [65281, 35, 5, 16, 11], extra none)",
            ),
            (
                "version-echo",
                "Version echo",
                "protocol-downgrade",
                "OK",
                1.0,
                1.0,
                "substitute leg echoes the offered version TLSv1.2",
            ),
            (
                "server-compression",
                "Server compression",
                "server-compression",
                "OK",
                1.0,
                1.0,
                "substitute leg negotiates null compression",
            ),
            (
                "server-session",
                "Session-id policy",
                "no-resumption",
                "WEAK",
                0.5,
                1.0,
                "substitute leg never offers session resumption (empty session id)",
            ),
        ]
        assert [astuple(check) for check in card.client_checks] == client
        assert [astuple(check) for check in card.server_checks] == server
        expected = {
            **head(3.0, 8.0, "D"),
            "client_leg": client_leg("chrome", CHROME_JA3, MISSING),
            "server_leg": {
                "browser": "chrome",
                "expected_ja3s": CHROME_JA3S,
                "observed_ja3s": "5397c414a9ebeaff1bf18b70ca22eaa0",
                "divergent_fields": ["cipher_suite", "extension_types"],
                "chosen_cipher": 0x002F,
                "cipher_rank": 11,
                "expected_cipher": 0xC02F,
                "extension_types": [],
                "expected_extension_types": CHROME_EXTENSIONS,
                "offered_version": [3, 3],
                "echoed_version": [3, 3],
                "compression_method": 0,
                "session_id_length": 0,
                "error": "",
                "checks": check_dicts(server),
            },
        }
        assert_exports(card, expected)
        served = [
            "errored-leg-product",
            "chrome",
            "diverges: cipher_suite, extension_types",
            "0x002f",
            "echoed",
            "null",
            "none",
            "3.0/5",
        ]
        assert rendered_rows(card) == (errored_client_row("chrome"), served)

    def test_missing_server_hello_errs_both_legs(self, chrome, certificate_only):
        card = mimicry_card(chrome, profile())
        client = client_rows("chrome", CHROME_JA3, MISSING)
        server = error_rows(SERVER_ROWS, f"server-leg probe failed: {MISSING}")
        assert [astuple(check) for check in card.client_checks] == client
        assert [astuple(check) for check in card.server_checks] == server
        expected = {
            **head(0.0, 8.0, "F"),
            "client_leg": client_leg("chrome", CHROME_JA3, MISSING),
            "server_leg": errored_server_leg(
                "chrome", CHROME_JA3S, 0xC02F, CHROME_EXTENSIONS, MISSING, SERVER_ROWS
            ),
        }
        assert_exports(card, expected)
        assert rendered_rows(card) == (
            errored_client_row("chrome"),
            errored_server_row("chrome", 5),
        )


class TestEmptyCertificateList:
    """A handshake whose Certificate message lists no certificate is an
    ok probe with no leaf: each scenario it reaches grades ERROR."""

    def test_scenario_grades_error(self, chrome, empty_chain):
        observation = chrome.run_scenario(profile(), SCENARIOS[0])
        assert astuple(observation) == ("baseline", "ERROR", EMPTY)

    def test_audit_product_grades_every_unblocked_scenario_error(
        self, chrome, empty_chain
    ):
        card = chrome.audit_product(profile())
        refused = "connection refused with a fatal alert (alert: level=2 desc=42)"
        blocked = ("expired-leaf", "self-signed", "wrong-hostname", "untrusted-ca")
        expected = [
            (key, "BLOCK", refused) if key in blocked else (key, "ERROR", EMPTY)
            for key in [scenario.key for scenario in SCENARIOS[1:]]
        ]
        assert [(c.scenario, c.outcome, c.evidence) for c in card.checks] == expected
        assert not card.functional
        assert (card.score, card.max_score, card.grade) == (7.0, 17.0, "D")


class TestMimicryCounters:
    """``mimicry_catalog`` counts a leg with no hello to compare as
    ``error``, as the prevalence study counts its product detectable
    for reason ``error``; a captured hello keeps its own label."""

    def survey(self):
        registry = MetricsRegistry()
        survey = mimicry_catalog(
            seed=7, products=["bitdefender"], pki_key_bits=512, registry=registry
        )
        (entry,) = survey.entries
        counters = registry.deterministic_snapshot()["counters"]
        legs = {
            key: value
            for key, value in counters.items()
            if key.startswith(("mimicry.client_leg", "mimicry.server_leg"))
        }
        return entry, legs

    def test_missing_server_hello_counts_the_server_leg_error(self, certificate_only):
        entry, legs = self.survey()
        assert entry.server_leg.error == MISSING
        assert entry.client_leg.observed_ja3 == CHROME_JA3
        assert entry.detection_reasons == ("error",)
        assert legs == {
            "mimicry.client_leg{leg=mimicked}": 1,
            "mimicry.server_leg{leg=error}": 1,
        }

    def test_no_upstream_hello_counts_both_legs_error(self, no_upstream):
        entry, legs = self.survey()
        assert entry.client_leg.observed_ja3 is None
        assert entry.server_leg.error
        assert entry.detection_reasons == ("error",)
        assert legs == {
            "mimicry.client_leg{leg=error}": 1,
            "mimicry.server_leg{leg=error}": 1,
        }
