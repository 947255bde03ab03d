"""Grading of battery outcomes into per-product scorecards.

The grading follows the Waked et al. style: every adversarial scenario
is one check, each check earns points by how the product reacted, and
the total maps onto an A–F letter grade with per-check evidence.

* ``BLOCK``  — the proxy refused the connection: full marks.
* ``PASS``   — the proxy relayed the attacked chain untouched, leaving
  the browser to warn: half marks (the user still has a chance).
* ``MASK``   — the proxy replaced the attacked chain with its own
  trusted substitute, hiding the attack entirely: zero.
* ``ERROR``  — the battery could not complete the probe: zero, with
  the failure recorded as evidence.

The baseline (genuine origin) scenario is a control, not a check: a
product that fails to intercept a healthy origin is marked
non-functional instead of graded down.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.audit.scenarios import ADVERSARIAL_SCENARIOS, SCENARIOS, scenario_by_key
from repro.tls.codec import TLS_1_3, WEAK_CIPHER_SUITES, version_name

OUTCOME_BLOCK = "BLOCK"
OUTCOME_MASK = "MASK"
OUTCOME_PASS = "PASS"
OUTCOME_INTERCEPT = "INTERCEPT"
OUTCOME_ERROR = "ERROR"

# Client-leg check outcomes (mimicry + substitute handshake).
OUTCOME_OK = "OK"
OUTCOME_DIVERGENT = "DIVERGENT"
OUTCOME_WEAK = "WEAK"
OUTCOME_DOWNGRADED = "DOWNGRADED"

_POINTS = {
    OUTCOME_BLOCK: 1.0,
    OUTCOME_PASS: 0.5,
    OUTCOME_MASK: 0.0,
    OUTCOME_ERROR: 0.0,
}

# Client-leg check keys; "mimicry" is the headline scenario.
MIMICRY_KEY = "mimicry"
SUBSTITUTE_KEY_KEY = "substitute-key"
SUBSTITUTE_HASH_KEY = "substitute-hash"

# Server-leg check keys (the substitute ServerHello itself).  The
# version-echo check lives here: what it grades is the version field
# of the served ServerHello.
SERVER_CIPHER_KEY = "server-cipher"
SERVER_EXTENSIONS_KEY = "server-extensions"
VERSION_ECHO_KEY = "version-echo"
SERVER_COMPRESSION_KEY = "server-compression"
SERVER_SESSION_KEY = "server-session"

# Modern (TLS 1.3 era) server-leg check keys, graded only when the
# probing browser offers TLS 1.3.
ALPN_MISMATCH_KEY = "alpn-mismatch"
RESUMPTION_KEY = "resumption-honouring"
TLS13_DOWNGRADE_KEY = "tls13-downgrade"

# Each leg check declared once, as a scenario is: key -> (title, defect
# code), in the order its leg grades them.  An errored leg gets one
# ERROR row per key of its table.
CLIENT_LEG_CHECKS: dict[str, tuple[str, str]] = {
    MIMICRY_KEY: ("ClientHello mimicry", "fingerprint-divergence"),
    SUBSTITUTE_KEY_KEY: ("Substitute key strength", "weak-key"),
    SUBSTITUTE_HASH_KEY: ("Substitute signature hash", "deprecated-hash"),
}
SERVER_LEG_CHECKS: dict[str, tuple[str, str]] = {
    SERVER_CIPHER_KEY: ("Substitute cipher choice", "cipher-divergence"),
    SERVER_EXTENSIONS_KEY: ("Server extension set", "extension-divergence"),
    VERSION_ECHO_KEY: ("Version echo", "protocol-downgrade"),
    SERVER_COMPRESSION_KEY: ("Server compression", "server-compression"),
    SERVER_SESSION_KEY: ("Session-id policy", "no-resumption"),
}
MODERN_LEG_CHECKS: dict[str, tuple[str, str]] = {
    ALPN_MISMATCH_KEY: ("ALPN answer", "alpn-mismatch"),
    RESUMPTION_KEY: ("Resumption honouring", "broken-resumption"),
    TLS13_DOWNGRADE_KEY: ("TLS 1.3 negotiation", "tls13-downgrade"),
}
LEG_CHECKS = CLIENT_LEG_CHECKS | SERVER_LEG_CHECKS | MODERN_LEG_CHECKS

# Letter-grade floors over the score fraction, best first.
GRADE_FLOORS: tuple[tuple[float, str], ...] = (
    (0.90, "A"),
    (0.70, "B"),
    (0.50, "C"),
    (0.30, "D"),
)


def letter_grade(fraction: float) -> str:
    for floor, letter in GRADE_FLOORS:
        if fraction >= floor:
            return letter
    return "F"


@dataclass(frozen=True)
class ScenarioObservation:
    """What the harness saw one product do under one scenario."""

    scenario: str
    outcome: str
    evidence: str


@dataclass(frozen=True)
class CheckResult:
    """One graded row of a scorecard."""

    scenario: str
    title: str
    defect: str | None
    outcome: str
    points: float
    max_points: float
    evidence: str


@dataclass(frozen=True)
class ClientLegObservation:
    """What the harness saw on one product's *client-facing* leg.

    Collected by probing the product with a browser-profile
    ClientHello against a genuine origin: does the upstream hello the
    proxy emits fingerprint like the browser it fronts, and how does
    the substitute handshake it serves back compare with what the
    browser offered?
    """

    browser: str  # registry key of the probing browser profile
    expected_ja3: str  # the browser hello's fingerprint digest
    observed_ja3: str | None  # the proxy's upstream hello digest
    divergent_fields: tuple[str, ...]  # fingerprint dimensions that differ
    substitute_key_bits: int | None  # public key size of the served leaf
    substitute_hash: str | None  # signature hash of the served leaf
    offered_version: tuple[int, int]  # what the browser hello offered
    echoed_version: tuple[int, int] | None  # what the substitute leg served
    error: str = ""  # non-empty when the probe could not complete


def _leg_check(key: str, outcome: str, points: float, evidence: str) -> CheckResult:
    """A one-point leg row, titled from :data:`LEG_CHECKS`."""
    title, defect = LEG_CHECKS[key]
    return CheckResult(key, title, defect, outcome, points, 1.0, evidence)


def _error_rows(keys, evidence: str) -> tuple[CheckResult, ...]:
    """An errored leg's rows: ERROR, with ``evidence``, for each check key."""
    return tuple(_leg_check(key, OUTCOME_ERROR, 0.0, evidence) for key in keys)


def build_client_checks(
    observation: ClientLegObservation,
) -> tuple[CheckResult, ...]:
    """Grade a client-leg observation into scorecard checks.

    * ``mimicry`` — full marks only when the upstream hello's
      fingerprint matches the probing browser's on every dimension.
    * ``substitute-key`` — 2048-bit substitutes pass, 1024-bit earn
      half (the paper's 61% downgrade finding), anything below fails.
    * ``substitute-hash`` — SHA-2 passes, SHA-1 earns half in the 2014
      frame, MD5 (IopFail's choice) fails.

    The version-echo check moved to the server-leg section
    (:func:`build_server_checks`) alongside the other ServerHello
    parameters it actually grades.

    A probe that failed errs the substitute rows; it errs the mimicry
    row too only when no upstream hello was captured.
    """
    if not observation.divergent_fields:
        mimicry = _leg_check(
            MIMICRY_KEY,
            OUTCOME_OK,
            1.0,
            f"upstream hello fingerprints as the {observation.browser} "
            f"profile ({observation.expected_ja3})",
        )
    else:
        mimicry = _leg_check(
            MIMICRY_KEY,
            OUTCOME_DIVERGENT,
            0.0,
            "upstream hello diverges from the "
            f"{observation.browser} profile on "
            f"{', '.join(observation.divergent_fields)} "
            f"({observation.expected_ja3} != {observation.observed_ja3})",
        )
    if observation.error:
        evidence = f"client-leg probe failed: {observation.error}"
        if observation.observed_ja3 is None:
            return _error_rows(CLIENT_LEG_CHECKS, evidence)
        substitute = (SUBSTITUTE_KEY_KEY, SUBSTITUTE_HASH_KEY)
        return (mimicry, *_error_rows(substitute, evidence))
    bits = observation.substitute_key_bits or 0
    key_points = 1.0 if bits >= 2048 else 0.5 if bits >= 1024 else 0.0
    hash_name = observation.substitute_hash or "unknown"
    hash_points = (
        1.0
        if hash_name in ("sha256", "sha384", "sha512")
        else 0.5
        if hash_name == "sha1"
        else 0.0
    )
    return (
        mimicry,
        _leg_check(
            SUBSTITUTE_KEY_KEY,
            OUTCOME_OK if key_points == 1.0 else OUTCOME_WEAK,
            key_points,
            f"substitute leaf carries a {bits}-bit key",
        ),
        _leg_check(
            SUBSTITUTE_HASH_KEY,
            OUTCOME_OK if hash_points == 1.0 else OUTCOME_WEAK,
            hash_points,
            f"substitute leaf signed with {hash_name}",
        ),
    )


@dataclass(frozen=True)
class ModernLegObservation:
    """The TLS 1.3-era facets of one substitute ServerHello.

    Collected only when the probing browser offers TLS 1.3: the ALPN
    answer vs the browser's expectation, the version actually
    negotiated (supported_versions-aware) with the RFC 8446 downgrade
    sentinel, and whether a session id the product handed out on the
    first probe was honoured when presented back on a second.
    """

    expected_alpn: str | None  # what the browser expects an origin to pick
    served_alpn: str | None  # what the substitute leg answered
    offered_max_version: tuple[int, int]  # the hello's true ceiling
    negotiated_version: tuple[int, int] | None  # supported_versions-aware
    downgrade_sentinel: bool  # DOWNGRD mark in the server random
    session_id_issued: bool  # first probe handed out a session id
    resumption_honoured: bool | None  # second probe echoed it; None = no probe
    resumption_error: str = ""  # non-empty when the resume probe failed


@dataclass(frozen=True)
class ServerLegObservation:
    """What the harness saw in one product's substitute *ServerHello*.

    Collected on the same mimicry probe as the client leg, from the
    hello the proxy served back to the browser: the version it echoed,
    the cipher it substituted for the browser's offer, the extension
    set it carried, its compression byte and its session-id policy —
    graded against the :class:`~repro.tls.fingerprint.BrowserProfile`'s
    *expected* genuine-origin answer.
    """

    browser: str  # registry key of the probing browser profile
    expected_ja3s: str  # digest of the expected origin answer
    observed_ja3s: str | None  # digest of the served substitute hello
    divergent_fields: tuple[str, ...]  # JA3S dimensions that differ
    chosen_cipher: int | None  # suite the substitute leg picked
    cipher_rank: int | None  # 0-based rank in the browser's offer; None = unoffered
    expected_cipher: int  # what a genuine origin answers this browser
    extension_types: tuple[int, ...]  # served extension types, wire order
    expected_extension_types: tuple[int, ...]
    offered_version: tuple[int, int]  # what the browser hello offered
    echoed_version: tuple[int, int] | None  # what the substitute leg served
    compression_method: int | None  # served compression byte
    session_id_length: int | None  # length of the served session id
    error: str = ""  # non-empty when the probe could not complete
    # TLS 1.3-era facets; None when the probing browser is 2014-era,
    # which keeps those scorecards (and their JSON) byte-identical.
    modern: ModernLegObservation | None = None


def build_server_checks(
    observation: ServerLegObservation,
) -> tuple[CheckResult, ...]:
    """Grade a server-leg observation into scorecard checks.

    * ``server-cipher`` — the substituted suite vs the browser's
      offered ordering: the genuine origin's expected answer earns
      full marks, any other *offered* suite half (functional but a
      visible divergence), an un-offered or registry-weak suite fails.
    * ``server-extensions`` — the served extension set vs the
      browser's expected origin answer; same set out of order earns
      half, missing/extra types fail.
    * ``version-echo`` — the substitute leg must serve the version the
      client offered; serving lower is a client-visible downgrade.
    * ``server-compression`` — a nonzero compression byte is a defect
      outright (no sane post-CRIME origin negotiates compression).
    * ``server-session`` — a genuine origin answers a new session with
      a resumable session id; a substitute leg that never offers one
      earns half.
    """
    if observation.error:
        evidence = f"server-leg probe failed: {observation.error}"
        table = SERVER_LEG_CHECKS
        if observation.modern is not None:
            table = table | MODERN_LEG_CHECKS
        return _error_rows(table, evidence)
    # An error-free observation always carries the served hello's
    # fields (the harness grades a captured hello or takes the error
    # branch above — there is no in-between).
    chosen = observation.chosen_cipher
    assert chosen is not None
    if chosen in WEAK_CIPHER_SUITES:
        cipher = _leg_check(
            SERVER_CIPHER_KEY,
            OUTCOME_WEAK,
            0.0,
            f"substitute leg chose registry-weak suite {chosen:#06x}",
        )
    elif observation.cipher_rank is None:
        cipher = _leg_check(
            SERVER_CIPHER_KEY,
            OUTCOME_DIVERGENT,
            0.0,
            f"substitute leg chose {chosen:#06x}, a suite the "
            f"{observation.browser} profile never offered — no genuine "
            "origin can answer that",
        )
    elif chosen == observation.expected_cipher:
        cipher = _leg_check(
            SERVER_CIPHER_KEY,
            OUTCOME_OK,
            1.0,
            f"substitute leg answers {chosen:#06x}, exactly what a "
            f"genuine origin picks for the {observation.browser} offer",
        )
    else:
        cipher = _leg_check(
            SERVER_CIPHER_KEY,
            OUTCOME_DIVERGENT,
            0.5,
            f"substitute leg chose {chosen:#06x} (rank "
            f"{observation.cipher_rank + 1} of the {observation.browser} "
            f"offer); a genuine origin answers "
            f"{observation.expected_cipher:#06x}",
        )
    served = observation.extension_types
    expected = observation.expected_extension_types
    if served == expected:
        extensions = _leg_check(
            SERVER_EXTENSIONS_KEY,
            OUTCOME_OK,
            1.0,
            "served extension set matches the expected origin answer "
            f"({'-'.join(str(t) for t in expected) or 'none'})",
        )
    elif set(served) == set(expected):
        extensions = _leg_check(
            SERVER_EXTENSIONS_KEY,
            OUTCOME_DIVERGENT,
            0.5,
            "served extensions match the expected set but not its "
            "order — a fingerprintable stack quirk",
        )
    else:
        missing = [t for t in expected if t not in served]
        extra = [t for t in served if t not in expected]
        extensions = _leg_check(
            SERVER_EXTENSIONS_KEY,
            OUTCOME_DIVERGENT,
            0.0,
            "served extension set diverges from the expected origin "
            f"answer (missing {missing or 'none'}, extra {extra or 'none'})",
        )
    echoed = observation.echoed_version
    if echoed == observation.offered_version:
        echo = _leg_check(
            VERSION_ECHO_KEY,
            OUTCOME_OK,
            1.0,
            "substitute leg echoes the offered version "
            f"{version_name(echoed)}",
        )
    else:
        echo = _leg_check(
            VERSION_ECHO_KEY,
            OUTCOME_DOWNGRADED,
            0.0,
            f"client offered {version_name(observation.offered_version)}, "
            "substitute leg served "
            f"{version_name(echoed) if echoed else 'nothing'}",
        )
    compression = observation.compression_method or 0
    if compression == 0:
        compressed = _leg_check(
            SERVER_COMPRESSION_KEY,
            OUTCOME_OK,
            1.0,
            "substitute leg negotiates null compression",
        )
    else:
        compressed = _leg_check(
            SERVER_COMPRESSION_KEY,
            OUTCOME_WEAK,
            0.0,
            f"substitute leg negotiates compression method {compression} "
            "— a post-CRIME defect no 2014 origin exhibits",
        )
    if observation.session_id_length:
        session = _leg_check(
            SERVER_SESSION_KEY,
            OUTCOME_OK,
            1.0,
            f"substitute leg grants a {observation.session_id_length}-byte "
            "resumable session id, like a genuine origin",
        )
    else:
        session = _leg_check(
            SERVER_SESSION_KEY,
            OUTCOME_WEAK,
            0.5,
            "substitute leg never offers session resumption "
            "(empty session id)",
        )
    checks = (cipher, extensions, echo, compressed, session)
    if observation.modern is not None:
        checks += _build_modern_checks(observation.modern)
    return checks


def _build_modern_checks(
    modern: ModernLegObservation,
) -> tuple[CheckResult, ...]:
    """Grade the TLS 1.3-era facets of a substitute ServerHello.

    * ``alpn-mismatch`` — the served ALPN answer vs what the browser
      expects a genuine origin to pick; stripping the extension or
      answering an unexpected protocol fails.
    * ``resumption-honouring`` — the probe presents back the session
      id the product issued one connection earlier; full marks only
      when that id is echoed.  Never issuing one, or refusing an id
      the product itself handed out, fails.
    * ``tls13-downgrade`` — the negotiated (supported_versions-aware)
      protocol vs the hello's true ceiling.  Downgrading a 1.3 offer
      to 1.2 earns half *only* when the RFC 8446 sentinel in the
      server random discloses it; a silent downgrade fails outright.
    """
    if modern.served_alpn == modern.expected_alpn:
        alpn = _leg_check(
            ALPN_MISMATCH_KEY,
            OUTCOME_OK,
            1.0,
            f"substitute leg answers ALPN {modern.served_alpn!r}, "
            "exactly what a genuine origin picks for this offer",
        )
    else:
        alpn = _leg_check(
            ALPN_MISMATCH_KEY,
            OUTCOME_DIVERGENT,
            0.0,
            f"substitute leg answers ALPN {modern.served_alpn!r} where "
            f"a genuine origin picks {modern.expected_alpn!r}",
        )
    if modern.resumption_honoured:
        resumption = _leg_check(
            RESUMPTION_KEY,
            OUTCOME_OK,
            1.0,
            "substitute leg echoes the session id it issued one "
            "connection earlier — resumption is honoured",
        )
    elif modern.resumption_honoured is None:
        resumption = _leg_check(
            RESUMPTION_KEY,
            OUTCOME_ERROR,
            0.0,
            "resume probe failed: "
            f"{modern.resumption_error or 'no second probe completed'}",
        )
    elif not modern.session_id_issued:
        resumption = _leg_check(
            RESUMPTION_KEY,
            OUTCOME_WEAK,
            0.0,
            "substitute leg never issues resumable sessions — every "
            "connection pays a full handshake",
        )
    else:
        resumption = _leg_check(
            RESUMPTION_KEY,
            OUTCOME_DIVERGENT,
            0.0,
            "substitute leg hands out session ids it then refuses to "
            "honour — a stack quirk no genuine origin exhibits",
        )
    negotiated = modern.negotiated_version
    if negotiated is not None and negotiated >= TLS_1_3:
        downgrade = _leg_check(
            TLS13_DOWNGRADE_KEY,
            OUTCOME_OK,
            1.0,
            f"substitute leg negotiates {version_name(negotiated)} "
            "for a 1.3-offering client",
        )
    elif modern.downgrade_sentinel:
        downgrade = _leg_check(
            TLS13_DOWNGRADE_KEY,
            OUTCOME_DOWNGRADED,
            0.5,
            f"client offered {version_name(modern.offered_max_version)} "
            "but the substitute leg negotiated "
            f"{version_name(negotiated) if negotiated else 'nothing'} — "
            "disclosed via the RFC 8446 downgrade sentinel",
        )
    else:
        downgrade = _leg_check(
            TLS13_DOWNGRADE_KEY,
            OUTCOME_DOWNGRADED,
            0.0,
            f"client offered {version_name(modern.offered_max_version)} "
            "but the substitute leg silently negotiated "
            f"{version_name(negotiated) if negotiated else 'nothing'} "
            "with no downgrade sentinel",
        )
    return alpn, resumption, downgrade


@dataclass(frozen=True)
class ProductScorecard:
    """A product's full battery result."""

    product_key: str
    category: str
    functional: bool  # intercepted the genuine-origin control
    checks: tuple[CheckResult, ...]
    # Client-leg grading (mimicry + substitute handshake); empty when
    # the battery ran upstream-only.
    client_checks: tuple[CheckResult, ...] = ()
    client_leg: ClientLegObservation | None = None
    # Server-leg grading (the substitute ServerHello); empty when the
    # battery ran upstream-only.
    server_checks: tuple[CheckResult, ...] = ()
    server_leg: ServerLegObservation | None = None

    @property
    def all_checks(self) -> tuple[CheckResult, ...]:
        return self.checks + self.client_checks + self.server_checks

    @property
    def score(self) -> float:
        return sum(check.points for check in self.all_checks)

    @property
    def max_score(self) -> float:
        return sum(check.max_points for check in self.all_checks)

    @property
    def client_score(self) -> float:
        return sum(check.points for check in self.client_checks)

    @property
    def client_max_score(self) -> float:
        return sum(check.max_points for check in self.client_checks)

    @property
    def server_score(self) -> float:
        return sum(check.points for check in self.server_checks)

    @property
    def server_max_score(self) -> float:
        return sum(check.max_points for check in self.server_checks)

    @property
    def fraction(self) -> float:
        return self.score / self.max_score if self.max_score else 0.0

    @property
    def grade(self) -> str:
        return letter_grade(self.fraction)

    def outcome_count(self, outcome: str) -> int:
        return sum(1 for check in self.checks if check.outcome == outcome)

    @property
    def blocked(self) -> int:
        return self.outcome_count(OUTCOME_BLOCK)

    @property
    def masked(self) -> int:
        return self.outcome_count(OUTCOME_MASK)

    @property
    def passed_through(self) -> int:
        return self.outcome_count(OUTCOME_PASS)

    @property
    def errors(self) -> int:
        return self.outcome_count(OUTCOME_ERROR)

    def to_dict(self) -> dict:
        data = {
            "product": self.product_key,
            "category": self.category,
            "grade": self.grade,
            "score": self.score,
            "max_score": self.max_score,
            "functional": self.functional,
            "checks": [_check_dict(check) for check in self.checks],
        }
        if self.client_checks:
            data["client_leg"] = _leg_dict(self.client_leg, self.client_checks)
        if self.server_checks:
            data["server_leg"] = _leg_dict(self.server_leg, self.server_checks)
        return data


def _leg_dict(observation, checks: tuple[CheckResult, ...] = ()) -> dict:
    """One leg observation as exported: its fields, then ``checks``.

    The fields go in declaration order, tuples as lists.  A field that
    defaults to None holds a nested observation (the server leg's
    ``modern`` facets): it goes after ``checks``, and only when set, so
    a 2014-era server leg exports none.
    """
    data: dict = {}
    nested: dict = {}
    for field in fields(observation):
        value = getattr(observation, field.name)
        if field.default is not None:
            data[field.name] = list(value) if isinstance(value, tuple) else value
        elif value is not None:
            nested[field.name] = _leg_dict(value)
    if checks:
        data["checks"] = [_check_dict(check) for check in checks]
    return data | nested


def _check_dict(check: CheckResult) -> dict:
    return {
        "scenario": check.scenario,
        "defect": check.defect,
        "outcome": check.outcome,
        "points": check.points,
        "max_points": check.max_points,
        "evidence": check.evidence,
    }


def build_scorecard(
    product_key: str,
    category: str,
    observations: list[ScenarioObservation],
    client_leg: ClientLegObservation | None = None,
    server_leg: ServerLegObservation | None = None,
) -> ProductScorecard:
    """Grade one product's observations into a scorecard.

    ``client_leg`` folds the mimicry/substitute-handshake checks and
    ``server_leg`` the substitute-ServerHello checks into the same A–F
    grade; omit both for an upstream-only battery.
    """
    scenarios = scenario_by_key()
    functional = True
    checks: list[CheckResult] = []
    for observation in observations:
        scenario = scenarios[observation.scenario]
        if scenario.defect is None:
            functional = observation.outcome == OUTCOME_INTERCEPT
            continue
        points = _POINTS.get(observation.outcome, 0.0)
        checks.append(
            CheckResult(
                scenario=scenario.key,
                title=scenario.title,
                defect=scenario.defect,
                outcome=observation.outcome,
                points=points,
                max_points=1.0,
                evidence=observation.evidence,
            )
        )
    return ProductScorecard(
        product_key=product_key,
        category=category,
        functional=functional,
        checks=tuple(checks),
        client_checks=(
            build_client_checks(client_leg) if client_leg is not None else ()
        ),
        client_leg=client_leg,
        server_checks=(
            build_server_checks(server_leg) if server_leg is not None else ()
        ),
        server_leg=server_leg,
    )


@dataclass(frozen=True)
class AuditReport:
    """The catalog-wide battery result."""

    seed: int
    scorecards: tuple[ProductScorecard, ...]

    def by_key(self) -> dict[str, ProductScorecard]:
        return {card.product_key: card for card in self.scorecards}

    def grade_histogram(self) -> dict[str, int]:
        histogram = {letter: 0 for _, letter in GRADE_FLOORS}
        histogram["F"] = 0
        for card in self.scorecards:
            histogram[card.grade] += 1
        return histogram

    @property
    def scenario_count(self) -> int:
        return len(ADVERSARIAL_SCENARIOS)

    def to_dict(self) -> dict:
        client_keys: list[str] = []
        server_keys: list[str] = []
        for card in self.scorecards:
            if card.client_checks and not client_keys:
                client_keys = [check.scenario for check in card.client_checks]
            if card.server_checks and not server_keys:
                server_keys = [check.scenario for check in card.server_checks]
            if client_keys and server_keys:
                break
        return {
            "seed": self.seed,
            "scenarios": [scenario.key for scenario in SCENARIOS],
            "client_leg_scenarios": client_keys,
            "server_leg_scenarios": server_keys,
            "products": [card.to_dict() for card in self.scorecards],
            "grades": self.grade_histogram(),
        }


@dataclass(frozen=True)
class MimicryProbe:
    """Both legs of one mimicry probe against one product."""

    client_leg: ClientLegObservation
    server_leg: ServerLegObservation


@dataclass(frozen=True)
class MimicryEntry:
    """One product's mimicry probe, as the prevalence study consumes it."""

    product_key: str
    category: str
    client_leg: ClientLegObservation
    server_leg: ServerLegObservation

    @property
    def detection_reasons(self) -> tuple[str, ...]:
        """Why a client-side observer can spot this product.

        The JA3S dimensions the substitute ServerHello diverges on,
        plus ``compression`` for a nonzero compression byte; a probe
        the product broke outright reports ``error`` (the client
        certainly noticed *something*).  Under a 1.3-offering browser,
        ``alpn`` marks an ALPN answer no genuine origin gives and
        ``tls13-downgrade`` a ceiling below the client's offer.
        Session-id and resumption policy are excluded: a
        resumption-less origin is unusual but not impossible.
        """
        server = self.server_leg
        if server.error:
            return ("error",)
        reasons = list(server.divergent_fields)
        if server.compression_method:
            reasons.append("compression")
        modern = server.modern
        if modern is not None:
            if modern.served_alpn != modern.expected_alpn:
                reasons.append("alpn")
            negotiated = modern.negotiated_version
            if negotiated is None or negotiated < TLS_1_3:
                reasons.append("tls13-downgrade")
        return tuple(reasons)

    @property
    def detectable(self) -> bool:
        """Detectable from the substitute ServerHello alone."""
        return bool(self.detection_reasons)


@dataclass(frozen=True)
class MimicrySurvey:
    """The catalog-wide mimicry probe result, in catalog order."""

    seed: int
    browser: str
    entries: tuple[MimicryEntry, ...]

    def by_key(self) -> dict[str, MimicryEntry]:
        return {entry.product_key: entry for entry in self.entries}
