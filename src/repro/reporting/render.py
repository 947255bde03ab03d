"""ASCII rendering of the evaluation artifacts.

Benches print these next to the paper's numbers; the formats follow
the paper's table layouts so the two are visually comparable.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.analysis.mimicry import MimicryPrevalence
from repro.analysis.tables import (
    ClassificationRow,
    CountryBreakdown,
    HostTypeRow,
    IssuerRow,
)
from repro.audit.scorecard import (
    ClientLegObservation,
    ProductScorecard,
    ServerLegObservation,
)
from repro.tls.codec import version_name


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a padded ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [render_row(headers), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def render_country_table(breakdown: CountryBreakdown) -> str:
    """Tables 3/7 layout: Rank, Country, Proxied, Total, Percent."""
    rows = []
    for row in breakdown.rows:
        rows.append(
            [
                str(row.rank),
                row.country,
                f"{row.proxied:,}",
                f"{row.total:,}",
                f"{row.percent:.2f}%",
            ]
        )
    for row in (breakdown.other, breakdown.total):
        rows.append(
            ["", row.country, f"{row.proxied:,}", f"{row.total:,}", f"{row.percent:.2f}%"]
        )
    return render_table(["Rank", "Country", "Proxied", "Total", "Percent"], rows)


def render_issuer_table(rows: list[IssuerRow], other: IssuerRow) -> str:
    """Table 4 layout: Rank, Issuer Organization, Connections."""
    body = [
        [str(row.rank), row.issuer_organization, f"{row.connections:,}"]
        for row in rows
    ]
    body.append(["", other.issuer_organization, f"{other.connections:,}"])
    return render_table(["Rank", "Issuer Organization", "Connections"], body)


def render_classification_table(rows: list[ClassificationRow]) -> str:
    """Tables 5/6 layout: Proxy Type, Connections, Percent."""
    body = [
        [row.category.value, f"{row.connections:,}", f"{row.percent:.2f}%"]
        for row in rows
    ]
    return render_table(["Proxy Type", "Connections", "Percent"], body)


def render_host_type_table(rows: list[HostTypeRow]) -> str:
    """Table 8 layout: Website Type, Connections, Proxied, Percent Proxied."""
    body = [
        [
            row.host_type,
            f"{row.connections:,}",
            f"{row.proxied:,}",
            f"{row.percent_proxied:.2f}%",
        ]
        for row in rows
    ]
    return render_table(
        ["Website Type", "Connections", "Proxied", "Percent Proxied"], body
    )


def _points(score: float, max_score: float) -> str:
    return f"{score:.1f}/{max_score:.0f}"


def _leg_points(score: float, max_score: float) -> str:
    """A leg's points, or ``-`` for a battery that ran without the leg."""
    return _points(score, max_score) if max_score else "-"


# The grade table's columns after Rank: header -> cell of one scorecard.
_GRADE_COLUMNS: dict[str, Callable[[ProductScorecard], str]] = {
    "Product": lambda card: card.product_key,
    "Category": lambda card: card.category,
    "Grade": lambda card: card.grade,
    "Score": lambda card: f"{100.0 * card.fraction:.0f}%",
    "Blocked": lambda card: str(card.blocked),
    "Passed": lambda card: str(card.passed_through),
    "Masked": lambda card: str(card.masked),
    "Errors": lambda card: str(card.errors),
    "ClientLeg": lambda card: _leg_points(card.client_score, card.client_max_score),
    "ServerLeg": lambda card: _leg_points(card.server_score, card.server_max_score),
    "Functional": lambda card: "yes" if card.functional else "NO",
}


def render_audit_grade_table(scorecards: Sequence[ProductScorecard]) -> str:
    """Aggregate audit grades, best first (Waked et al. Table 9 style).

    Ranked by score fraction, highest first, then by product key.
    """
    ranked = sorted(scorecards, key=lambda card: (-card.fraction, card.product_key))
    body = [
        [str(rank), *(cell(card) for cell in _GRADE_COLUMNS.values())]
        for rank, card in enumerate(ranked, 1)
    ]
    return render_table(["Rank", *_GRADE_COLUMNS], body)


def _version_echo_label(
    offered: tuple[int, int], echoed: tuple[int, int] | None
) -> str:
    """``echoed``, or ``downgraded X -> Y`` when the leg served another version."""
    if echoed == offered:
        return "echoed"
    return (
        f"downgraded {version_name(offered)} -> "
        f"{version_name(echoed) if echoed else 'nothing'}"
    )


def _divergence(fields: tuple[str, ...]) -> str:
    """``match``, or the fingerprint dimensions that diverge."""
    return "diverges: " + ", ".join(fields) if fields else "match"


# Each leg table's observation columns: header -> cell of one leg
# observation.  An errored leg prints ``error`` in the first and ``-``
# in the rest.
_CLIENT_LEG_COLUMNS: dict[str, Callable[[ClientLegObservation], str]] = {
    "Mimicry": lambda leg: _divergence(leg.divergent_fields),
    "KeyBits": lambda leg: str(leg.substitute_key_bits or "-"),
    "Hash": lambda leg: leg.substitute_hash or "unknown",
    "VersionEcho": lambda leg: _version_echo_label(
        leg.offered_version, leg.echoed_version
    ),
}
_SERVER_LEG_COLUMNS: dict[str, Callable[[ServerLegObservation], str]] = {
    "ServerHello": lambda leg: _divergence(leg.divergent_fields),
    "Cipher": lambda leg: (
        "-" if leg.chosen_cipher is None else f"{leg.chosen_cipher:#06x}"
    ),
    "VersionEcho": lambda leg: _version_echo_label(
        leg.offered_version, leg.echoed_version
    ),
    "Compression": lambda leg: str(leg.compression_method or "null"),
    # The observation records only the length: a granted id may be
    # freshly minted or echoed, both resumable.
    "Session": lambda leg: "granted" if leg.session_id_length else "none",
}


def _render_leg_table(columns: dict, legs) -> str:
    """The rows of ``legs``: (product key, observation, points, max points) each.

    A product whose battery ran without the leg (no observation) gets
    no row.
    """
    body = []
    for product_key, leg, score, max_score in legs:
        if leg is None:
            continue
        if leg.error:
            cells = ["error", *["-"] * (len(columns) - 1)]
        else:
            cells = [cell(leg) for cell in columns.values()]
        body.append([product_key, leg.browser, *cells, _points(score, max_score)])
    return render_table(["Product", "Browser", *columns, "Points"], body)


def render_client_leg_table(scorecards: Sequence[ProductScorecard]) -> str:
    """Per-product client-leg divergence table (mimicry + substitute)."""
    legs = [
        (card.product_key, card.client_leg, card.client_score, card.client_max_score)
        for card in scorecards
    ]
    return _render_leg_table(_CLIENT_LEG_COLUMNS, legs)


def render_server_leg_table(scorecards: Sequence[ProductScorecard]) -> str:
    """Per-product server-leg divergence table (substitute ServerHello)."""
    legs = [
        (card.product_key, card.server_leg, card.server_score, card.server_max_score)
        for card in scorecards
    ]
    return _render_leg_table(_SERVER_LEG_COLUMNS, legs)


def render_mimicry_prevalence_table(prevalence: MimicryPrevalence) -> str:
    """Per-country detectable-from-client-side rates (the new study)."""
    body = []
    for row in prevalence.rows:
        body.append(
            [
                str(row.rank),
                row.country,
                f"{row.proxied:,}",
                f"{row.detectable:,}",
                f"{row.percent:.1f}%",
            ]
        )
    for row in (prevalence.other, prevalence.total):
        body.append(
            ["", row.country, f"{row.proxied:,}", f"{row.detectable:,}", f"{row.percent:.1f}%"]
        )
    return render_table(
        ["Rank", "Country", "Proxied", "Detectable", "Share"], body
    )


def render_scorecard(card: ProductScorecard) -> str:
    """One product's full scorecard with per-check evidence."""
    header = (
        f"{card.product_key} ({card.category}) — grade {card.grade} "
        f"({card.score:.1f}/{card.max_score:.0f} points"
        f"{'' if card.functional else ', NOT functional on genuine origins'})"
    )
    body = [
        [check.title, check.defect or "-", check.outcome, f"{check.points:.1f}", check.evidence]
        for check in card.all_checks
    ]
    table = render_table(["Check", "Defect", "Outcome", "Points", "Evidence"], body)
    return f"{header}\n{table}"


# Figure 7's palette, coarsened to ASCII: low rate → '.', high → '#'.
_HEAT_CHARS = " .:-=+*#%@"
_HEAT_CEILING = 0.12  # the paper's 12% maximum


def heat_char(rate: float) -> str:
    """Map a proxy rate to a heat character."""
    clamped = max(0.0, min(rate, _HEAT_CEILING))
    index = int(clamped / _HEAT_CEILING * (len(_HEAT_CHARS) - 1))
    return _HEAT_CHARS[index]


def render_heatmap(series: dict[str, float], columns: int = 6) -> str:
    """Figure 7 as an ASCII country grid, hottest first.

    The paper paints a world map; the data series is the same —
    country → proxy rate on a 0–12% scale.
    """
    ordered = sorted(series.items(), key=lambda item: -item[1])
    cells = [
        f"{country:>3} {heat_char(rate)} {rate * 100:5.2f}%"
        for country, rate in ordered
    ]
    lines = []
    for start in range(0, len(cells), columns):
        lines.append("   ".join(cells[start : start + columns]))
    legend = (
        f"scale: '{_HEAT_CHARS[1]}' ~0% ... '{_HEAT_CHARS[-1]}' >= "
        f"{_HEAT_CEILING * 100:.0f}% proxied"
    )
    return "\n".join([*lines, legend])


def render_metrics_table(snapshot: dict, max_counter_rows: int = 30) -> str:
    """The run's phase profile plus its headline deterministic counters.

    ``snapshot`` is a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    dict (or the JSON written by ``--metrics-out``).  Span paths are
    slash-nested, so indenting by depth renders the profile as a tree;
    timings are wall-clock and never part of any determinism contract.
    """
    sections = []
    spans = snapshot.get("timing", {}).get("spans", {})
    if spans:
        body = []
        for path in sorted(spans):
            stats = spans[path]
            depth = path.count("/")
            label = "  " * depth + path.rsplit("/", 1)[-1]
            mean_ms = 1000 * stats["total_s"] / max(stats["count"], 1)
            body.append(
                [
                    label,
                    f"{stats['count']:,}",
                    f"{stats['total_s']:.3f}",
                    f"{mean_ms:.2f}",
                    f"{1000 * stats['min_s']:.2f}",
                    f"{1000 * stats['max_s']:.2f}",
                ]
            )
        sections.append(
            "== Phase profile (wall clock) ==\n"
            + render_table(
                ["Span", "Count", "Total s", "Mean ms", "Min ms", "Max ms"], body
            )
        )
    counters = snapshot.get("deterministic", {}).get("counters", {})
    if counters:
        rows = [
            [key, f"{value:,}"] for key, value in sorted(counters.items())
        ]
        shown = rows[:max_counter_rows]
        table = render_table(["Deterministic counter", "Value"], shown)
        if len(rows) > len(shown):
            table += f"\n... ({len(rows) - len(shown)} more series)"
        sections.append("== Deterministic counters ==\n" + table)
    process = snapshot.get("process", {}).get("counters", {})
    if process:
        body = [[key, f"{value:,}"] for key, value in sorted(process.items())]
        sections.append(
            "== Process-local counters (scheduling-dependent) ==\n"
            + render_table(["Counter", "Value"], body)
        )
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
