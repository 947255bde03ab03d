"""The mimicry-prevalence study: weighting, ranking, export."""

import json

import pytest

from repro.analysis.mimicry import mimicry_prevalence
from repro.audit.scorecard import (
    ClientLegObservation,
    MimicryEntry,
    MimicrySurvey,
    ServerLegObservation,
)
from repro.data.products import catalog, catalog_by_key


def _client_leg() -> ClientLegObservation:
    return ClientLegObservation(
        browser="chrome",
        expected_ja3="aa" * 16,
        observed_ja3="aa" * 16,
        divergent_fields=(),
        substitute_key_bits=2048,
        substitute_hash="sha256",
        offered_version=(3, 3),
        echoed_version=(3, 3),
    )


def _server_leg(
    divergent: tuple[str, ...] = (), compression: int = 0, error: str = ""
) -> ServerLegObservation:
    return ServerLegObservation(
        browser="chrome",
        expected_ja3s="bb" * 16,
        observed_ja3s=None if error else "cc" * 16,
        divergent_fields=divergent,
        chosen_cipher=None if error else 0xC02F,
        cipher_rank=None if error else 1,
        expected_cipher=0xC02F,
        extension_types=(),
        expected_extension_types=(),
        offered_version=(3, 3),
        echoed_version=None if error else (3, 3),
        compression_method=None if error else compression,
        session_id_length=None if error else 0,
        error=error,
    )


def _entry(product_key: str, **server_kwargs) -> MimicryEntry:
    spec = catalog_by_key()[product_key]
    return MimicryEntry(
        product_key=product_key,
        category=spec.profile.category.value,
        client_leg=_client_leg(),
        server_leg=_server_leg(**server_kwargs),
    )


def _survey(entries) -> MimicrySurvey:
    return MimicrySurvey(seed=5, browser="chrome", entries=tuple(entries))


class TestDetectability:
    def test_divergence_and_compression_are_reasons(self):
        assert not _entry("bitdefender").detectable
        diverging = _entry("bitdefender", divergent=("cipher_suite",))
        assert diverging.detectable
        assert diverging.detection_reasons == ("cipher_suite",)
        compressed = _entry("bitdefender", compression=1)
        assert compressed.detection_reasons == ("compression",)

    def test_probe_error_counts_as_detectable(self):
        broken = _entry("bitdefender", error="alert: desc=40")
        assert broken.detectable
        assert broken.detection_reasons == ("error",)


class TestPrevalence:
    def test_all_detectable_saturates_every_row(self):
        survey = _survey(
            [_entry(k, divergent=("version",)) for k in ("bitdefender", "kurupira")]
        )
        prevalence = mimicry_prevalence(survey, study=1)
        assert all(row.detectable_share == 1.0 for row in prevalence.all_rows())
        assert prevalence.total.detectable == prevalence.total.proxied

    def test_none_detectable_zeroes_every_row(self):
        survey = _survey([_entry("bitdefender"), _entry("kurupira")])
        prevalence = mimicry_prevalence(survey, study=1)
        assert all(row.detectable_share == 0.0 for row in prevalence.all_rows())

    def test_market_share_weighting_follows_country_bias(self):
        """kurupira (detectable) is BR-biased, so Brazil's rate must
        exceed the US rate when bitdefender (hidden) dominates."""
        survey = _survey(
            [_entry("bitdefender"), _entry("kurupira", divergent=("cipher_suite",))]
        )
        prevalence = mimicry_prevalence(survey, study=1)
        rows = {row.country: row for row in prevalence.rows}
        assert 0.0 < rows["US"].detectable_share < rows["BR"].detectable_share < 1.0
        # The exact weighting: detectable weight over total weight.
        specs = catalog_by_key()
        for code in ("US", "BR"):
            kur = specs["kurupira"].weight_in(1, code)
            bit = specs["bitdefender"].weight_in(1, code)
            assert rows[code].detectable_share == pytest.approx(kur / (kur + bit))

    def test_rows_ranked_by_proxied_with_other_and_total(self):
        survey = _survey([_entry("bitdefender")])
        prevalence = mimicry_prevalence(survey, study=1, top_n=5)
        assert [row.rank for row in prevalence.rows] == [1, 2, 3, 4, 5]
        proxied = [row.proxied for row in prevalence.rows]
        assert proxied == sorted(proxied, reverse=True)
        assert prevalence.other.country.startswith("Other (")
        assert prevalence.total.country == "Total"
        assert prevalence.total.proxied == sum(proxied) + prevalence.other.proxied

    def test_study_2_uses_its_own_calibration(self):
        survey = _survey([_entry("kowsar", divergent=("extension_types",))])
        prevalence = mimicry_prevalence(survey, study=2)
        assert prevalence.study == 2
        assert prevalence.total.proxied > 40_000  # Table 7 volumes

    def test_invalid_study_rejected(self):
        with pytest.raises(ValueError):
            mimicry_prevalence(_survey([_entry("bitdefender")]), study=3)

    def test_to_dict_is_json_stable(self):
        survey = _survey(
            [_entry("bitdefender"), _entry("kurupira", divergent=("version",))]
        )
        first = mimicry_prevalence(survey, study=1)
        second = mimicry_prevalence(survey, study=1)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        payload = first.to_dict()
        assert payload["browser"] == "chrome"
        assert {p["product"] for p in payload["products"]} == {
            "bitdefender",
            "kurupira",
        }
        assert payload["total"]["proxied"] == first.total.proxied

    def test_products_export_in_catalog_order(self):
        """A survey of products named out of catalog order (``--product``
        keeps the given order) still exports them in catalog order."""
        named = ["md5-legacy", "kurupira", "bitdefender"]
        survey = _survey([_entry(key) for key in named])
        payload = mimicry_prevalence(survey, study=1).to_dict()
        in_catalog = [spec.key for spec in catalog() if spec.key in named]
        assert in_catalog != named
        assert [p["product"] for p in payload["products"]] == in_catalog
