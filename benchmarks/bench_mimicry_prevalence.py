"""N4 — mimicry-prevalence study throughput and result.

Times the server-leg mimicry survey over the entire product catalog
(the probe-only workload behind ``repro mimicry-prevalence``) and
emits the per-country detectable-from-client-side table for both
studies, alongside wall time and products-per-second so regressions
in the survey path show up next to regressions in the verdicts.
"""

import json
import time

from conftest import BENCH_SEED, emit

from repro.analysis.mimicry import mimicry_prevalence
from repro.audit import mimicry_catalog
from repro.obs.metrics import MetricsRegistry
from repro.reporting import render_mimicry_prevalence_table


def run_survey():
    obs = MetricsRegistry()
    start = time.perf_counter()
    survey = mimicry_catalog(seed=BENCH_SEED, workers=1, registry=obs)
    return survey, time.perf_counter() - start, obs


def test_mimicry_prevalence(benchmark, output_dir):
    survey, wall_time, obs = benchmark.pedantic(run_survey, rounds=1, iterations=1)

    products = len(survey.entries)
    detectable = [entry for entry in survey.entries if entry.detectable]
    prevalence = {
        study: mimicry_prevalence(survey, study=study) for study in (1, 2)
    }
    tables = "\n\n".join(
        f"== Study {study}: detectable-from-client-side rate by country ==\n"
        + render_mimicry_prevalence_table(result)
        for study, result in prevalence.items()
    )
    emit(output_dir, "mimicry_prevalence", tables)

    timing = {
        "seed": BENCH_SEED,
        "products_probed": products,
        "detectable_products": len(detectable),
        "survey_wall_time_s": round(wall_time, 3),
        "products_per_second": round(products / wall_time, 3),
        "detectable_share": {
            study: round(result.total.detectable_share, 4)
            for study, result in prevalence.items()
        },
        "phase_profile": obs.timing_profile(),
        "survey_counters": obs.snapshot()["deterministic"]["counters"],
    }
    payload = json.dumps(timing, indent=2)
    (output_dir / "BENCH_mimicry_prevalence.json").write_text(
        payload + "\n", encoding="utf-8"
    )
    print(f"\nBENCH_mimicry_prevalence.json\n{payload}")

    assert products >= 40  # the whole catalog, not a subset
    assert timing["products_per_second"] > 0
    assert timing["phase_profile"]["audit.mimicry"]["count"] == products
    # The server-leg mimic stays hidden; the bare stacks do not.
    by_key = survey.by_key()
    assert not by_key["bitdefender"].detectable
    assert by_key["kurupira"].detectable
    # Most of the catalog speaks a bare substitute stack: the overall
    # detectable share must be substantial in both studies.
    for study, result in prevalence.items():
        assert result.total.detectable_share > 0.5, (study, result.total)
