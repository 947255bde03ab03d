"""N4 — process-sharding & crypto/DER hot-path scaling benchmark.

Measures the four levers this repo pulls to run "as fast as the
hardware allows":

* **fast-mode study scaling** — wall time and measurement throughput
  of a fast study at ``workers`` ∈ {1, 2, 4} work-stolen sub-shards;
* **key-vault amortisation** — cold (generate + persist) vs warm
  (disk-load) key material, and warm-vault 4-worker vs 1-worker study
  wall time, with RSA generation counts asserted to hit zero;
* **audit battery scaling** — full-catalog adversarial battery wall
  time at ``workers`` ∈ {1, 2, 4} (process pool beyond 1);
* **hot-path micro-optimisations** — the exact per-operation costs
  removed by CRT-constant caching, the DigestInfo prefix cache and
  certificate DER/fingerprint memoisation, measured against faithful
  copies of the pre-optimisation code, plus an end-to-end single
  process legacy-vs-optimised study comparison.

Results land in ``benchmarks/output/BENCH_scaling.json`` (machine
readable) and a human-readable text twin.  Process-pool speedups are
bounded by the cores the host grants — ``hardware.cpu_count`` and a
``hardware.hardware_bound`` flag (with a stderr warning) are recorded
alongside so the numbers can be read in context.

Run standalone (``PYTHONPATH=src python benchmarks/bench_scaling.py``)
or through pytest like the other benches.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager

import numpy as np

from repro.crypto.hashes import hash_by_name
from repro.crypto.keystore import KeyStore
from repro.crypto import rsa
from repro.data import products as product_data
from repro.measure.records import CertSummary, MeasurementRecord
from repro.study import StudyConfig, StudyRunner
from repro.util import stable_hash
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Name

try:  # pytest run (conftest on path) or standalone script
    from conftest import BENCH_SEED, OUTPUT_DIR, bench_scale, emit
except ImportError:  # pragma: no cover - standalone fallback
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from conftest import BENCH_SEED, OUTPUT_DIR, bench_scale, emit

WORKER_COUNTS = (1, 2, 4)


# -- faithful copies of the pre-optimisation hot paths -----------------


def _legacy_crt_power(message: int, key) -> int:
    """The seed's ``_crt_power``: CRT constants recomputed per call."""
    dp = key.d % (key.p - 1)
    dq = key.d % (key.q - 1)
    q_inv = pow(key.q, -1, key.p)
    m1 = pow(message % key.p, dp, key.p)
    m2 = pow(message % key.q, dq, key.q)
    h = (q_inv * (m1 - m2)) % key.p
    return m2 + h * key.q


def _legacy_digest_info(hash_alg, data: bytes) -> bytes:
    """The seed's ``_digest_info``: full DER built per signature."""
    from repro.asn1.types import Null, ObjectIdentifier, OctetString, Sequence

    algorithm = Sequence([ObjectIdentifier(hash_alg.digest_oid), Null()])
    return Sequence([algorithm, OctetString(hash_alg.digest(data))]).encode()


def _legacy_encode(certificate) -> bytes:
    if certificate.raw:
        return certificate.raw
    return certificate.to_asn1().encode()


def _legacy_fingerprint(certificate) -> str:
    return hashlib.sha256(_legacy_encode(certificate)).hexdigest()


@contextmanager
def deoptimised():
    """Swap the memoised/cached hot paths for their seed-era copies."""
    from repro.x509.model import Certificate

    saved = (
        rsa._crt_power,
        rsa._digest_info,
        Certificate.encode,
        Certificate.fingerprint,
    )
    rsa._crt_power = _legacy_crt_power
    rsa._digest_info = _legacy_digest_info
    Certificate.encode = _legacy_encode
    Certificate.fingerprint = _legacy_fingerprint
    try:
        yield
    finally:
        (
            rsa._crt_power,
            rsa._digest_info,
            Certificate.encode,
            Certificate.fingerprint,
        ) = saved


class LegacyFastRunner(StudyRunner):
    """The seed's scalar (pre-sharding, pre-vectorisation) fast mode."""

    def _run_fast(self, result) -> None:
        config = self.config
        population = result.population
        database = result.database
        np_rng = np.random.default_rng(stable_hash(config.seed, "fast"))
        rng = random.Random(stable_hash(config.seed, "fast-records"))

        n_sessions = self.total_sessions()
        plans = population.plans
        weights = np.array([plan.measurement_weight for plan in plans])
        session_counts = np_rng.multinomial(n_sessions, weights / weights.sum())

        site_success = {
            site.hostname: self.site_success_probability(site) for site in self.sites
        }
        for plan, n_country in zip(plans, session_counts):
            if n_country == 0:
                continue
            database.failures.sessions_started += int(n_country)
            result.sessions_run += int(n_country)
            n_proxied = int(np_rng.binomial(n_country, plan.proxy_rate))
            n_clean = int(n_country) - n_proxied
            for site in self.sites:
                count = int(np_rng.binomial(n_clean, site_success[site.hostname]))
                database.add_matched_bulk(
                    plan.code, site.host_type, site.hostname, count
                )
            if n_proxied:
                self._legacy_proxied_sessions(
                    result, plan.code, n_proxied, np_rng, rng, site_success
                )

    def _legacy_proxied_sessions(
        self, result, country, n_proxied, np_rng, rng, site_success
    ) -> None:
        population = result.population
        specs = product_data.catalog()
        shares = np.array(
            [population.expected_product_share(spec.key, country) for spec in specs]
        )
        if shares.sum() == 0:
            return
        product_counts = np_rng.multinomial(n_proxied, shares / shares.sum())
        plan = population.plan(country)
        campaign = self.campaign_for(country)
        for spec, count in zip(specs, product_counts):
            for _ in range(int(count)):
                client_index = rng.randrange(plan.pool_size)
                ip = population.client_ip(country, client_index, spec.key)
                bucket = client_index % product_data.NUM_CLIENT_BUCKETS
                for site in self.sites:
                    if rng.random() >= site_success[site.hostname]:
                        continue
                    self._legacy_record(
                        result, spec, country, campaign, ip, bucket, site
                    )

    def _legacy_record(self, result, spec, country, campaign, ip, bucket, site):
        database = result.database
        profile = spec.profile
        if profile.is_whitelisted(site.hostname):
            database.add_matched_bulk(country, site.host_type, site.hostname, 1)
            return
        upstream_leaf = self.pki.leaf_for(site.hostname)
        forged = self.forger.forge(
            profile,
            upstream_leaf,
            site.hostname,
            site_ip=self.site_ips[site.hostname],
            client_bucket=bucket,
        )
        database.add_mismatch(
            MeasurementRecord(
                study=self.config.study,
                campaign=campaign,
                client_ip=ip,
                country=country,
                hostname=site.hostname,
                host_type=site.host_type,
                mismatch=True,
                leaf=CertSummary.from_certificate(forged.leaf),
                chain=tuple(CertSummary.from_certificate(c) for c in forged.ca_chain),
                via="fast",
                product_key=spec.key,
            )
        )


# -- micro benchmarks ---------------------------------------------------


def _ops_per_second(fn, *, min_ops: int = 20, min_seconds: float = 0.4) -> float:
    ops = 0
    start = time.perf_counter()
    while ops < min_ops or time.perf_counter() - start < min_seconds:
        fn()
        ops += 1
    return ops / (time.perf_counter() - start)


def bench_hotpath() -> dict:
    key = KeyStore(seed=BENCH_SEED).key("bench-scaling", 1024)
    alg = hash_by_name("sha256")
    payload = b"scaling-bench-tbs" * 20

    sign_now = _ops_per_second(lambda: rsa.pkcs1_sign(key, alg, payload))
    with deoptimised():
        sign_before = _ops_per_second(lambda: rsa.pkcs1_sign(key, alg, payload))

    ca = CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(common_name="Scaling Bench CA"),
            key=KeyStore(seed=BENCH_SEED).key("bench-scaling-ca", 512),
        )
    )
    cert = ca.certificate
    fingerprint_now = _ops_per_second(cert.fingerprint, min_ops=1000)
    fingerprint_before = _ops_per_second(
        lambda: _legacy_fingerprint(cert), min_ops=1000
    )

    digest_now = _ops_per_second(
        lambda: rsa._digest_info(alg, payload), min_ops=1000
    )
    digest_before = _ops_per_second(
        lambda: _legacy_digest_info(alg, payload), min_ops=1000
    )

    return {
        "pkcs1_sign_1024_ops_per_s": {
            "optimised": round(sign_now, 1),
            "seed_baseline": round(sign_before, 1),
            "speedup": round(sign_now / sign_before, 3),
        },
        "certificate_fingerprint_ops_per_s": {
            "optimised": round(fingerprint_now, 1),
            "seed_baseline": round(fingerprint_before, 1),
            "speedup": round(fingerprint_now / fingerprint_before, 3),
        },
        "digest_info_ops_per_s": {
            "optimised": round(digest_now, 1),
            "seed_baseline": round(digest_before, 1),
            "speedup": round(digest_now / digest_before, 3),
        },
    }


# -- end-to-end sections ------------------------------------------------


def _timed_run(runner, repeats: int = 1) -> tuple[float, int]:
    """Best-of-``repeats`` wall time (warm passes are short and noisy)."""
    best = float("inf")
    measurements = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner.run()
        best = min(best, time.perf_counter() - start)
        measurements = result.database.total_measurements
    return best, measurements


def _annotate_parallelism(per_workers: dict, measured_parallelism: float) -> None:
    """Fold hardware-normalised scaling metrics into per-worker rows.

    ``speedup_vs_1`` is the raw wall-time ratio; dividing it by the
    *achievable* parallelism — ``min(workers, measured_parallelism)``,
    not the nominal worker count — yields an efficiency that reads the
    same on a quota-bound CI container and a bare-metal box: 1.0 means
    the pool extracted everything the host actually grants.
    """
    base = per_workers["1"]["wall_time_s"]
    for workers in WORKER_COUNTS:
        row = per_workers[str(workers)]
        speedup = base / row["wall_time_s"] if row["wall_time_s"] else 0.0
        achievable = max(1.0, min(workers, measured_parallelism))
        row["speedup_vs_1"] = round(speedup, 3)
        row["hardware_normalised_efficiency"] = round(speedup / achievable, 3)


def bench_study(scale: float, measured_parallelism: float) -> dict:
    per_workers = {}
    warm_runner = None
    phase_profile: dict = {}
    for workers in WORKER_COUNTS:
        config = StudyConfig(
            study=1, seed=BENCH_SEED, scale=scale, mode="fast", workers=workers
        )
        runner = StudyRunner(config)
        start = time.perf_counter()
        result = runner.run()
        wall = time.perf_counter() - start
        if workers == 1:
            warm_runner = runner
            phase_profile = result.metrics.get("timing", {}).get("spans", {})
        per_workers[str(workers)] = {
            "wall_time_s": round(wall, 3),
            "measurements": result.database.total_measurements,
            "throughput_per_s": round(result.database.total_measurements / wall, 1),
            "aggregate_signature": result.database.aggregate_signature(),
        }

    # Single-process legacy baseline: the seed's scalar loop plus the
    # uncached crypto/DER paths, on identical inputs.  Cold runs pay
    # the (shared, untouched-by-this-comparison) RSA key generation;
    # the warm second run of each runner measures the steady-state
    # measurement machinery itself — the regime paper-scale runs live
    # in once the per-product CAs exist.
    legacy_runner = LegacyFastRunner(
        StudyConfig(study=1, seed=BENCH_SEED, scale=scale, mode="fast")
    )
    with deoptimised():
        legacy_cold_wall, legacy_meas = _timed_run(legacy_runner)
        legacy_warm_wall, legacy_warm_meas = _timed_run(legacy_runner, repeats=3)
    warm_wall, warm_meas = _timed_run(warm_runner, repeats=3)

    _annotate_parallelism(per_workers, measured_parallelism)
    optimised = per_workers["1"]
    signatures = {entry["aggregate_signature"] for entry in per_workers.values()}
    steady_optimised = warm_meas / warm_wall
    steady_legacy = legacy_warm_meas / legacy_warm_wall
    return {
        "workers": per_workers,
        "phase_profile": phase_profile,
        "deterministic_across_workers": len(signatures) == 1,
        "single_process_baseline_cold": {
            "wall_time_s": round(legacy_cold_wall, 3),
            "measurements": legacy_meas,
            "throughput_per_s": round(legacy_meas / legacy_cold_wall, 1),
        },
        "single_process_speedup_cold": round(
            optimised["throughput_per_s"] / (legacy_meas / legacy_cold_wall), 3
        ),
        "steady_state": {
            "optimised_throughput_per_s": round(steady_optimised, 1),
            "baseline_throughput_per_s": round(steady_legacy, 1),
            "optimised_wall_time_s": round(warm_wall, 3),
            "baseline_wall_time_s": round(legacy_warm_wall, 3),
        },
        "single_process_speedup": round(steady_optimised / steady_legacy, 3),
    }


def bench_audit(measured_parallelism: float) -> dict:
    from repro.audit import audit_catalog
    from repro.obs import MetricsRegistry

    per_workers = {}
    reports = {}
    phase_profile: dict = {}
    for workers in WORKER_COUNTS:
        obs = MetricsRegistry()
        start = time.perf_counter()
        report = audit_catalog(seed=BENCH_SEED, workers=workers, registry=obs)
        wall = time.perf_counter() - start
        reports[workers] = report
        if workers == 1:
            phase_profile = obs.timing_profile()
        per_workers[str(workers)] = {
            "wall_time_s": round(wall, 3),
            "products_per_second": round(len(report.scorecards) / wall, 3),
        }
    _annotate_parallelism(per_workers, measured_parallelism)
    grades = {w: r.grade_histogram() for w, r in reports.items()}
    return {
        "workers": per_workers,
        "phase_profile": phase_profile,
        "speedup_4_workers_vs_1": round(
            per_workers["1"]["wall_time_s"] / per_workers["4"]["wall_time_s"], 3
        ),
        "deterministic_across_workers": all(
            reports[w].scorecards == reports[1].scorecards for w in WORKER_COUNTS
        ),
        "grades": grades[1],
    }


def bench_vault(scale: float) -> dict:
    """Vault-cold vs vault-warm: keygen amortisation across runs/workers.

    Cold = empty vault, the parent pays every RSA generation exactly
    once (and persists it).  Warm = a second, fresh runner against the
    same vault: every key loads from disk, generation count must be 0.
    """
    tmp = tempfile.mkdtemp(prefix="bench-scaling-vault-")
    try:
        vault_dir = os.path.join(tmp, "vault")

        def runner_for(workers: int) -> StudyRunner:
            return StudyRunner(
                StudyConfig(
                    study=1,
                    seed=BENCH_SEED,
                    scale=scale,
                    mode="fast",
                    workers=workers,
                    vault=vault_dir,
                )
            )

        # Cold keygen: the vault is empty, warm_keys generates it all.
        start = time.perf_counter()
        cold_runner = runner_for(1)
        cold_runner.warm_keys()
        cold_wall = time.perf_counter() - start
        keys_generated_cold = cold_runner.keystore.keys_generated

        # Warm load: a fresh runner against the now-full vault.
        start = time.perf_counter()
        warm_runner = runner_for(1)
        warm_runner.warm_keys()
        warm_wall = time.perf_counter() - start
        keys_generated_warm = warm_runner.keystore.keys_generated

        rows = {}
        for workers, label in ((4, "cold"), (4, "warm"), (1, "warm_w1")):
            if label == "cold":
                shutil.rmtree(vault_dir, ignore_errors=True)
            runner = runner_for(workers)
            start = time.perf_counter()
            result = runner.run()
            wall = time.perf_counter() - start
            rows[label] = {
                "workers": workers,
                "wall_time_s": round(wall, 3),
                "measurements": result.database.total_measurements,
                "aggregate_signature": result.database.aggregate_signature(),
                "parent_keys_generated": result.notes["keys_generated"],
                "worker_keys_generated": result.notes.get("worker_keys_generated"),
            }
        return {
            "warm_keys_cold_s": round(cold_wall, 3),
            "warm_keys_warm_s": round(warm_wall, 4),
            "vault_load_speedup": round(cold_wall / warm_wall, 1),
            "keys_generated_cold": keys_generated_cold,
            "keys_generated_warm": keys_generated_warm,
            "vault_entries": len(warm_runner.keystore.vault),
            "study_runs": rows,
            "deterministic_across_cold_warm_and_workers": len(
                {row["aggregate_signature"] for row in rows.values()}
            )
            == 1,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _burn(_):
    x = 0
    for i in range(5_000_000):
        x += i
    return x


def _measured_parallelism(workers: int = 4) -> float:
    """How many units of fixed CPU work the host really runs at once.

    CPU quotas (containers) often grant less than ``os.cpu_count()``
    suggests; the process-pool speedups below are bounded by this
    number, so it is recorded next to them.
    """
    from concurrent.futures import ProcessPoolExecutor

    start = time.perf_counter()
    _burn(0)
    unit = time.perf_counter() - start
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_burn, range(workers)))
    wall = time.perf_counter() - start
    return workers * unit / wall


def run_scaling(scale: float) -> dict:
    workers = WORKER_COUNTS[-1]
    measured = round(_measured_parallelism(workers), 2)
    # The host grants fewer cores than the pool asks for: process-pool
    # rows then *cannot* beat workers=1 and must be read as bounded by
    # hardware, not by the scheduler or the vault.
    hardware_bound = measured < workers - 0.5
    if hardware_bound:
        print(
            f"warning: measured parallelism {measured} < {workers} workers — "
            "process-pool rows are hardware-bound on this host "
            "(CPU quota/core count), not scheduler-bound",
            file=sys.stderr,
        )
    return {
        "seed": BENCH_SEED,
        "scale": scale,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "schedulable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "measured_parallelism_4_procs": measured,
            "hardware_bound": hardware_bound,
        },
        "hotpath": bench_hotpath(),
        "study_fast_mode": bench_study(scale, measured),
        "key_vault": bench_vault(scale),
        "audit_battery": bench_audit(measured),
    }


def _emit_results(output_dir, results: dict) -> None:
    payload = json.dumps(results, indent=2)
    (output_dir / "BENCH_scaling.json").write_text(payload + "\n", encoding="utf-8")
    emit(output_dir, "scaling", payload)


def test_scaling(output_dir):
    results = run_scaling(bench_scale())
    _emit_results(output_dir, results)

    assert results["study_fast_mode"]["deterministic_across_workers"]
    assert results["audit_battery"]["deterministic_across_workers"]
    # Every per-worker row carries the hardware-normalised metric, and
    # the workers=1 base row is exactly its own baseline.
    for section in ("study_fast_mode", "audit_battery"):
        for row in results[section]["workers"].values():
            assert "speedup_vs_1" in row
            assert "hardware_normalised_efficiency" in row
        assert results[section]["workers"]["1"]["speedup_vs_1"] == 1.0
        assert results[section]["workers"]["1"]["hardware_normalised_efficiency"] == 1.0
    # The embedded phase profiles must cover the phases the runner and
    # harness claim to trace.
    assert "study.run/study.plan" in results["study_fast_mode"]["phase_profile"]
    assert any(
        path.startswith("audit.product")
        for path in results["audit_battery"]["phase_profile"]
    )
    # The memoisation work must be a clear win on any hardware.  (The
    # CRT sign speedup is real but small — recorded, not asserted.)
    assert results["hotpath"]["certificate_fingerprint_ops_per_s"]["speedup"] > 1.0
    assert results["study_fast_mode"]["single_process_speedup"] > 1.5

    # The vault must be invisible to the data and fatal to the keygen
    # bill: warm runs generate zero keys, and vault on/off (plus
    # cold/warm and any worker count) agree on every byte.
    vault = results["key_vault"]
    assert vault["keys_generated_warm"] == 0
    assert vault["study_runs"]["warm"]["parent_keys_generated"] == 0
    assert vault["study_runs"]["warm"]["worker_keys_generated"] == 0
    assert vault["deterministic_across_cold_warm_and_workers"]
    assert (
        vault["study_runs"]["warm"]["aggregate_signature"]
        == results["study_fast_mode"]["workers"]["1"]["aggregate_signature"]
    )
    # On hardware that actually grants the cores, a warm-vault 4-worker
    # run must beat single-process; on a quota-bound host the explicit
    # hardware_bound flag is the accepted explanation instead.
    if not results["hardware"]["hardware_bound"]:
        assert (
            vault["study_runs"]["warm"]["wall_time_s"]
            < results["study_fast_mode"]["workers"]["1"]["wall_time_s"]
        )


if __name__ == "__main__":
    OUTPUT_DIR.mkdir(exist_ok=True)
    scaling_results = run_scaling(bench_scale())
    _emit_results(OUTPUT_DIR, scaling_results)
