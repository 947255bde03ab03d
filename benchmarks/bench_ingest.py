"""Paper-scale streaming ingest benchmark (the 10M-report run).

The paper's reporting server absorbed ~10.1M reports over two weeks;
this bench pushes the same volume through the spill-to-disk store in
one sitting and proves the on-disk path is lossless:

* **main ingest** — ``REPRO_BENCH_INGEST_REPORTS`` synthetic reports
  (default 10M; countries/sites drawn from the study-2 calibration
  tables, ~0.5% certificate mismatches, sprinkled failure rows)
  appended one report at a time through :class:`ReportStore`, with
  reports/sec, batch and segment counters recorded;
* **lossless check** — the store's live :class:`ReportTally`, a cold
  ``scan_store`` of the segments, and an in-memory
  :class:`ReportDatabase` replay must all land on one byte-identical
  ``aggregate_signature()`` with zero torn segments;
* **spill-threshold sweep** — ingest throughput vs ``segment_bytes``
  (256KiB → 16MiB), ``REPRO_BENCH_INGEST_SWEEP`` reports per setting;
* **study parity** — a store-driven fast study vs the in-memory run,
  same seed, signatures compared;
* **compaction** — rewrite the main store's segments and re-scan.

Report delivery over the simulated network is not timed here: the
ingest unit tests and the chaos matrix's fault-free reference drill
submit reports through the measurement tool and check that every one
arrives.

Results land in ``benchmarks/output/BENCH_ingest.json`` (with the
span-level ``phase_profile``) plus a human-readable text twin.  Run
standalone (``PYTHONPATH=src python benchmarks/bench_ingest.py``) or
through pytest like the other benches.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.data.countries import country_table
from repro.data.sites import study2_probe_sites
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.store import ReportStore, scan_store
from repro.obs.metrics import MetricsRegistry
from repro.study import StudyConfig, StudyRunner

try:  # pytest run (conftest on path) or standalone script
    from conftest import BENCH_SEED, OUTPUT_DIR, emit
except ImportError:  # pragma: no cover - standalone fallback
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from conftest import BENCH_SEED, OUTPUT_DIR, emit


def ingest_reports() -> int:
    return int(os.environ.get("REPRO_BENCH_INGEST_REPORTS", "10000000"))


def sweep_reports() -> int:
    return int(os.environ.get("REPRO_BENCH_INGEST_SWEEP", "1000000"))


BLOCK = 250_000
MISMATCH_RATE = 0.005
SWEEP_SEGMENT_BYTES = (256 << 10, 1 << 20, 4 << 20, 16 << 20)
FAILURES_PER_BLOCK = (("probe_failed", 7), ("report_failed", 2))


# -- synthetic report stream ------------------------------------------


def _leaf_template(site_index: int, hostname: str) -> CertSummary:
    """A fabricated interception certificate for one probed site."""
    issuer = ("WebWatcher", "SuperFish, Inc.", "Sendori, Inc.", "IopFailZeroAccessCreate")[
        site_index % 4
    ]
    return CertSummary(
        subject_cn=hostname,
        subject_org=None,
        issuer_cn=issuer,
        issuer_org=issuer,
        issuer_ou=None,
        serial_number=0x1000 + site_index,
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint=f"{site_index:02x}" * 32,
        public_key_fingerprint=f"{site_index ^ 0xFF:02x}" * 32,
    )


class ReportPlan:
    """Deterministic block-wise generator of the synthetic report mix."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.Generator(np.random.PCG64(seed))
        rows = [row for row in country_table(2) if row.total > 0][:40]
        self.countries = [row.code for row in rows]
        weights = np.array([row.total for row in rows], dtype=np.float64)
        self.weights = weights / weights.sum()
        sites = study2_probe_sites()
        self.hostnames = [site.hostname for site in sites]
        self.host_types = [site.host_type for site in sites]
        self.templates = [
            MeasurementRecord(
                study=2,
                campaign="bench",
                client_ip="0.0.0.0",
                country="??",
                hostname=site.hostname,
                host_type=site.host_type,
                mismatch=True,
                leaf=_leaf_template(index, site.hostname),
                chain=(_leaf_template(index, site.hostname),),
            )
            for index, site in enumerate(sites)
        ]
        self._ip_counter = 0

    def next_ip(self) -> str:
        self._ip_counter += 1
        k = self._ip_counter
        return f"203.{(k >> 16) & 255}.{(k >> 8) & 255}.{k & 255}"

    def block(self, size: int):
        """Draw one block: country idx, site idx, mismatch flags."""
        c_idx = self.rng.choice(len(self.countries), size=size, p=self.weights)
        s_idx = self.rng.integers(0, len(self.hostnames), size=size)
        mism = self.rng.random(size) < MISMATCH_RATE
        return c_idx.tolist(), s_idx.tolist(), mism.tolist()


def _drive(store: ReportStore, plan: ReportPlan, total: int, keep=None):
    """Push ``total`` reports through ``store`` one report at a time.

    Returns per-(country, site) matched totals (numpy-coalesced per
    block, so the verification replay does not pay the Python loop
    twice) and the failure totals.
    """
    from collections import Counter

    matched_totals: Counter = Counter()
    failures: Counter = Counter()
    countries = plan.countries
    hostnames = plan.hostnames
    host_types = plan.host_types
    templates = plan.templates
    replace = dataclasses.replace
    remaining = total
    while remaining > 0:
        size = min(BLOCK, remaining)
        remaining -= size
        c_idx, s_idx, mism = plan.block(size)
        for ci, si, flag in zip(c_idx, s_idx, mism):
            if flag:
                record = replace(
                    templates[si],
                    country=countries[ci],
                    client_ip=plan.next_ip(),
                )
                store.add_mismatch(record)
                if keep is not None:
                    keep.append(record)
            else:
                store.add_matched_bulk(countries[ci], host_types[si], hostnames[si], 1)
                matched_totals[(ci, si)] += 1
        for name, count in FAILURES_PER_BLOCK:
            store.add_failure(name, count)
            failures[name] += count
    return matched_totals, failures


# -- phases -----------------------------------------------------------


def bench_main_ingest(workdir: str, registry: MetricsRegistry) -> dict:
    total = ingest_reports()
    plan = ReportPlan(BENCH_SEED)
    store = ReportStore(os.path.join(workdir, "main"), registry)
    mismatches: list[MeasurementRecord] = []

    with registry.span("bench.ingest"):
        start = time.perf_counter()
        matched_totals, failures = _drive(store, plan, total, keep=mismatches)
        store.flush()
        ingest_s = time.perf_counter() - start
    store.close()

    # Replay the same stream into the plain in-memory database — the
    # reference the store-driven path must reproduce byte for byte.
    with registry.span("bench.verify"):
        db = ReportDatabase()
        for record in mismatches:
            db.add_mismatch(record)
        for (ci, si), count in matched_totals.items():
            db.add_matched_bulk(
                plan.countries[ci], plan.host_types[si], plan.hostnames[si], count
            )
        for name, count in failures.items():
            setattr(db.failures, name, count)

    with registry.span("bench.scan"):
        scan_registry = MetricsRegistry()
        start = time.perf_counter()
        scanned = scan_store(store.path, scan_registry)
        scan_s = time.perf_counter() - start
    torn = scan_registry.deterministic_snapshot()["counters"].get(
        "reports.rejected{reason=torn-segment}", 0
    )

    live_sig = store.aggregator.aggregate_signature()
    scan_sig = scanned.aggregate_signature()
    memory_sig = db.aggregate_signature()
    counters = registry.deterministic_snapshot()["counters"]
    assert live_sig == scan_sig == memory_sig, "on-disk path diverged from memory"
    assert torn == 0, "clean shutdown must leave zero torn segments"
    assert scanned.total_measurements == total

    return {
        "reports": total,
        "elapsed_s": round(ingest_s, 3),
        "reports_per_sec": round(total / ingest_s, 1),
        "mismatches": scanned.mismatch_count,
        "distinct_proxied_ips": scanned.distinct_proxied_ips(),
        "failure_rows": sum(failures.values()),
        "batches": counters["reports.batches"],
        "segments_written": counters["store.segments_written"],
        "bytes_written": counters["store.bytes_written"],
        "scan_elapsed_s": round(scan_s, 3),
        "torn_segments": torn,
        "aggregate_signature": live_sig,
        "signatures_equal": True,
    }


def bench_sweep(workdir: str) -> list[dict]:
    """Ingest throughput vs the segment rotation threshold."""
    total = sweep_reports()
    rows = []
    for segment_bytes in SWEEP_SEGMENT_BYTES:
        registry = MetricsRegistry()
        plan = ReportPlan(BENCH_SEED + 1)
        path = os.path.join(workdir, f"sweep-{segment_bytes}")
        store = ReportStore(path, registry, segment_bytes=segment_bytes)
        start = time.perf_counter()
        _drive(store, plan, total)
        store.close()
        elapsed = time.perf_counter() - start
        counters = registry.deterministic_snapshot()["counters"]
        rows.append(
            {
                "segment_bytes": segment_bytes,
                "reports": total,
                "reports_per_sec": round(total / elapsed, 1),
                "segments_written": counters["store.segments_written"],
                "bytes_written": counters["store.bytes_written"],
            }
        )
        shutil.rmtree(path)
    # Same stream, different geometry: every sweep setting must agree
    # on the bytes that matter (the rows), only the file count moves.
    assert len({row["bytes_written"] for row in rows}) == 1
    return rows


def bench_study_parity(workdir: str) -> dict:
    """A store-driven fast study must equal the in-memory run."""
    seed, scale = 7, 0.002
    start = time.perf_counter()
    memory = StudyRunner(
        StudyConfig(study=2, seed=seed, scale=scale, mode="fast")
    ).run()
    memory_s = time.perf_counter() - start
    store_dir = os.path.join(workdir, "study")
    start = time.perf_counter()
    StudyRunner(
        StudyConfig(
            study=2, seed=seed, scale=scale, mode="fast", report_store=store_dir
        )
    ).run()
    streamed = scan_store(store_dir)
    store_s = time.perf_counter() - start
    assert streamed.aggregate_signature() == memory.database.aggregate_signature()
    return {
        "seed": seed,
        "scale": scale,
        "measurements": streamed.total_measurements,
        "memory_wall_s": round(memory_s, 3),
        "store_wall_s": round(store_s, 3),
        "signatures_equal": True,
    }


def bench_compaction(workdir: str, registry: MetricsRegistry, main_sig: str) -> dict:
    store = ReportStore(os.path.join(workdir, "main"), registry)
    with registry.span("bench.compact"):
        start = time.perf_counter()
        stats = store.compact()
        elapsed = time.perf_counter() - start
    store.close()
    rescanned = scan_store(store.path)
    assert rescanned.aggregate_signature() == main_sig
    return {
        "elapsed_s": round(elapsed, 3),
        "rows_before": stats["rows_before"],
        "rows_after": stats["rows_after"],
        "segments_after": len(store.segments.segment_paths()),
        "signature_stable": True,
    }


# -- harness ----------------------------------------------------------


def run_ingest_bench() -> dict:
    workdir = tempfile.mkdtemp(prefix="bench-ingest-")
    registry = MetricsRegistry()
    try:
        main = bench_main_ingest(workdir, registry)
        compaction = bench_compaction(
            workdir, registry, main["aggregate_signature"]
        )
        sweep = bench_sweep(workdir)
        study = bench_study_parity(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "seed": BENCH_SEED,
        "hardware": {"cpu_count": os.cpu_count()},
        "ingest": main,
        "compaction": compaction,
        "segment_bytes_sweep": sweep,
        "study_parity": study,
        "phase_profile": registry.timing_profile(),
    }


def _render(results: dict) -> str:
    ingest = results["ingest"]
    lines = [
        "Paper-scale streaming ingest (BENCH_ingest)",
        "=" * 46,
        f"reports ingested    {ingest['reports']:>12,}",
        f"wall time           {ingest['elapsed_s']:>12,.1f} s",
        f"throughput          {ingest['reports_per_sec']:>12,.0f} reports/s",
        f"mismatch records    {ingest['mismatches']:>12,}",
        f"batches / segments  {ingest['batches']:>7,} / {ingest['segments_written']:,}",
        f"bytes written       {ingest['bytes_written']:>12,}",
        f"cold scan           {ingest['scan_elapsed_s']:>12,.1f} s",
        f"torn segments       {ingest['torn_segments']:>12}",
        "",
        "segment_bytes sweep:",
    ]
    for row in results["segment_bytes_sweep"]:
        lines.append(
            f"  {row['segment_bytes'] >> 10:>6} KiB  "
            f"{row['reports_per_sec']:>12,.0f} reports/s  "
            f"{row['segments_written']:>5} segments"
        )
    lines += [
        "",
        f"study parity: store-driven run reproduces the in-memory "
        f"signature over {results['study_parity']['measurements']:,} measurements",
        f"compaction: {results['compaction']['rows_before']:,} -> "
        f"{results['compaction']['rows_after']:,} rows, signature stable",
    ]
    return "\n".join(lines)


def _emit_results(output_dir, results: dict) -> None:
    payload = json.dumps(results, indent=2)
    (output_dir / "BENCH_ingest.json").write_text(payload + "\n", encoding="utf-8")
    emit(output_dir, "ingest", _render(results))


def test_ingest(output_dir):
    results = run_ingest_bench()
    _emit_results(output_dir, results)
    assert results["ingest"]["signatures_equal"]
    assert results["ingest"]["torn_segments"] == 0
    assert results["study_parity"]["signatures_equal"]
    assert "bench.ingest" in results["phase_profile"]
    assert any("ingest.flush" in path for path in results["phase_profile"])


if __name__ == "__main__":
    OUTPUT_DIR.mkdir(exist_ok=True)
    ingest_results = run_ingest_bench()
    _emit_results(OUTPUT_DIR, ingest_results)
