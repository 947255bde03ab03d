"""Wire-concurrency benchmark: sessions/s vs scheduler admission cap.

ISSUE 10's tentpole turned wire mode from one synchronous session at a
time into thousands of generator chains multiplexed on a cooperative
loop over the scheduled-delivery transport.  This bench sweeps the
admission cap (1, then 64 → 4096) over one study-2 wire plan and
records, per level:

* sessions executed and wall-clock sessions/s,
* loop ticks and the high-water mark of client chains in flight (each
  chain runs one session at a time),
* whether ``aggregate_signature()`` and the deterministic metrics
  section match the first level's byte for byte (the refactor's bar —
  concurrency must buy throughput shape, never different bytes).

Scale is controlled by ``REPRO_BENCH_WIRE_SCALE`` (default 0.0008 ≈
2.4k planned sessions across ~1.3k distinct client chains, which is
what makes the ≥1000-concurrently-multiplexed-sessions claim
measurable);
``REPRO_BENCH_WIRE_LEVELS`` overrides the cap sweep (comma-separated).
Results land in ``benchmarks/output/BENCH_wire_concurrency.json`` plus
a human-readable text twin.  Run standalone (``PYTHONPATH=src python
benchmarks/bench_wire_concurrency.py``) or through pytest like the
other benches.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.study import StudyConfig, StudyRunner

try:  # pytest run (conftest on path) or standalone script
    from conftest import BENCH_SEED, OUTPUT_DIR, emit
except ImportError:  # pragma: no cover - standalone fallback
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from conftest import BENCH_SEED, OUTPUT_DIR, emit


def wire_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_WIRE_SCALE", "0.0008"))


def wire_levels() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_WIRE_LEVELS", "1,64,256,1024,4096")
    return [int(part) for part in raw.split(",") if part.strip()]


def _run_level(concurrency: int, scale: float) -> dict:
    config = StudyConfig(
        study=2,
        seed=BENCH_SEED,
        scale=scale,
        mode="wire",
        wire_concurrency=concurrency,
    )
    runner = StudyRunner(config)
    start = time.perf_counter()
    result = runner.run()
    wall_s = time.perf_counter() - start
    process = result.metrics["process"]
    counters = process["counters"]
    gauges = process["gauges"]
    sessions = result.sessions_run
    return {
        "concurrency": concurrency,
        "sessions": sessions,
        "client_chains": len(result.notes["wire_client_hosts"]),
        "wall_s": round(wall_s, 3),
        "sessions_per_s": round(sessions / wall_s, 1) if wall_s else 0.0,
        "loop_ticks": counters.get("loop.ticks", 0),
        "queue_delivered": counters.get("wire.queue_delivered", 0),
        "queue_depth_peak": gauges.get("wire.queue_depth_peak", 0),
        "peak_inflight": gauges.get("wire.chains_peak_active", 0),
        "signature": result.database.aggregate_signature(),
        "deterministic": result.metrics["deterministic"],
    }


def run_wire_concurrency_bench() -> dict:
    scale = wire_scale()
    levels = wire_levels()
    rows = [_run_level(level, scale) for level in levels]
    baseline_signature = rows[0]["signature"]
    baseline_deterministic = rows[0]["deterministic"]
    for row in rows:
        row["signature_identical"] = row["signature"] == baseline_signature
        row["deterministic_identical"] = (
            row["deterministic"] == baseline_deterministic
        )
        # The full metrics section is compared, not shipped: the JSON
        # row keeps the verdict and the (short) signature only.
        del row["deterministic"]
    peak = max(row["peak_inflight"] for row in rows)
    return {
        "study": 2,
        "seed": BENCH_SEED,
        "scale": scale,
        "levels": levels,
        "rows": rows,
        "max_sessions_multiplexed": peak,
        "all_signatures_identical": all(r["signature_identical"] for r in rows),
        "all_deterministic_identical": all(
            r["deterministic_identical"] for r in rows
        ),
    }


def _render(results: dict) -> str:
    lines = [
        "Wire concurrency: scheduled delivery vs serial (BENCH_wire_concurrency)",
        "=" * 71,
        f"study 2, seed {results['seed']}, scale {results['scale']} "
        f"({results['rows'][0]['sessions']} sessions, "
        f"{results['rows'][0]['client_chains']} client chains)",
        "",
        f"{'cap':>6} {'sessions/s':>11} {'wall s':>8} {'ticks':>7} "
        f"{'inflight':>9} {'queue peak':>11} {'signature':>10}",
    ]
    for row in results["rows"]:
        lines.append(
            f"{row['concurrency']:>6} {row['sessions_per_s']:>11,.1f} "
            f"{row['wall_s']:>8.2f} {row['loop_ticks']:>7,} "
            f"{row['peak_inflight']:>9,} {row['queue_depth_peak']:>11,} "
            f"{'identical' if row['signature_identical'] else 'DIVERGED':>10}"
        )
    lines += [
        "",
        f"max sessions multiplexed at once: "
        f"{results['max_sessions_multiplexed']:,}",
        f"deterministic metrics: "
        f"{'identical at every cap' if results['all_deterministic_identical'] else 'DIVERGED'}",
    ]
    return "\n".join(lines)


def _emit_results(output_dir, results: dict) -> None:
    payload = json.dumps(results, indent=2)
    (output_dir / "BENCH_wire_concurrency.json").write_text(
        payload + "\n", encoding="utf-8"
    )
    emit(output_dir, "wire_concurrency", _render(results))


def test_wire_concurrency(output_dir):
    results = run_wire_concurrency_bench()
    _emit_results(output_dir, results)
    assert results["all_signatures_identical"]
    assert results["all_deterministic_identical"]
    if wire_scale() >= 0.0008 and max(wire_levels()) >= 1024:
        # The acceptance bar: >=1000 sessions genuinely multiplexed.
        assert results["max_sessions_multiplexed"] >= 1000


if __name__ == "__main__":
    OUTPUT_DIR.mkdir(exist_ok=True)
    bench_results = run_wire_concurrency_bench()
    _emit_results(OUTPUT_DIR, bench_results)
    if not bench_results["all_signatures_identical"]:
        sys.exit("FAIL: signatures diverged across concurrency levels")
