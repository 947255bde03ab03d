"""Chaos-layer benchmark: what does surviving faults cost?

Three measurements on top of the drill matrix's correctness gates:

* **matrix** — wall time and per-drill verdicts for the full
  ``repro chaos`` fault matrix (every wire/server/store-crash kind);
* **recovery overhead** — a ``REPRO_BENCH_CHAOS_OPS``-op delivery
  (default 200k) through a crash-heavy plan vs the same ops fault-free:
  ops/sec on both paths and the recovery multiplier, with the
  byte-identical signature re-proved at bench scale;
* **gate throughput** — the pure :class:`FaultGate` decision rate
  (ops/sec through ``attempt``) under a mixed transient plan, since
  every fast-mode op pays this check when a plan is active.

Results land in ``benchmarks/output/BENCH_chaos.json`` plus a
human-readable text twin.  Run standalone (``PYTHONPATH=src python
benchmarks/bench_chaos.py``) or through pytest like the other benches.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from repro.faults.chaos import _synthetic_database, run_chaos_matrix
from repro.faults.plan import FaultPlan
from repro.faults.recovery import FaultGate, ResilientStore, database_ops, deliver
from repro.measure.store import ReportStore, scan_store
from repro.obs.metrics import MetricsRegistry

try:  # pytest run (conftest on path) or standalone script
    from conftest import BENCH_SEED, OUTPUT_DIR, emit
except ImportError:  # pragma: no cover - standalone fallback
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from conftest import BENCH_SEED, OUTPUT_DIR, emit


def chaos_ops() -> int:
    return int(os.environ.get("REPRO_BENCH_CHAOS_OPS", "200000"))


def recovery_plan(ops: int) -> str:
    # ~ops/4096 flushes happen, so scale the crash cadences with the op
    # count: a handful of crashes fire whether REPRO_BENCH_CHAOS_OPS is
    # 20k or 10M, keeping the recoveries>0 gate meaningful at any scale.
    flushes = max(2, ops // 4096)
    return (
        "reset=0.0005,429=0.0005,"
        f"crash-flush={max(1, flushes // 3)},crash-rotate={max(1, flushes // 4)},"
        "segment-bytes=262144,batch-rows=4096"
    )


def _bench_matrix() -> dict:
    registry = MetricsRegistry()
    start = time.perf_counter()
    outcomes = run_chaos_matrix(seed=BENCH_SEED, reports=48, registry=registry)
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": round(elapsed, 3),
        "drills": len(outcomes),
        "all_invariants_hold": all(o.invariant_ok for o in outcomes),
        "all_recoverable_signatures_identical": all(
            o.signature_ok for o in outcomes if o.signature_ok is not None
        ),
        "recoveries": sum(o.recoveries for o in outcomes),
        "retries": sum(o.retries for o in outcomes),
        "per_drill": [
            {
                "name": o.name,
                "submitted": o.submitted,
                "delivered": o.delivered,
                "failed": o.failed,
                "recoveries": o.recoveries,
                "signature": {True: "identical", False: "diverged", None: "lossy"}[
                    o.signature_ok
                ],
            }
            for o in outcomes
        ],
    }


def _bench_recovery_overhead() -> dict:
    # ~n mismatch records + bulk counters, the same op mix the study
    # merge delivers.
    database = _synthetic_database(chaos_ops())
    ops = list(database_ops(database))
    reference = database.aggregate_signature()
    results: dict = {"ops": len(ops)}
    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as tmp:
        start = time.perf_counter()
        deliver(ops, ReportStore(f"{tmp}/clean", batch_rows=4096))
        clean_s = time.perf_counter() - start

        plan = FaultPlan.parse(recovery_plan(len(ops)), seed=BENCH_SEED)
        registry = MetricsRegistry()
        store = ResilientStore(f"{tmp}/chaos", plan, registry)
        gate = FaultGate(plan, registry)
        start = time.perf_counter()
        stats = deliver(ops, store, gate)
        chaos_s = time.perf_counter() - start
        signature_ok = (
            scan_store(f"{tmp}/chaos").aggregate_signature() == reference
            and stats["failed"] == 0
        )
    results.update(
        clean_elapsed_s=round(clean_s, 3),
        clean_ops_per_sec=round(len(ops) / clean_s) if clean_s else 0,
        chaos_elapsed_s=round(chaos_s, 3),
        chaos_ops_per_sec=round(len(ops) / chaos_s) if chaos_s else 0,
        overhead_multiplier=round(chaos_s / clean_s, 2) if clean_s else 0.0,
        recoveries=stats["recoveries"],
        retries=stats["retries"],
        crashes=stats["crashes"],
        signature_identical=signature_ok,
    )
    return results


def _bench_gate_throughput() -> dict:
    plan = FaultPlan.parse("reset=0.001,429=0.001,drop=0.0002", seed=BENCH_SEED)
    gate = FaultGate(plan, MetricsRegistry())
    n = chaos_ops()
    start = time.perf_counter()
    passed = sum(1 for i in range(n) if gate.attempt(i))
    elapsed = time.perf_counter() - start
    return {
        "ops": n,
        "elapsed_s": round(elapsed, 3),
        "ops_per_sec": round(n / elapsed) if elapsed else 0,
        "passed": passed,
        "dropped": len(gate.dropped),
        "retries": gate.retries,
    }


def run_chaos_bench() -> dict:
    return {
        "matrix": _bench_matrix(),
        "recovery_overhead": _bench_recovery_overhead(),
        "gate_throughput": _bench_gate_throughput(),
    }


def _render(results: dict) -> str:
    matrix = results["matrix"]
    overhead = results["recovery_overhead"]
    gate = results["gate_throughput"]
    lines = [
        "Chaos layer: fault injection & recovery (BENCH_chaos)",
        "=" * 53,
        f"drill matrix        {matrix['drills']:>10} drills in "
        f"{matrix['elapsed_s']:.1f} s "
        f"({matrix['recoveries']} recoveries, {matrix['retries']} retries)",
        f"invariants          {'all hold' if matrix['all_invariants_hold'] else 'BROKEN':>10}",
        f"recoverable sigs    "
        f"{'identical' if matrix['all_recoverable_signatures_identical'] else 'DIVERGED':>10}",
        "",
        f"recovery overhead over {overhead['ops']:,} ops:",
        f"  fault-free        {overhead['clean_ops_per_sec']:>12,} ops/s",
        f"  crash-heavy       {overhead['chaos_ops_per_sec']:>12,} ops/s "
        f"({overhead['recoveries']} recoveries, x{overhead['overhead_multiplier']})",
        f"  signature         "
        f"{'identical' if overhead['signature_identical'] else 'DIVERGED'}",
        "",
        f"gate throughput     {gate['ops_per_sec']:>12,} decisions/s "
        f"({gate['dropped']} dropped, {gate['retries']} retries)",
    ]
    return "\n".join(lines)


def _emit_results(output_dir, results: dict) -> None:
    payload = json.dumps(results, indent=2)
    (output_dir / "BENCH_chaos.json").write_text(payload + "\n", encoding="utf-8")
    emit(output_dir, "chaos", _render(results))


def test_chaos(output_dir):
    results = run_chaos_bench()
    _emit_results(output_dir, results)
    assert results["matrix"]["all_invariants_hold"]
    assert results["matrix"]["all_recoverable_signatures_identical"]
    assert results["recovery_overhead"]["signature_identical"]
    assert results["recovery_overhead"]["recoveries"] > 0


if __name__ == "__main__":
    OUTPUT_DIR.mkdir(exist_ok=True)
    chaos_results = run_chaos_bench()
    _emit_results(OUTPUT_DIR, chaos_results)
