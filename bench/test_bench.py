"""Self-test of the benchmark: every workload at a tiny size, traced, in-process.

Each workload runs once through :func:`bench.rep.measure` with the layer
tracer on.  The test checks the workloads' own output checks and the
"does little" column of the layer table in ``bench/README.md``: a layer
metric only means what it says if the workloads that should bypass a
layer really make no calls into it.
"""

from __future__ import annotations

import json

import pytest

from bench.rep import measure
from bench.run import (
    MAX_ROUNDS,
    MIN_ROUNDS,
    PROGRAM_SEEDS,
    ROOT,
    check,
    metric_units,
    pinned_digests,
    program_seed,
    summarise,
)
from bench.workloads import WORKLOADS, Audit, Fast, Ingest, Wire

TINY = {
    "wire": Wire(scale=0.00005),
    "fast": Fast(scale=0.002),
    "audit": Audit(products=["bitdefender", "kurupira"]),
    "ingest": Ingest(reports=20_000),
}

# Layers each workload exists to exercise (README: "should move").
SHOULD_MOVE = {
    "wire": (
        "asn1.decode", "x509.parse", "x509.tbs_encode", "x509.verify",
        "x509.validate_chain", "rsa.verify", "tls.decode_records",
        "tls.hello_parse", "netsim.send", "netsim.drain", "report.ingest",
    ),
    "fast": ("rsa.keygen", "rsa.sign", "x509.tbs_encode", "proxy.forge", "db.add_mismatch"),
    "audit": (
        "rsa.keygen", "x509.parse", "tls.decode_records", "tls.hello_parse",
        "netsim.send", "proxy.engine", "proxy.forge", "audit.scenario", "audit.mimicry",
    ),
    "ingest": ("store.flush", "store.scan"),
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_KEY_VAULT", raising=False)
        return {
            name: measure(
                workload, seed=42, workdir=tmp_path_factory.mktemp(name), traced=True
            )
            for name, workload in TINY.items()
        }


@pytest.mark.parametrize("name", sorted(TINY))
def test_output_checks_pass(records, name):
    record = records[name]
    assert record["error"] is None
    assert record["attempted"] >= 1
    assert record["failed"] == 0
    assert record["ops"] >= 1 and record["ops_per_s"] > 0


def test_tracing_does_not_change_outputs(records, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_KEY_VAULT", raising=False)
    untraced = measure(TINY["wire"], seed=42, workdir=tmp_path)
    assert "layers" not in untraced
    assert untraced["digest"] == records["wire"]["digest"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_should_move_layers_are_exercised(records, name):
    layers = records[name]["layers"]
    idle = [layer for layer in SHOULD_MOVE[name] if not layers[f"{layer}.calls"] > 0]
    assert not idle


def test_bypass_layers_stay_idle(records):
    ingest = records["ingest"]["layers"]
    for layer in (
        "x509.parse", "rsa.keygen", "rsa.sign", "rsa.verify", "netsim.send", "netsim.drain",
    ):
        assert ingest[f"{layer}.calls"] == 0, layer
    for name in ("wire", "fast", "audit"):
        assert records[name]["layers"]["store.flush.calls"] == 0, name
    assert records["fast"]["layers"]["x509.parse.calls"] == 0
    # The audit drives netsim synchronously, the wire study through the queue.
    assert records["audit"]["layers"]["netsim.loop_ticks"] == 0
    assert records["wire"]["layers"]["netsim.loop_ticks"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_add_up_to_wall(records, name):
    record = records[name]
    layers = record["layers"]
    covered = sum(
        value for key, value in layers.items()
        if key.endswith(".self_s") and key != "other.self_s"
    )
    assert covered <= record["wall_s"] * (1 + 1e-9)
    assert layers["other.self_s"] == pytest.approx(record["wall_s"] - covered)
    assert 0 < layers["trace.coverage"] <= 1


def test_benchmark_json_names_every_metric(records):
    record = records["wire"]
    assert set(metric_units("end_to_end")) <= set(record) | {"peak_rss_mb"}
    emitted = set(record["layers"]) | {"trace.overhead"}
    assert set(metric_units("per_layer")) == emitted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {workload["name"] for workload in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("seed", [1, 42, 7_000_000])
def test_every_run_covers_every_pinned_program_seed(seed):
    pins = pinned_digests("wire")
    assert set(pins) == set(PROGRAM_SEEDS)
    assert {program_seed(seed, index) for index in range(MIN_ROUNDS)} == set(pins)
    assert {program_seed(seed, index) for index in range(MAX_ROUNDS)} == set(pins)
    assert pinned_digests("ingest") == {}


def test_metrics_weigh_every_program_seed_alike():
    def record(seed, value):
        return {
            "seed": seed, "traced": False, "digest": "d", "attempted": 1, "failed": 0,
            "ops": 1, "phases_s": {"run": value}, "wall_s": value, "wall_raw_s": value,
            "setup_raw_s": value, "setup_s": value, "ops_per_s": value, "peak_rss_mb": value,
        }

    records = [record(1, 10.0), record(1, 12.0), record(1, 90.0), record(2, 20.0)]
    summary = summarise("ingest", records, trace=False)
    assert summary["problems"] == []
    assert summary["metrics"]["ops_per_s"] == (16.0, "ops/s")  # mean of 12 and 20


def test_check_catches_wrong_and_unstable_outputs():
    seed = PROGRAM_SEEDS[1]
    good = {"seed": seed, "digest": pinned_digests("audit")[seed]}
    assert check("audit", [good, dict(good)]) == []
    assert len(check("audit", [{"seed": seed, "digest": "0" * 64}])) == 1
    assert len(check("ingest", [{"seed": 7, "digest": "a"}, {"seed": 7, "digest": "b"}])) == 1
    assert check("audit", [{"seed": 7, "error": "exit 1: boom"}]) == [
        "program seed 7: exit 1: boom"
    ]
