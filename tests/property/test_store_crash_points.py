"""Property tests for crash-point recovery (the chaos tentpole).

The contract under test: killing the store writer at *any* declared
crash point, at *any* cadence, tear behaviour and segment geometry,
then reopening and replaying, always converges to the exact fault-free
aggregate signature with zero loss — and every torn tail the simulated
crashes leave behind is healed and accounted under
``reports.rejected{reason=torn-segment}`` exactly once.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import CRASH_POINTS, FaultPlan
from repro.faults.recovery import FaultGate, ResilientStore, deliver
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.store import scan_store
from repro.obs.metrics import MetricsRegistry

_COUNTRIES = ["US", "BR", "??"]
_HOSTS = ["site-a.test", "site-b.test"]
_TYPES = ["Popular", "Business"]


def _summary(tag: str) -> CertSummary:
    return CertSummary(
        subject_cn=f"cn-{tag}",
        subject_org=None,
        issuer_cn="CA",
        issuer_org=f"org-{tag}",
        issuer_ou=None,
        serial_number=len(tag),
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint=f"fp-{tag}",
        public_key_fingerprint=f"pk-{tag}",
    )


_mismatch = st.builds(
    lambda country, host, htype, ip, tag: (
        "m",
        MeasurementRecord(
            study=1,
            campaign="crash",
            client_ip=f"10.0.0.{ip}",
            country=country,
            hostname=host,
            host_type=htype,
            mismatch=True,
            leaf=_summary(tag),
            chain=(),
        ),
    ),
    country=st.sampled_from(_COUNTRIES),
    host=st.sampled_from(_HOSTS),
    htype=st.sampled_from(_TYPES),
    ip=st.integers(0, 30),
    tag=st.text("abcdef", min_size=1, max_size=4),
)

_bulk = st.tuples(
    st.just("c"),
    st.sampled_from(_COUNTRIES),
    st.sampled_from(_TYPES),
    st.sampled_from(_HOSTS),
    st.integers(1, 50),
)

_failure = st.tuples(
    st.just("f"),
    st.sampled_from(["probe_failed", "report_failed", "connect_failed"]),
    st.integers(1, 3),
)

_ops = st.lists(st.one_of(_mismatch, _bulk, _failure), min_size=1, max_size=40)


def _reference(ops):
    database = ReportDatabase()
    deliver(ops, database)
    return database


class TestCrashPointRecovery:
    @given(
        ops=_ops,
        point=st.sampled_from(CRASH_POINTS),
        cadence=st.integers(1, 3),
        tear=st.booleans(),
        batch_rows=st.integers(1, 8),
        segment_bytes=st.integers(64, 2048),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_crash_point_heals_to_the_exact_signature(
        self, ops, point, cadence, tear, batch_rows, segment_bytes, seed
    ):
        reference = _reference(ops).aggregate_signature()
        plan = FaultPlan(
            seed=seed, crash_every={point: cadence}, tear=tear
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            registry = MetricsRegistry()
            store = ResilientStore(
                path,
                plan,
                registry,
                batch_rows=batch_rows,
                segment_bytes=segment_bytes,
            )
            stats = deliver(ops, store)
            if point == "compact":
                store.compact()
                store.close()
            # Exact loss accounting: a crash-only plan never loses an op.
            assert stats["failed"] == 0
            assert stats["submitted"] == stats["delivered"] == len(ops)
            # Byte-identical recovery at arbitrary geometry.
            assert scan_store(path).aggregate_signature() == reference
            # Every torn tail the simulated crashes produced was healed
            # at reopen and counted exactly once.
            counters = registry.deterministic_snapshot()["counters"]
            torn = counters.get("reports.rejected{reason=torn-segment}", 0)
            assert torn == store.torn_tails
            if tear is False:
                assert torn == 0
            # A fresh scan sees a clean store: healing is durable.
            rescan = MetricsRegistry()
            scan_store(path, rescan)
            assert (
                rescan.deterministic_snapshot()["counters"].get(
                    "reports.rejected{reason=torn-segment}", 0
                )
                == 0
            )

    @given(
        ops=_ops,
        cadences=st.fixed_dictionaries(
            {},
            optional={point: st.integers(1, 3) for point in CRASH_POINTS},
        ),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_combined_crash_plans_also_converge(self, ops, cadences, seed):
        reference = _reference(ops).aggregate_signature()
        plan = FaultPlan(seed=seed, crash_every=dict(cadences))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            store = ResilientStore(
                path, plan, MetricsRegistry(), batch_rows=3, segment_bytes=384
            )
            stats = deliver(ops, store)
            store.compact()
            store.close()
            assert stats["failed"] == 0
            assert scan_store(path).aggregate_signature() == reference

    @given(ops=_ops, rate=st.floats(0.05, 0.5), seed=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_lossy_plans_hold_the_exact_loss_invariant(self, ops, rate, seed):
        plan = FaultPlan(
            seed=seed, rates={"drop": rate}, crash_every={"flush": 2}
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            gate = FaultGate(plan, MetricsRegistry())
            store = ResilientStore(
                path, plan, MetricsRegistry(), batch_rows=3, segment_bytes=512
            )
            stats = deliver(ops, store, gate)
            assert stats["submitted"] == stats["delivered"] + stats["failed"]
            assert stats["failed"] == len(gate.dropped)
            # The surviving set is exactly the non-dropped ops.
            survivors = [
                op for index, op in enumerate(ops) if index not in gate.dropped
            ]
            signature = _reference(survivors).aggregate_signature()
            assert scan_store(path).aggregate_signature() == signature
            # The in-memory sink, fed the same ops through the same
            # plan's gate, lands on the same accounting and signature.
            database = ReportDatabase()
            memory = deliver(ops, database, FaultGate(plan, MetricsRegistry()))
            assert memory == {key: stats[key] for key in memory}
            assert database.aggregate_signature() == signature
