"""The ``repro chaos`` fault matrix: inject, recover, prove it.

Runs one drill per fault kind against a real (small) world — reports
submitted through the measurement tool on the wire scheduler, the
reporting server, a report store — each in a fresh temporary store,
and checks the two invariants the chaos layer promises:

* **exact loss accounting** — every drill holds
  ``submitted == delivered + failed`` exactly;
* **byte-identical recovery** — drills whose faults are recoverable
  (connection-level, stalls, 429s, server errors, store crashes)
  reproduce the fault-free ``aggregate_signature()`` byte for byte.
  Truncation and corruption are deliberately visible (the server's
  failure ledger records them), so those drills check accounting only.

Everything is seeded, so two runs of the matrix — at any ``--workers``
value for the embedded fast-mode study drill — produce identical
deterministic metrics; the CI chaos smoke diffs exactly that.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.crypto.keystore import KeyStore
from repro.faults.plan import CRASH_POINTS, FaultPlan
from repro.faults.recovery import FaultGate, ResilientStore, database_ops, deliver
from repro.faults.wire import FaultRelay, server_fault_hook
from repro.measure.database import ReportDatabase
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.server import ReportingServer
from repro.measure.store import ReportStore, scan_store
from repro.measure.tool import MeasurementTool
from repro.netsim.loop import WireScheduler
from repro.netsim.network import Network, PathHop
from repro.obs.metrics import SECTION_DETERMINISTIC, MetricsRegistry
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import Name, SubjectPublicKeyInfo
from repro.x509.pem import pem_encode

_COLLECTOR = "collector.chaos"

# One drill per wire/server kind; rates sized so a small report batch
# still sees several injections at the default seed.
WIRE_DRILLS: tuple[tuple[str, str, bool], ...] = (
    # (name, plan rules, recoverable → signature must match fault-free)
    ("connect-refused", "connect-refused=0.3", True),
    ("reset", "reset=0.3", True),
    ("stall", "stall=0.5", True),
    ("server-5xx", "server-5xx=0.3", True),
    ("server-slow", "server-slow=0.3", True),
    ("429", "429=0.3", True),
    ("truncate", "truncate=0.3", False),
    ("corrupt", "corrupt=0.4", False),
)


@dataclass
class DrillOutcome:
    """One drill's verdicts, as the chaos table prints them."""

    name: str
    plan: str
    submitted: int
    delivered: int
    failed: int
    retries: int
    recoveries: int
    injected: dict
    invariant_ok: bool
    signature_ok: bool | None  # None: lossy by design, not checked

    @property
    def ok(self) -> bool:
        return self.invariant_ok and self.signature_ok is not False


class _ChaosWorld:
    """A reporting stack small enough to rebuild per drill."""

    def __init__(self, seed: int) -> None:
        keystore = KeyStore(seed=seed)
        root = CertificateAuthority.self_signed(
            SelfSignedParams(
                subject=Name.build(
                    common_name="Chaos Root CA", organization="Chaos Trust"
                ),
                key=keystore.key("chaos-root", 512),
            )
        )
        leaf_key = keystore.key("chaos-leaf", 512)
        leaf = root.issue(
            Name.build(common_name=_COLLECTOR, organization="Chaos"),
            SubjectPublicKeyInfo(leaf_key.n, leaf_key.e),
            dns_names=[_COLLECTOR],
        )
        self.body = (
            pem_encode(leaf.encode()) + pem_encode(root.certificate.encode())
        ).encode("ascii")
        # An expected fingerprint no report ever matches: every report
        # lands as a full mismatch record (keyed by client IP), so the
        # aggregate signature is sensitive to every single delivery.
        self.expected = "00" * 32

    def run_ingest(
        self,
        store_dir,
        registry: MetricsRegistry,
        plan: FaultPlan | None,
        reports: int,
    ) -> dict:
        """Submit ``reports`` reports, 8 in flight, each from its own client."""
        store = ReportStore(store_dir, registry, batch_rows=8)
        server = ReportingServer(store, None, study=1, registry=registry)
        server.expect(_COLLECTOR, self.expected, "Popular")
        network = Network()
        network.add_host(_COLLECTOR).listen(80, server.http.factory)
        hop = None
        if plan is not None:
            if plan.has_server_faults():
                server.fault_hook = server_fault_hook(plan, registry)
            if plan.has_wire_faults():
                hop = PathHop("chaos-relay")
                hop.add_interceptor(
                    FaultRelay(plan, registry, hostname=_COLLECTOR, port=80)
                )
        tool = MeasurementTool(_COLLECTOR, registry=registry, fault_plan=plan)
        scheduler = WireScheduler(network, max_active=8)
        outcomes = []

        def submit(client, index):
            def task():
                outcome = yield from tool.report_task(
                    client, _COLLECTOR, self.body, session_ordinal=index
                )
                outcomes.append(outcome)

            return task

        for index in range(reports):
            client = network.add_host(
                f"client-{index}.chaos", ip=f"10.77.{index // 256}.{index % 256}"
            )
            if hop is not None:
                client.access_path.append(hop)
            scheduler.spawn(submit(client, index))
        scheduler.run()
        store.close()
        return {
            "submitted": reports,
            "delivered": sum(o.reports_delivered for o in outcomes),
            "failed": sum(o.report_failed for o in outcomes),
        }


def _synthetic_database(n: int) -> ReportDatabase:
    """A seedless, hand-built database for the store crash drills."""
    database = ReportDatabase()
    leaf = CertSummary(
        subject_cn="chaos", subject_org=None, issuer_cn="Chaos CA",
        issuer_org="Chaos", issuer_ou=None, serial_number=7, key_bits=512,
        signature_algorithm="sha256WithRSAEncryption",
        fingerprint="ab" * 32, public_key_fingerprint="cd" * 32,
    )
    for index in range(n):
        database.add_mismatch(
            MeasurementRecord(
                study=1, campaign="chaos", client_ip=f"10.66.0.{index % 250}",
                country="US" if index % 3 else "DE", hostname=f"h{index % 5}.chaos",
                host_type="Popular", mismatch=True, leaf=leaf, chain=(),
                chain_valid=False, via="fast", product_key=None,
            )
        )
    database.add_matched_bulk("US", "Popular", "h0.chaos", 900)
    database.add_matched_bulk("DE", "Business", "h1.chaos", 400)
    database.failures.report_failed = 2
    database.failures.sessions_started = n
    return database


def run_chaos_matrix(
    seed: int = 0,
    reports: int = 48,
    workers: int = 1,
    scale: float = 0.001,
    vault: str | None = None,
    registry: MetricsRegistry | None = None,
) -> list[DrillOutcome]:
    """Run every drill; merge deterministic metrics into ``registry``."""
    master = registry if registry is not None else MetricsRegistry()
    outcomes: list[DrillOutcome] = []

    def fold(drill_registry: MetricsRegistry) -> None:
        master.merge_snapshot(
            drill_registry.snapshot(), sections=(SECTION_DETERMINISTIC,)
        )

    world = _ChaosWorld(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        # Fault-free reference: the signature every recoverable wire
        # drill must land on exactly.
        ref_registry = MetricsRegistry()
        ref_stats = world.run_ingest(f"{tmp}/ref", ref_registry, None, reports)
        reference = scan_store(f"{tmp}/ref").aggregate_signature()
        assert ref_stats["delivered"] == reports

        for name, rules, recoverable in WIRE_DRILLS:
            plan = FaultPlan.parse(rules, seed=seed)
            drill_registry = MetricsRegistry()
            stats = world.run_ingest(
                f"{tmp}/wire-{name}", drill_registry, plan, reports
            )
            signature = scan_store(f"{tmp}/wire-{name}").aggregate_signature()
            counters = drill_registry.deterministic_snapshot()["counters"]
            injected = {
                key.split("kind=", 1)[1].rstrip("}"): value
                for key, value in counters.items()
                if key.startswith("faults.injected{")
            }
            retries = counters.get("tool.report_retries{leg=report}", 0)
            fold(drill_registry)
            outcomes.append(
                DrillOutcome(
                    name=f"wire:{name}",
                    plan=plan.describe(),
                    submitted=stats["submitted"],
                    delivered=stats["delivered"],
                    failed=stats["failed"],
                    retries=retries,
                    recoveries=0,
                    injected=injected,
                    invariant_ok=stats["submitted"]
                    == stats["delivered"] + stats["failed"],
                    signature_ok=(signature == reference) if recoverable else None,
                )
            )

        # Store crash drills: one per declared crash point, each against
        # a synthetic op stream with tight segment geometry so every
        # point actually fires.
        database = _synthetic_database(reports)
        crash_reference = database.aggregate_signature()
        ops = list(database_ops(database))
        for point in CRASH_POINTS:
            # seal fires once per close, so only cadence 1 reaches it in
            # a single-delivery drill; the hot points use cadence 2.
            cadence = 1 if point == "seal" else 2
            plan = FaultPlan.parse(
                f"crash-{point}={cadence},segment-bytes=512,batch-rows=4", seed=seed
            )
            drill_registry = MetricsRegistry()
            store = ResilientStore(f"{tmp}/crash-{point}", plan, drill_registry)
            stats = deliver(ops, store, FaultGate(plan, drill_registry))
            if point == "compact":
                # deliver() alone never compacts; run the maintenance
                # pass the crash point lives in, riding through crashes.
                store.compact()
                store.close()
                stats.update(store.stats())
            signature = scan_store(f"{tmp}/crash-{point}").aggregate_signature()
            fold(drill_registry)
            outcomes.append(
                DrillOutcome(
                    name=f"store:crash-{point}",
                    plan=plan.describe(),
                    submitted=stats["submitted"],
                    delivered=stats["delivered"],
                    failed=stats["failed"],
                    retries=stats["retries"],
                    recoveries=stats["recoveries"],
                    injected=dict(stats["crashes"]),
                    invariant_ok=stats["submitted"]
                    == stats["delivered"] + stats["failed"],
                    signature_ok=signature == crash_reference,
                )
            )

        # Lossy gate drill: drops are unrecoverable by construction, so
        # only the exact-loss invariant is on trial.
        plan = FaultPlan.parse("drop=0.15,reset=0.2,crash-flush=2", seed=seed)
        drill_registry = MetricsRegistry()
        store = ResilientStore(f"{tmp}/lossy", plan, drill_registry)
        stats = deliver(ops, store, FaultGate(plan, drill_registry))
        fold(drill_registry)
        outcomes.append(
            DrillOutcome(
                name="store:lossy-drop",
                plan=plan.describe(),
                submitted=stats["submitted"],
                delivered=stats["delivered"],
                failed=stats["failed"],
                retries=stats["retries"],
                recoveries=stats["recoveries"],
                injected=dict(stats["injected"]),
                invariant_ok=stats["submitted"]
                == stats["delivered"] + stats["failed"]
                and stats["failed"] > 0,
                signature_ok=None,
            )
        )

        # End-to-end study drill: a faulted fast-mode study (gate +
        # crash points on the streamed store) must reproduce the
        # fault-free study's signature at any worker count.
        from repro.study.runner import StudyConfig, StudyRunner

        base = dict(study=1, seed=seed, scale=scale, workers=workers, vault=vault)
        clean = StudyRunner(
            StudyConfig(report_store=f"{tmp}/study-ref", **base)
        ).run()
        faulted = StudyRunner(
            StudyConfig(
                report_store=f"{tmp}/study-chaos",
                faults="reset=0.05,429=0.05,crash-flush=3,crash-rotate=2,"
                "segment-bytes=2048,batch-rows=16",
                **base,
            )
        ).run()
        study_sig = scan_store(f"{tmp}/study-chaos").aggregate_signature()
        study_ref = scan_store(f"{tmp}/study-ref").aggregate_signature()
        note = faulted.notes["faults"]
        master.merge_snapshot(faulted.metrics, sections=(SECTION_DETERMINISTIC,))
        outcomes.append(
            DrillOutcome(
                name="study1:recoverable",
                plan=note["plan"],
                submitted=note["submitted"],
                delivered=note["delivered"],
                failed=note["failed"],
                retries=note["retries"],
                recoveries=note["recoveries"],
                injected=dict(note["injected"]),
                invariant_ok=note["submitted"]
                == note["delivered"] + note["failed"],
                signature_ok=study_sig == study_ref,
            )
        )
        del clean
    return outcomes
